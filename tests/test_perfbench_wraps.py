"""The traced benchmark run wraps library names that still exist.

``perfbench/spans.py`` instruments a replay by replacing named library
functions and methods (the kernel's run loop, the scheduler, the manager's
curve prologue, both reduction structures, ...) with timed wrappers.  A
rename or deletion of any of those names would otherwise surface only when
``perfbench/run.py --trace 1`` runs; this test installs every replay-layer
wrapper and removes it again, so it fails at test time instead.
"""

from __future__ import annotations

import importlib.util
import os

SPANS_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_replay_layer_wrap_targets_exist_and_unpatch_cleanly():
    spans = _load_spans()
    rec = spans.Recorder()
    try:
        spans.install_replay_layers(rec)
        originals = list(rec._undo)
        assert originals, "install_replay_layers wrapped nothing"
        for owner, attr, original in originals:
            assert _current(owner, attr) is not original
    finally:
        rec.unpatch()
    for owner, attr, original in originals:
        assert _current(owner, attr) is original
