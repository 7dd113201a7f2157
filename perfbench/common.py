"""Paths, pinned fidelity, digests and statistics shared by the benchmark.

Importing this module pins the replay fidelity the way the ``tools/bench_*``
scripts do (``REPRO_ACCESSES_PER_SET=400``, 12 phase slices) and puts the
repository's ``src/`` and ``tools/`` directories on ``sys.path``.  It must be
imported before anything from ``repro``, because the runner reads the
fidelity knobs at import time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
TOOLS_DIR = os.path.join(ROOT, "tools")
#: Everything the benchmark builds or writes lives here (git-ignored).
STATE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PREPARED_PATH = os.path.join(STATE_DIR, "prepared.json")
TEMPLATE_DIR = os.path.join(STATE_DIR, "svc_template")
#: The template's job id -> result digest map, beside its results store.
TEMPLATE_MANIFEST = "manifest.json"
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected_digests.json")

ACCESSES_PER_SET = 400
MAX_SLICES = 12
#: Exported to every process the benchmark starts, so the service replays
#: at exactly the fidelity the library workloads use.
FIDELITY_ENV = {
    "REPRO_ACCESSES_PER_SET": str(ACCESSES_PER_SET),
    "REPRO_MAX_SLICES": str(MAX_SLICES),
}

#: The seed whose per-operation digests are committed in
#: ``expected_digests.json``.
DEFAULT_SEED = 0

#: Every run reports the highest percentile with at least this many samples
#: beyond it (capped at p95).
TAIL_BEYOND = 10


#: Seconds one yardstick slice is taken to last on the reference host.
#: Host-speed-normalised timings are expressed at this speed.
YARDSTICK_REF_S = 0.010
_YARD_ITERATIONS = 800


def yardstick_s() -> float:
    """Wall seconds of one fixed slice of interpreter-bound numpy work.

    The slice has the replay's profile: a Python loop issuing many small
    numpy operations.  Interleaved between replays, its speed tracks the
    host's speed on a shared machine (correlation about 0.9 per pass).  A
    much coarser yardstick, measured once per process, did not track it.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(_YARD_ITERATIONS):
        masked = np.where(a > 0.5, a, np.inf)
        totals = masked[None, :] + a[:, None]
        k = np.argmin(totals, axis=1)
        acc += float(totals[0, k[0]])
    elapsed = time.perf_counter() - t0
    if acc != acc:
        raise RuntimeError("yardstick produced NaN")
    return elapsed


def source_present() -> bool:
    """Whether the repository the benchmark measures is next to it."""
    return os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")) and os.path.isfile(
        os.path.join(TOOLS_DIR, "serve.py")
    )


def pin_environment() -> None:
    """Pin fidelity knobs and make ``repro`` and the tools importable."""
    os.environ.update(FIDELITY_ENV)
    for var in ("REPRO_NO_RESULT_CACHE", "REPRO_PROFILE", "REPRO_WAYS_AUDIT"):
        os.environ.pop(var, None)
    for path in (SRC_DIR, TOOLS_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)


def derive_seed(*parts) -> int:
    """A stable 48-bit integer from any printable parts."""
    text = "|".join(repr(p) for p in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


def combined_digest(digests) -> str:
    """One digest over an ordered list of per-operation digests."""
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
        h.update(b"\n")
    return h.hexdigest()[:32]


def tail_percentile(n: int, want: float = 95.0, beyond: int = TAIL_BEYOND) -> float:
    """The highest percentile (at most ``want``) with ``beyond`` samples above it.

    ``n`` samples leave ``n * (1 - q/100)`` samples beyond the q-th
    percentile, so the rule gives ``q = 100 * (n - beyond) / n``.  With
    ``beyond`` or fewer samples there is no such percentile; the median is
    the best the run can offer.
    """
    if n <= beyond:
        return 50.0
    return min(want, 100.0 * (n - beyond) / n)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
