"""Tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import common  # noqa: E402

common.pin_environment()

import inputs  # noqa: E402
import spans  # noqa: E402


# ---- seeded inputs -------------------------------------------------------------------
def test_same_seed_same_inputs_other_seed_other_inputs():
    assert inputs.svc_jobs(7) == inputs.svc_jobs(7)
    assert inputs.svc_jobs(7) != inputs.svc_jobs(8)
    for workload in ("replay-8core", "replay-128core"):
        assert inputs.replay_batch(workload, 7) == inputs.replay_batch(workload, 7)
        assert inputs.replay_batch(workload, 7) != inputs.replay_batch(workload, 8)


def test_same_seed_same_digests_other_seed_other_digests():
    import replay
    from repro.simulation.metrics import run_result_digest

    def digests(seed):
        ctx, batch, _ = replay.setup("replay-8core", seed, repeats=1)
        return [run_result_digest(replay.replay(ctx, sc, mgr)[0])
                for _, sc, mgr in replay.tasks_of(batch)[:3]]

    assert digests(7) == digests(7)
    assert digests(7) != digests(8)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17, 12345])
def test_designed_warm_cold_split_holds(seed):
    jobs = inputs.svc_jobs(seed)
    template = {(s, n) for s, n in inputs.template_pairs()}
    keys = [(j.body["shape"], j.body["params"]["seed"], j.manager) for j in jobs]
    assert len(set(keys)) == len(keys), "a job repeats, so it would be deduplicated"
    for n in range(4, len(jobs) + 1, 4):
        assert sum(j.warm for j in jobs[:n]) == n // 2
    for k in range(0, len(jobs), 2):
        a, b = jobs[k], jobs[k + 1]
        assert a.pair == b.pair and {a.manager, b.manager} == {"rm2", "baseline"}
        assert a.body["params"] == b.body["params"] and a.warm == b.warm
    for j in jobs:
        in_template = (j.body["shape"], j.body["params"]["seed"]) in template
        assert in_template == j.warm
        assert (j.body["shape"], j.body["params"]["seed"]) != inputs.WARMUP_WARM
    assert len(jobs) >= 4 * inputs.SVC_MIN_JOBS
    for j in inputs.warmup_jobs(seed):
        assert (j.body["shape"], j.body["params"]["seed"], j.manager) not in keys


# ---- the percentile rule ---------------------------------------------------------------
@pytest.mark.parametrize("n", [11, 25, 70, 199, 200, 201, 400, 1000])
def test_tail_percentile_leaves_at_least_ten_beyond(n):
    values = list(range(n))
    q = common.tail_percentile(n)
    beyond = sum(v > common.percentile(values, q) for v in values)
    assert beyond >= common.TAIL_BEYOND
    assert q <= 95.0
    if q < 95.0:
        # No higher percentile would still leave ten samples beyond it.
        higher = common.percentile(values, q + 100.0 / n)
        assert sum(v > higher for v in values) < common.TAIL_BEYOND


def test_tail_percentile_small_runs_fall_back_to_median():
    assert common.tail_percentile(10) == 50.0
    assert common.tail_percentile(400) == 95.0


# ---- self-time arithmetic ---------------------------------------------------------------
def test_self_time_nested():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    ids, parents = [1, 2, 3, 4], [0, 1, 2, 1]
    starts, ends = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0]
    out = spans.self_times(ids, parents, starts, ends)
    assert list(out) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert out.sum() == pytest.approx(10.0)


def test_self_time_overlapping_children_counted_once():
    # Two children of one parent overlap on [3, 4]; one sticks out past the
    # parent's end and is clipped.
    ids, parents = [10, 11, 12], [0, 10, 10]
    starts, ends = [0.0, 1.0, 3.0], [6.0, 4.0, 8.0]
    out = spans.self_times(ids, parents, starts, ends)
    # Children cover [1, 6] of the parent: 5 of its 6 seconds.
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(3.0) and out[2] == pytest.approx(5.0)


def test_recorder_self_times_sum_to_root():
    rec = spans.Recorder()

    def leaf():
        sum(range(2000))

    def middle():
        leaf()
        leaf()

    def root():
        middle()
        leaf()

    leaf_t = rec.wrap(leaf, "leaf")
    middle_t = rec.wrap(lambda: (leaf_t(), leaf_t()), "middle")
    root_t = rec.wrap(lambda: (middle_t(), leaf_t()), "root")
    rec.set_trace("job-1")
    root_t()
    cols = rec.arrays()
    self_s, total_s, calls = spans.layer_totals(cols, rec.names)
    assert calls == {"leaf": 3, "middle": 1, "root": 1}
    assert sum(self_s.values()) == pytest.approx(total_s["root"], rel=1e-12)
    assert set(cols["trace"]) == {1}
