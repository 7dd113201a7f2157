#!/usr/bin/env python3
"""The repository benchmark: library replay and the HTTP replay service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-8core --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --prepare          # one-time set-up only
    python3 perfbench/run.py --write-expected   # re-record expected_digests.json

Workloads: ``replay-8core``, ``replay-128core`` and ``svc-mixed`` (see
README.md).  With ``--trace 0`` a run prints the seven end-to-end metrics;
with ``--trace 1`` it runs the workload once untraced and once with span
recording, and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

When the prepared state (databases, warm-store template) is missing, the
prepare step runs first, before anything is timed, and says so on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("replay-8core", "replay-128core", "svc-mixed")

#: Unit of every per-layer metric, in the order they are printed.
LAYER_UNITS = {
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.events": "count",
    "engine.scheduler_s": "s",
    "engine.advance_s": "s",
    "engine.tenancy_s": "s",
    "managers.decide_calls": "count",
    "managers.decide_self_s": "s",
    "managers.cached_decision_ratio": "ratio",
    "managers.curves_calls": "count",
    "managers.curves_s": "s",
    "managers.curves_cores_per_call": "count",
    "global_opt.calls": "count",
    "global_opt.refresh_s": "s",
    "global_opt.solve_s": "s",
    "packed_tree.calls": "count",
    "packed_tree.refresh_s": "s",
    "packed_tree.solve_s": "s",
    "runner.get_context_s": "s",
    "overhead_meter.instr_per_invocation": "instr",
    "api.submit_ms": "ms",
    "api.stream_ms": "ms",
    "jobs.parse_key_ms": "ms",
    "pool.queue_wait_p50_ms": "ms",
    "pool.queue_wait_p95_ms": "ms",
    "pool.dedup_ratio": "ratio",
    "results_store.get_ms": "ms",
    "results_store.hit_ratio": "ratio",
    "results_store.put_ms": "ms",
    "results_store.puts": "count",
    "journal.append_ms": "ms",
    "journal.appends_per_job": "count",
    "journal.s_per_job": "s",
    "executor.runs": "count",
    "executor.run_ms": "ms",
    "svc.warm.latency_p50_ms": "ms",
    "svc.cold.latency_p50_ms": "ms",
    "tracing.overhead_pct": "%",
    "tracing.latency_p50_delta_ms": "ms",
    "trace.spans": "count",
    "trace.self_residual_s": "s",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def write_expected() -> None:
    """Record the default seed's digests (after an intentional change)."""
    import inputs
    import prepare
    import replay
    from repro.experiments.runner import get_context
    from repro.service.jobs import build_item, job_spec_from_json
    from repro.simulation.metrics import run_result_digest
    from repro.simulation.rma_sim import simulate_scenario

    prepare.run(log, check_expected=False)
    with open(os.path.join(common.TEMPLATE_DIR, common.TEMPLATE_MANIFEST), encoding="utf-8") as fh:
        template = json.load(fh)["template_digest"]
    out = {"seed": common.DEFAULT_SEED}
    for workload in ("replay-8core", "replay-128core"):
        ctx, batch, _ = replay.setup(workload, common.DEFAULT_SEED, repeats=1)
        out[workload] = {
            "digests": [
                run_result_digest(replay.replay(ctx, sc, mgr)[0])
                for _, sc, mgr in replay.tasks_of(batch)
            ]
        }
    ctx = get_context(inputs.SVC_NCORES, names=list(inputs.APPS))
    first = []
    for job in inputs.svc_jobs(common.DEFAULT_SEED)[: inputs.SVC_MIN_JOBS]:
        spec = job_spec_from_json(job.body)
        item = build_item(spec, ctx.db.benchmarks())
        first.append(run_result_digest(simulate_scenario(
            ctx.system, ctx.db, item, spec.manager.build(), max_slices=ctx.max_slices)))
    out["svc-mixed"] = {
        "template_digest": template,
        "first_jobs": inputs.SVC_MIN_JOBS,
        "first_jobs_digest": common.combined_digest(first),
    }
    with open(common.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    log(f"wrote {common.EXPECTED_PATH}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true", help="do the one-time set-up and exit")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-record expected_digests.json and exit")
    args = parser.parse_args(argv)
    if not common.source_present():
        log(f"the repository to measure is not here: {common.SRC_DIR} and "
            f"{common.TOOLS_DIR}/serve.py are missing")
        return 2
    common.pin_environment()
    import prepare

    if args.write_expected:
        write_expected()
        return 0
    if args.prepare:
        prepare.run(log)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not prepare.is_prepared():
        # A separate process, so its memory never shows in this run's peak RSS.
        log("prepared state missing: running the one-time prepare step now, before any timing")
        subprocess.run([sys.executable, os.path.abspath(__file__), "--prepare"], check=True)

    if args.workload == "svc-mixed":
        import svc

        out = svc.run(args.seed, args.seconds, bool(args.trace), log)
    else:
        import replay

        out = replay.run(args.workload, args.seed, args.seconds, bool(args.trace), log)

    if args.trace:
        metrics = {name: {"value": float(out["layers"].get(name, 0.0)), "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": float(value), "unit": unit}
                   for name, (value, unit) in out["metrics"].items()}
    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:38s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
