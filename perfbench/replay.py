"""The two library-replay workloads: replay-8core and replay-128core.

A run replays a fixed, seeded batch of scenarios pass after pass.  The
number of passes is fixed by ``--seconds`` (:func:`passes_for`), so both
sides of a comparison do the same work.  Each pass gives one throughput
sample (global events retired over the summed ``SimulationKernel.run``
time), and the run reports the median over passes, scaled to a reference
host speed by yardstick slices interleaved with the replays.  The
static-baseline replays that the energy saving needs run after the timed
window and are never timed.
"""

from __future__ import annotations

import os
import statistics
import time

import common
import inputs
import spans

SETUP_REPEATS = 15

#: Seconds one pass takes on the reference host (2 vCPUs, idle neighbours
#: not guaranteed); ``--seconds`` is turned into a pass count with it.
NOMINAL_PASS_S = {"replay-8core": 3.2, "replay-128core": 1.6}


#: A yardstick slice runs before every n-th replay of a pass (about every
#: 0.25 s), so each pass carries its own measure of host speed.
YARDSTICK_EVERY = {"replay-8core": 6, "replay-128core": 1}


def passes_for(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


def database_path(ncores: int) -> str:
    """Where ``get_context(ncores, names=APPS)`` keeps its database."""
    from repro.experiments.runner import ACCESSES_PER_SET, DEFAULT_CACHE_DIR, default_system
    from repro.simulation.database import _config_digest

    digest = _config_digest(default_system(ncores), tuple(sorted(inputs.APPS)), ACCESSES_PER_SET)
    return os.path.join(DEFAULT_CACHE_DIR, f"simdb_{digest}.pkl")


def require_database(ncores: int) -> None:
    """Fail clearly instead of building a database inside a measurement."""
    path = database_path(ncores)
    if not os.path.exists(path):
        raise RuntimeError(
            f"the {ncores}-core simulation database is missing ({path}); "
            "run `python3 perfbench/run.py --prepare` first"
        )


def setup(workload: str, seed: int, repeats: int = SETUP_REPEATS):
    """Load the warm database and generate the batch, ``repeats`` times.

    Returns the context, the batch (``[(case, scenario)]``) and the
    set-up seconds of every repeat, each scaled to the reference host speed
    by a yardstick slice taken just before it.
    """
    from repro.experiments.runner import get_context

    cases = inputs.replay_batch(workload, seed)
    ncores = cases[0].ncores
    require_database(ncores)
    times = []
    for _ in range(repeats):
        host_speed = common.YARDSTICK_REF_S / common.yardstick_s()
        t0 = time.perf_counter()
        ctx = get_context(ncores, names=list(inputs.APPS))
        apps = ctx.db.benchmarks()
        batch = [(case, inputs.build_scenario(case, apps)) for case in cases]
        times.append((time.perf_counter() - t0) * host_speed)
    return ctx, batch, times


def tasks_of(batch) -> list:
    """``(label, scenario, manager label)`` for every replay of one pass."""
    return [
        (f"{case.name}/{mgr}", scenario, mgr) for case, scenario in batch for mgr in case.managers
    ]


def replay(ctx, scenario, manager_label: str, rec: spans.Recorder | None = None):
    """One replay: ``(result, kernel run seconds, wall seconds, events)``."""
    from repro.simulation.rma_sim import RMASimulator

    t0 = time.perf_counter()
    manager = inputs.manager_spec(manager_label).build()
    if rec is not None:
        spans.trace_manager(rec, manager)
    sim = RMASimulator(
        ctx.system, ctx.db, scenario.workload, manager,
        max_slices=common.MAX_SLICES, scenario=scenario,
    )
    t1 = time.perf_counter()
    result = sim.run()
    t2 = time.perf_counter()
    return result, t2 - t1, t2 - t0, sim.events_simulated


def measure(ctx, tasks, n_passes: int, yard_every: int,
            rec: spans.Recorder | None = None) -> dict:
    """Replay ``tasks`` ``n_passes`` times, with a yardstick slice before
    every ``yard_every``-th replay.

    Each pass records its host speed: the reference yardstick time over the
    measured one (below 1 on a slowed host).
    """
    from repro.simulation.metrics import run_result_digest

    passes = []
    first_digests = None
    energies = None
    mismatches = 0
    replays = 0
    t_start = time.perf_counter()
    while len(passes) < n_passes:
        events = 0
        run_s = 0.0
        wall_s = 0.0
        digests = []
        pass_energy = []
        latencies_ms = []
        yard_s = 0.0
        slices = 0
        for i, (label, scenario, mgr) in enumerate(tasks):
            if i % yard_every == 0:
                yard_s += common.yardstick_s()
                slices += 1
            if rec is not None:
                rec.set_trace((len(passes), i))
            result, r_s, w_s, ev = replay(ctx, scenario, mgr, rec)
            events += ev
            run_s += r_s
            wall_s += w_s
            latencies_ms.append(w_s * 1e3)
            digests.append(run_result_digest(result))
            pass_energy.append(result.total_energy_nj)
            replays += 1
        if first_digests is None:
            first_digests, energies = digests, pass_energy
        else:
            mismatches += sum(a != b for a, b in zip(first_digests, digests))
        passes.append({
            "events": events,
            "run_s": run_s,
            "wall_s": wall_s,
            "replays": len(tasks),
            "latencies_ms": latencies_ms,
            "host_speed": slices * common.YARDSTICK_REF_S / yard_s,
        })
    return {
        "passes": passes,
        "digests": first_digests,
        "energies": energies,
        "mismatches": mismatches,
        "replays": replays,
        "elapsed_s": time.perf_counter() - t_start,
    }


def energy_saving_pct(ctx, batch, tasks, energies) -> float:
    """Energy saved against the static baseline over one pass (untimed)."""
    base = {}
    for case, scenario in batch:
        result, *_ = replay(ctx, scenario, "baseline")
        base[case.name] = result.total_energy_nj
    base_total = sum(base[label.split("/")[0]] for label, _, _ in tasks)
    return 100.0 * (1.0 - sum(energies) / base_total)


def throughput_metrics(m: dict) -> dict:
    """events/s, replays/s and replay latency of one measurement, each
    pass scaled to the reference host speed by its own yardstick."""
    passes = m["passes"]
    lat = [ms * p["host_speed"] for p in passes for ms in p["latencies_ms"]]
    tail_q = common.tail_percentile(len(lat))
    return {
        "events_per_s": statistics.median(
            [p["events"] / p["run_s"] / p["host_speed"] for p in passes]),
        "jobs_per_s": statistics.median(
            [p["replays"] / p["wall_s"] / p["host_speed"] for p in passes]),
        "latency_p50_ms": common.percentile(lat, 50),
        "latency_p95_ms": common.percentile(lat, tail_q),
        "_raw_events_per_s": statistics.median([p["events"] / p["run_s"] for p in passes]),
        "_host_speed": statistics.median([p["host_speed"] for p in passes]),
        "_tail_q": tail_q,
        "_samples": len(lat),
    }


def reference_pass(workload: str, seed: int, ctx, batch, tasks, measured: dict):
    """The default seed's pass: ``(batch, tasks, digests, energies)``.

    At the default seed this is the timed first pass itself; at any other
    seed the default seed's batch is replayed once more, untimed.  Every
    run thus checks real output against the committed digests and scores
    the energy saving on the same reference scenarios.
    """
    from repro.simulation.metrics import run_result_digest

    if seed == common.DEFAULT_SEED:
        return batch, tasks, measured["digests"], measured["energies"]
    _, batch, _ = setup(workload, common.DEFAULT_SEED, repeats=1)
    tasks = tasks_of(batch)
    results = [replay(ctx, scenario, mgr)[0] for _, scenario, mgr in tasks]
    return (batch, tasks, [run_result_digest(r) for r in results],
            [r.total_energy_nj for r in results])


def digest_mismatches(workload: str, digests) -> int:
    """Replays whose digest differs from the committed expected digest."""
    expected = common.load_expected()[workload]["digests"]
    if len(digests) != len(expected):
        return len(expected)
    return sum(a != b for a, b in zip(digests, expected))


def run(workload: str, seed: int, seconds: float, trace: bool, log) -> dict:
    """One benchmark run of a replay workload; returns the result record."""
    ctx, batch, setup_times = setup(workload, seed)
    tasks = tasks_of(batch)
    replay(ctx, tasks[0][1], tasks[0][2])  # untimed warm-up
    if not trace:
        m = measure(ctx, tasks, passes_for(workload, seconds), YARDSTICK_EVERY[workload])
        t = throughput_metrics(m)
        ref_batch, ref_tasks, ref_digests, ref_energies = reference_pass(
            workload, seed, ctx, batch, tasks, m)
        failed = m["mismatches"] + digest_mismatches(workload, ref_digests)
        saving = energy_saving_pct(ctx, ref_batch, ref_tasks, ref_energies)
        log(
            f"{workload}: {m['replays']} replays in {len(m['passes'])} passes, "
            f"{m['elapsed_s']:.1f} s; raw {t['_raw_events_per_s']:.0f} events/s at host "
            f"speed {t['_host_speed']:.3f}; latency tail p{t['_tail_q']:.1f} over "
            f"{t['_samples']} samples; combined digest "
            f"{common.combined_digest(m['digests'])} (seed {seed})"
        )
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (common.peak_rss_mb_self(), "MB"),
            "events_per_s": (t["events_per_s"], "events/s"),
            "energy_saving_pct": (saving, "%"),
            "jobs_per_s": (t["jobs_per_s"], "jobs/s"),
            "latency_p50_ms": (t["latency_p50_ms"], "ms"),
            "latency_p95_ms": (t["latency_p95_ms"], "ms"),
        }
        return {"attempted": m["replays"], "failed": failed, "metrics": metrics}

    # Traced run: an untraced half, then a traced half of equal length.
    half = max(1, passes_for(workload, seconds) // 2)
    plain = measure(ctx, tasks, half, YARDSTICK_EVERY[workload])
    rec = spans.Recorder()
    t0 = time.perf_counter()
    from repro.experiments import runner

    rec.patch(runner, "get_context", spans.GET_CONTEXT)
    try:
        runner.get_context(tasks[0][1].workload.ncores, names=list(inputs.APPS))
        spans.install_replay_layers(rec)
        traced = measure(ctx, tasks, half, YARDSTICK_EVERY[workload], rec)
    finally:
        rec.unpatch()
    log(f"{workload}: traced {traced['replays']} replays in {time.perf_counter() - t0:.1f} s")
    out_dir = os.path.join(common.STATE_DIR, "spans")
    os.makedirs(out_dir, exist_ok=True)
    rec.write(os.path.join(out_dir, f"{workload}-seed{seed}.npz"))
    cols = rec.arrays()
    values = spans.replay_layer_values(*spans.layer_totals(cols, rec.names), rec.counts)
    values["trace.spans"] = float(len(cols["id"]))
    a, b = throughput_metrics(plain), throughput_metrics(traced)
    values["tracing.overhead_pct"] = 100.0 * (1.0 - b["events_per_s"] / a["events_per_s"])
    values["tracing.latency_p50_delta_ms"] = b["latency_p50_ms"] - a["latency_p50_ms"]
    failed = plain["mismatches"] + traced["mismatches"]
    failed += sum(x != y for x, y in zip(plain["digests"], traced["digests"]))
    failed += digest_mismatches(
        workload, reference_pass(workload, seed, ctx, batch, tasks, plain)[2])
    return {
        "attempted": plain["replays"] + traced["replays"],
        "failed": failed,
        "layers": values,
    }
