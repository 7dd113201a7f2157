"""Seeded inputs of the three workloads.

Everything the measured program receives is made here from the workload
seed: the scenario batches of the two replay workloads and the job list of
the service workload.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from common import derive_seed

#: The seven-application database subset the tier-1 tests and bench tools
#: share (tools/_bench_common.BENCHMARK_SUBSET), repeated here so the job
#: list can be built without importing the repository.
APPS = (
    "mcf_like",
    "soplex_like",
    "libquantum_like",
    "lbm_like",
    "astar_like",
    "povray_like",
    "namd_like",
)

SHAPES = ("S1", "S2", "S3", "S4")

#: Generator parameters per shape (S1 poisson_arrivals, S2 qos_ramp,
#: S3 churn, S4 burst_load); the horizon and seed are added per use.
SHAPE_PARAMS = {
    "S1": {"rate_per_interval": 0.25},
    "S2": {"start_slack": 0.4, "end_slack": 0.0, "steps": 4},
    "S3": {"cycles": 8, "idle_intervals": 1.5},
    "S4": {},
}

# ---- replay workloads ---------------------------------------------------------
#: replay-8core: every shape, this many scenario seeds, under RM1/RM2/RM3.
R8_NCORES = 8
R8_HORIZON = 256
R8_SEEDS_PER_SHAPE = 6
R8_MANAGERS = ("RM1", "RM2", "RM3")

#: replay-128core: S7 cluster churn with idle gaps under RM2-clustered.
R128_NCORES = 128
R128_HORIZON = 512
R128_CLUSTER = 8
R128_SCENARIOS = 6
R128_MANAGERS = ("RM2-c8",)


@dataclass(frozen=True)
class ReplayCase:
    """One scenario of a replay batch; every manager in ``managers`` runs it."""

    shape: str
    name: str
    ncores: int
    params: tuple  # sorted (key, value) pairs, horizon and seed included
    managers: tuple[str, ...]


def _case(shape, name, ncores, params, managers) -> ReplayCase:
    return ReplayCase(shape, name, ncores, tuple(sorted(params.items())), managers)


def replay_batch(workload: str, seed: int) -> list[ReplayCase]:
    """The fixed batch one replay workload replays, pass after pass."""
    if workload == "replay-8core":
        return [
            _case(
                shape,
                f"pb8-{shape.lower()}-{k}",
                R8_NCORES,
                {
                    **SHAPE_PARAMS[shape],
                    "horizon_intervals": R8_HORIZON,
                    "seed": derive_seed(workload, seed, shape, k),
                },
                R8_MANAGERS,
            )
            for shape in SHAPES
            for k in range(R8_SEEDS_PER_SHAPE)
        ]
    if workload == "replay-128core":
        return [
            _case(
                "S7",
                f"pb128-s7-{k}",
                R128_NCORES,
                {
                    "cluster_size": R128_CLUSTER,
                    "cycles": R128_NCORES // 8,
                    "idle_intervals": 1.5,
                    "horizon_intervals": R128_HORIZON,
                    "seed": derive_seed(workload, seed, k),
                },
                R128_MANAGERS,
            )
            for k in range(R128_SCENARIOS)
        ]
    raise ValueError(f"not a replay workload: {workload!r}")


def build_scenario(case: ReplayCase, apps):
    """Materialise one case with the library's scenario generators."""
    from repro.service.jobs import SCENARIO_SHAPES

    return SCENARIO_SHAPES[case.shape](case.name, case.ncores, list(apps), **dict(case.params))


def manager_spec(label: str):
    """The runner's :class:`ManagerSpec` for a manager label."""
    from repro.experiments import runner

    specs = {
        "RM1": runner.RM1,
        "RM2": runner.RM2,
        "RM3": runner.RM3,
        "RM2-c8": runner.rm2_clustered(R128_CLUSTER),
        "baseline": runner.BASELINE,
    }
    return specs[label]


# ---- svc-mixed ----------------------------------------------------------------
SVC_NCORES = 4
SVC_HORIZON = 48
#: Scenario seeds per shape whose jobs the prepare step stores in the warm
#: template; a run draws its warm pairs from these without repetition.
WARM_SEEDS = 240
#: One more template pair, used only by the untimed warm-up before a loop.
WARMUP_WARM = ("S1", WARM_SEEDS)
#: Cold scenario seeds start here, far from every template seed.
COLD_SEED_BASE = 1_000_000
#: A timed loop runs at least this many jobs.
SVC_MIN_JOBS = 400

_MANAGERS_JSON = {
    "rm2": {"kind": "coordinated", "name": "rm2-combined"},
    "baseline": {"kind": "baseline", "name": "baseline"},
}


@dataclass(frozen=True)
class SvcJob:
    """One service request and the class the workload designed it to be."""

    body: dict
    warm: bool
    pair: int  # jobs of one scenario under RM2 and baseline share a pair id
    manager: str  # "rm2" or "baseline"


def svc_body(shape: str, scenario_seed: int, manager: str) -> dict:
    """The POST /jobs body of one 4-core service-smoke-scale job."""
    return {
        "shape": shape,
        "ncores": SVC_NCORES,
        "name": f"pb-{shape.lower()}-{scenario_seed}",
        "params": {**SHAPE_PARAMS[shape], "horizon_intervals": SVC_HORIZON, "seed": scenario_seed},
        "manager": dict(_MANAGERS_JSON[manager]),
    }


def template_pairs() -> list[tuple[str, int]]:
    """Every (shape, scenario seed) the warm template holds, warm-up included."""
    return [(shape, s) for shape in SHAPES for s in range(WARM_SEEDS)] + [WARMUP_WARM]


def svc_jobs(seed: int) -> list[SvcJob]:
    """The seeded job list of one svc-mixed run (a loop takes a prefix).

    The list is made of blocks of four jobs: one warm pair (a template
    scenario) and one cold pair (a scenario no store holds), in a seeded
    order.  A pair is one scenario under RM2 and under the static baseline,
    adjacent in the list, so any prefix whose length is a multiple of four
    is exactly half warm and made of whole pairs.
    """
    rng = random.Random(derive_seed("svc-mixed", seed))
    warm = [(shape, s) for shape in SHAPES for s in range(WARM_SEEDS)]
    rng.shuffle(warm)
    jobs: list[SvcJob] = []
    pair = 0
    for block, (w_shape, w_seed) in enumerate(warm):
        c_shape = SHAPES[rng.randrange(len(SHAPES))]
        c_seed = COLD_SEED_BASE + derive_seed("svc-mixed", seed, block) % 1_000_000_000
        pairs = [(w_shape, w_seed, True), (c_shape, c_seed, False)]
        rng.shuffle(pairs)
        for shape, scenario_seed, is_warm in pairs:
            managers = ["rm2", "baseline"]
            rng.shuffle(managers)
            for manager in managers:
                jobs.append(SvcJob(svc_body(shape, scenario_seed, manager), is_warm, pair, manager))
            pair += 1
    return jobs


def warmup_jobs(seed: int) -> list[SvcJob]:
    """Untimed jobs that warm the server's code paths before a loop."""
    cold_seed = COLD_SEED_BASE - 1 - derive_seed("svc-warmup", seed) % 1000
    out = []
    for pair, (shape, scenario_seed, is_warm) in enumerate(
        [(*WARMUP_WARM, True), ("S2", cold_seed, False)]
    ):
        for manager in ("rm2", "baseline"):
            out.append(SvcJob(svc_body(shape, scenario_seed, manager), is_warm, -1 - pair, manager))
    return out
