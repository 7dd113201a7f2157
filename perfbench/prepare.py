"""One-time set-up, outside every timed run.

* builds the simulation databases the workloads load (4, 8 and 128 cores at
  the pinned fidelity) where they are missing -- about 35 s for 128 cores
  on a 2-core host;
* fills the svc-mixed warm-store template: every template job simulated
  once and put into a results store, with a manifest of job id -> result
  digest, checked against the committed template digest;
* records what it did in ``prepared.json``.

The measuring code never builds anything: it fails with a message naming
this step when the prepared state is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import common
import inputs
import replay

NCORES = (inputs.SVC_NCORES, inputs.R8_NCORES, inputs.R128_NCORES)


def is_prepared() -> bool:
    if not os.path.exists(common.PREPARED_PATH):
        return False
    with open(common.PREPARED_PATH, encoding="utf-8") as fh:
        state = json.load(fh)
    return (
        state.get("fidelity") == common.FIDELITY_ENV
        and all(os.path.exists(replay.database_path(n)) for n in NCORES)
        and os.path.exists(os.path.join(common.TEMPLATE_DIR, common.TEMPLATE_MANIFEST))
    )


def template_jobs() -> list[dict]:
    """Every job body the warm template holds, in manifest order."""
    return [
        inputs.svc_body(shape, seed, manager)
        for shape, seed in inputs.template_pairs()
        for manager in ("rm2", "baseline")
    ]


def build_template(log) -> str:
    """Simulate every template job into a fresh results store; return the
    combined digest of the template in job order."""
    from repro.experiments.runner import get_context
    from repro.service.jobs import build_item, job_key, job_spec_from_json
    from repro.simulation.metrics import run_result_digest
    from repro.simulation.rma_sim import simulate_scenario

    tmp = common.TEMPLATE_DIR + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    db_path = replay.database_path(inputs.SVC_NCORES)
    shutil.copy2(db_path, os.path.join(tmp, os.path.basename(db_path)))
    ctx = get_context(inputs.SVC_NCORES, cache_dir=tmp, names=list(inputs.APPS))
    digests = {}
    for body in template_jobs():
        spec = job_spec_from_json(body)
        key = job_key(spec, ctx)
        item = build_item(spec, ctx.db.benchmarks())
        run = simulate_scenario(ctx.system, ctx.db, item, spec.manager.build(),
                                max_slices=ctx.max_slices)
        ctx.results_store.put(key, run)
        digests[key] = run_result_digest(run)
    combined = common.combined_digest(digests.values())
    with open(os.path.join(tmp, common.TEMPLATE_MANIFEST), "w", encoding="utf-8") as fh:
        json.dump({"template_digest": combined, "digests": digests}, fh)
    shutil.rmtree(common.TEMPLATE_DIR, ignore_errors=True)
    os.replace(tmp, common.TEMPLATE_DIR)
    log(f"prepare: warm template holds {len(digests)} jobs (digest {combined})")
    return combined


def run(log, check_expected: bool = True) -> None:
    """Do every one-time step and log its seconds (never a metric)."""
    from repro.experiments.runner import get_context

    t0 = time.perf_counter()
    os.makedirs(common.STATE_DIR, exist_ok=True)
    for n in NCORES:
        if not os.path.exists(replay.database_path(n)):
            log(f"prepare: building the {n}-core simulation database (one time)")
        get_context(n, names=list(inputs.APPS))
    combined = build_template(log)
    if check_expected:
        want = common.load_expected()["svc-mixed"]["template_digest"]
        if combined != want:
            raise RuntimeError(
                f"warm template digest {combined} differs from the committed {want}: "
                "the library's replay results changed"
            )
    seconds = time.perf_counter() - t0
    with open(common.PREPARED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"fidelity": common.FIDELITY_ENV, "prepare_s": seconds}, fh)
    log(f"prepare: done in {seconds:.1f} s")
