"""The svc-mixed workload: a closed loop of HTTP jobs against tools/serve.py.

The server runs as a subprocess with the thread executor, two workers and
the journal on.  One client connection drives it: each job is ``POST /jobs``
followed by ``GET /jobs/<id>/stream`` until the ``done`` event, and the
client sends its next job only after that.  Client and server are pinned to
one CPU (see ``pin_one_cpu``), and timings are scaled to the reference host
speed by slices of HTTP round trips to the benchmark's own echo server,
taken on that CPU between jobs (``EchoYardstick``).  Half the jobs
are warm (their results sit in the store copied from the prepared
template), half are cold (the server simulates, stores and journals them).
Every server start begins from a fresh copy of the same template.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import common
import inputs
import spans

SETUP_REPEATS = 5
WORKERS = 2
#: A yardstick slice runs before every n-th job of a loop (about every
#: 0.3 s), while the server is idle, so each stretch of jobs carries its own
#: measure of host speed.
YARDSTICK_EVERY = 25
START_TIMEOUT_S = 120.0
JOB_TIMEOUT_S = 60.0
#: Jobs per second on the reference host (2 vCPUs); ``--seconds`` is
#: turned into a job count with it, so both sides of a comparison serve
#: the same jobs.
NOMINAL_JOBS_PER_S = 80

#: Jobs whose answers the energy saving is computed over (400 pairs).
ENERGY_JOBS = 1600

#: Cold jobs replayed again in-process after a loop, to cross-check the
#: service's answers against the library.
COLD_CROSS_CHECKS = 6

RUN_DIR = os.path.join(common.STATE_DIR, "svc_run")


def pin_one_cpu() -> None:
    """Keep this process, and the server it starts, on one CPU.

    In a closed loop the client and the server hand every request back and
    forth.  Across two vCPUs of a shared virtual machine each hand-off is a
    cross-CPU wake-up whose cost varies with the host; on one CPU 10-s
    windows of the loop spread half as much, at the same jobs per second,
    and the yardstick measures the CPU the server runs on.  A second
    connection gave no more jobs per second: the server is bound by its
    interpreter.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# ---- the server -------------------------------------------------------------------
class Server:
    """One ``tools/serve.py`` subprocess serving a fresh copy of the template."""

    def __init__(self, traced: bool = False) -> None:
        if not os.path.exists(os.path.join(common.TEMPLATE_DIR, common.TEMPLATE_MANIFEST)):
            raise RuntimeError(
                "the svc-mixed warm-store template is missing; "
                "run `python3 perfbench/run.py --prepare` first"
            )
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        shutil.copytree(common.TEMPLATE_DIR, RUN_DIR,
                        ignore=shutil.ignore_patterns(common.TEMPLATE_MANIFEST))
        self.spans_path = os.path.join(RUN_DIR, "server-spans.npz") if traced else None
        script = (
            os.path.join(common.BENCH_DIR, "traced_serve.py")
            if traced
            else os.path.join(common.TOOLS_DIR, "serve.py")
        )
        cmd = [
            sys.executable, script,
            "--port", "0",
            "--workers", str(WORKERS),
            "--executor", "thread",
            "--ncores", str(inputs.SVC_NCORES),
            "--benchmarks", ",".join(inputs.APPS),
            "--cache-dir", RUN_DIR,
        ]
        if traced:
            cmd += ["--spans-out", self.spans_path]
        self.log_path = os.path.join(RUN_DIR, "serve.log")
        env = dict(os.environ)
        env.update(common.FIDELITY_ENV)
        t0 = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            self.host, self.port = self._wait_listening()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _wait_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("listening on http://"):
                        host, port = line.split("http://", 1)[1].strip().rsplit(":", 1)
                        return host, int(port)
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up:\n{self.log()}")
            time.sleep(0.005)
        raise RuntimeError("server never reported its address")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                status, body = request(self, "GET", "/healthz", timeout=5.0)
                if status == 200 and json.loads(body).get("status") == "healthy":
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("/healthz never reported healthy")

    def log(self) -> str:
        with open(self.log_path, encoding="utf-8") as fh:
            return fh.read()

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb_of(self.proc.pid)

    def metrics(self) -> dict:
        status, body = request(self, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return {
            line.split()[0].removeprefix("repro_service_"): float(line.split()[1])
            for line in body.decode().splitlines()
            if line and not line.startswith("#")
        }

    def stop(self) -> None:
        """Interrupt the server (it drains and closes) and wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def request(server: Server, method: str, path: str, body: dict | None = None,
            timeout: float = JOB_TIMEOUT_S) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


# ---- the client loop -------------------------------------------------------------
def run_job(server: Server, job: inputs.SvcJob) -> dict:
    """Submit one job and stream it to ``done``; every failure is recorded."""
    t0 = time.perf_counter()
    try:
        status, body = request(server, "POST", "/jobs", job.body)
        t1 = time.perf_counter()
        if status not in (200, 202):
            return {"ok": False, "error": f"POST /jobs answered {status}"}
        job_id = json.loads(body)["job_id"]
        status, body = request(server, "GET", f"/jobs/{job_id}/stream?timeout={JOB_TIMEOUT_S}")
        t2 = time.perf_counter()
        if status != 200:
            return {"ok": False, "error": f"stream answered {status}"}
        done = None
        for block in body.decode().split("\n\n"):
            if block.startswith("event: done\n"):
                done = json.loads(block.split("data: ", 1)[1])
        if done is None:
            return {"ok": False, "error": "stream ended without a done event"}
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return {
        "ok": True,
        "job_id": job_id,
        "result_hash": done["result_hash"],
        "samples": done["n_interval_samples"],
        "latency_s": t2 - t0,
        "submit_s": t1 - t0,
        "stream_s": t2 - t1,
    }


def jobs_for(seconds: float) -> int:
    """Jobs in a loop of about ``seconds`` on the reference host: a
    multiple of four (whole warm/cold blocks), at least SVC_MIN_JOBS."""
    return max(inputs.SVC_MIN_JOBS, 4 * round(seconds * NOMINAL_JOBS_PER_S / 4))


class EchoYardstick:
    """The svc-mixed host-speed measure: a fixed slice of HTTP round trips
    to the benchmark's own echo server (``echo_server.py``).

    The slice has the service loop's profile: a new connection per request,
    ``http.server`` parsing, JSON, and a hand-off between two processes on
    the pinned CPU.  It tracked the loop's speed better than the replay's
    numpy yardstick did: over ten seeds, scaled ``jobs_per_s`` spread 3.2%
    against 7.5%, and 10.3% unscaled.
    """

    ROUND_TRIPS = 8
    #: Seconds one slice is taken to last on the reference host.
    REF_S = 0.007
    BODY = json.dumps(inputs.svc_body("S1", 0, "rm2")).encode()

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(common.BENCH_DIR, "echo_server.py")],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            self.port = int(self.proc.stdout.readline())
            self.slice_s()  # untimed warm-up
        except BaseException:
            self.stop()
            raise

    def slice_s(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.ROUND_TRIPS):
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_TIMEOUT_S)
            try:
                conn.request("POST", "/", body=self.BODY,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                if resp.status != 200:
                    raise RuntimeError(f"echo server answered {resp.status}")
                resp.read()
            finally:
                conn.close()
        return time.perf_counter() - t0

    def speed(self) -> float:
        """Host speed now: the reference slice time over this slice's."""
        return self.REF_S / self.slice_s()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def loop(server: Server, jobs: list, yard: EchoYardstick) -> list:
    """Closed loop over one connection: each job in list order is sent
    when the previous one is done.

    Every result records ``wall_s``, the job's share of the loop's wall
    time, and ``host_speed``, measured by the yardstick slice taken before
    its stretch of jobs (the slices themselves are untimed).
    """
    results = []
    for i, job in enumerate(jobs):
        if i % YARDSTICK_EVERY == 0:
            speed = yard.speed()
        t0 = time.perf_counter()
        res = run_job(server, job)
        res["wall_s"] = time.perf_counter() - t0
        res["host_speed"] = speed
        results.append(res)
    return results


# ---- checks ------------------------------------------------------------------------
def check(server: Server, jobs, results, before: dict, seed: int, manifest: dict, log) -> int:
    """Count failed operations: transport errors and wrong answers.

    Warm answers must carry the template's digest; a seeded sample of cold
    answers must equal an in-process library replay; at the default seed
    the first jobs' combined digest must equal the committed one; and the
    server's own counters must show exactly the designed warm/cold split.
    """
    failed = 0
    for job, res in zip(jobs, results):
        if not res["ok"]:
            failed += 1
            log(f"svc-mixed: failed job: {res['error']}")
        elif job.warm != (res["job_id"] in manifest):
            failed += 1
            log(f"svc-mixed: job {res['job_id']} is not of its designed class")
        elif job.warm and manifest[res["job_id"]] != res["result_hash"]:
            failed += 1
            log(f"svc-mixed: warm job {res['job_id']} digest differs from the template")
    failed += cross_check_cold(jobs, results, seed, log)
    if seed == common.DEFAULT_SEED and all(r["ok"] for r in results[: inputs.SVC_MIN_JOBS]):
        expected = common.load_expected()["svc-mixed"]["first_jobs_digest"]
        got = common.combined_digest(r["result_hash"] for r in results[: inputs.SVC_MIN_JOBS])
        if got != expected:
            failed += 1
            log(f"svc-mixed: first-jobs digest {got} != committed {expected}")
    after = server.metrics()
    cold = sum(not j.warm for j in jobs)
    warm = len(jobs) - cold
    for counter, want in (("simulations", cold), ("store_hits", warm),
                          ("jobs_failed", 0), ("jobs_rejected", 0), ("jobs_deduped", 0)):
        got = after[counter] - before[counter]
        if got != want:
            failed += 1
            log(f"svc-mixed: /metrics {counter} moved by {got:g}, designed {want}")
    return failed


def cross_check_cold(jobs, results, seed: int, log) -> int:
    """Replay a seeded sample of cold jobs in-process and compare."""
    from repro.experiments.runner import get_context
    from repro.service.jobs import build_item, job_key, job_spec_from_json
    from repro.simulation.metrics import run_result_digest
    from repro.simulation.rma_sim import simulate_scenario

    cold = [(j, r) for j, r in zip(jobs, results) if not j.warm and r["ok"]]
    sample = random.Random(common.derive_seed("svc-cross-check", seed)).sample(
        cold, min(COLD_CROSS_CHECKS, len(cold))
    )
    ctx = get_context(inputs.SVC_NCORES, names=list(inputs.APPS))
    failed = 0
    for job, res in sample:
        spec = job_spec_from_json(job.body)
        item = build_item(spec, ctx.db.benchmarks())
        run = simulate_scenario(ctx.system, ctx.db, item, spec.manager.build(),
                                max_slices=ctx.max_slices)
        if job_key(spec, ctx) != res["job_id"] or run_result_digest(run) != res["result_hash"]:
            failed += 1
            log(f"svc-mixed: cold job {res['job_id']} differs from the library replay")
    return failed


def energy_saving_pct(server: Server, jobs, results) -> float:
    """Energy saved by RM2 against the baseline over the first
    ``ENERGY_JOBS`` jobs (whole pairs).

    Read from ``GET /jobs/<id>/result`` after the loop (untimed); the
    prefix is fixed, so the value repeats exactly for a seed.
    """

    def fetch(pair):
        job, res = pair
        status, body = request(server, "GET", f"/jobs/{res['job_id']}/result")
        if status != 200:
            raise RuntimeError(f"/result answered {status}")
        return (job.pair, job.manager), json.loads(body)["total_energy_nj"]

    energy = dict(map(fetch, list(zip(jobs, results))[:ENERGY_JOBS]))
    pairs = {p for p, _ in energy}
    base = sum(energy[(p, "baseline")] for p in pairs)
    rm2 = sum(energy[(p, "rm2")] for p in pairs)
    return 100.0 * (1.0 - rm2 / base)


def latency_metrics(results) -> dict:
    """Loop metrics at the reference host speed: every job's wall time and
    latency are scaled by the host speed measured before it."""
    ok = [r for r in results if r["ok"]]
    ref_s = sum(r["wall_s"] * r["host_speed"] for r in results)
    lat = [r["latency_s"] * r["host_speed"] * 1e3 for r in ok]
    tail_q = common.tail_percentile(len(lat))
    return {
        "jobs_per_s": len(ok) / ref_s,
        "events_per_s": sum(r["samples"] for r in ok) / ref_s,
        "latency_p50_ms": common.percentile(lat, 50),
        "latency_p95_ms": common.percentile(lat, tail_q),
        "_raw_jobs_per_s": len(ok) / sum(r["wall_s"] for r in results),
        "_host_speed": statistics.median(r["host_speed"] for r in results),
        "_tail_q": tail_q,
        "_samples": len(lat),
    }


def load_manifest() -> dict:
    with open(os.path.join(common.TEMPLATE_DIR, common.TEMPLATE_MANIFEST), encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def warm_up(server: Server, seed: int) -> None:
    for job in inputs.warmup_jobs(seed):
        res = run_job(server, job)
        if not res["ok"]:
            raise RuntimeError(f"warm-up job failed: {res['error']}")


# ---- runs --------------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, log) -> dict:
    pin_one_cpu()
    yard = EchoYardstick()
    try:
        return _run(seed, seconds, trace, log, yard)
    finally:
        yard.stop()


def _run(seed: int, seconds: float, trace: bool, log, yard: EchoYardstick) -> dict:
    manifest = load_manifest()
    jobs = inputs.svc_jobs(seed)
    setup_times = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        speed = yard.speed()
        server = Server()
        setup_times.append(server.setup_s * speed)
    try:
        warm_up(server, seed)
        before = server.metrics()
        n_jobs = jobs_for(seconds / 2 if trace else seconds)
        results = loop(server, jobs[:n_jobs], yard)
        taken = jobs[: len(results)]
        failed = check(server, taken, results, before, seed, manifest, log)
        plain = latency_metrics(results)
        if not trace:
            saving = energy_saving_pct(server, taken, results)
            rss = server.peak_rss_mb()
    finally:
        server.stop()
    log(
        f"svc-mixed: {len(results)} jobs ({sum(not j.warm for j in taken)} cold) in "
        f"{sum(r['wall_s'] for r in results):.1f} s; raw {plain['_raw_jobs_per_s']:.1f} jobs/s "
        f"at host speed {plain['_host_speed']:.3f}; latency tail p{plain['_tail_q']:.1f} over {plain['_samples']} "
        f"samples; combined digest "
        f"{common.combined_digest(r.get('result_hash', '') for r in results)} (seed {seed})"
    )
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss, "MB"),
            "events_per_s": (plain["events_per_s"], "events/s"),
            "energy_saving_pct": (saving, "%"),
            "jobs_per_s": (plain["jobs_per_s"], "jobs/s"),
            "latency_p50_ms": (plain["latency_p50_ms"], "ms"),
            "latency_p95_ms": (plain["latency_p95_ms"], "ms"),
        }
        return {"attempted": len(results), "failed": failed, "metrics": metrics}

    # Traced half: the same job list against a server started by the
    # span-recording launcher, from the same store state.
    server = Server(traced=True)
    try:
        warm_up(server, seed)
        before = server.metrics()
        t_results = loop(server, jobs[:n_jobs], yard)
        t_taken = jobs[: len(t_results)]
        failed += check(server, t_taken, t_results, before, seed, manifest, log)
    finally:
        server.stop()
    traced = latency_metrics(t_results)
    values = server_layers(server.spans_path, len(t_results) + len(inputs.warmup_jobs(seed)))
    ok = [(j, r) for j, r in zip(taken, results) if r["ok"]]
    values["api.submit_ms"] = 1e3 * sum(r["submit_s"] for _, r in ok) / len(ok)
    values["api.stream_ms"] = 1e3 * sum(r["stream_s"] for _, r in ok) / len(ok)
    for cls, warm in (("warm", True), ("cold", False)):
        lat = [r["latency_s"] * r["host_speed"] * 1e3 for j, r in ok if j.warm == warm]
        values[f"svc.{cls}.latency_p50_ms"] = common.percentile(lat, 50)
    values["tracing.overhead_pct"] = 100.0 * (1.0 - traced["jobs_per_s"] / plain["jobs_per_s"])
    values["tracing.latency_p50_delta_ms"] = traced["latency_p50_ms"] - plain["latency_p50_ms"]
    return {"attempted": len(results) + len(t_results), "failed": failed, "layers": values}


def server_layers(path: str, jobs: int) -> dict:
    """Service-layer metrics from the traced server's span file."""
    cols, meta = spans.load(path)
    counts, samples = meta["counts"], meta["samples"]
    self_s, total_s, calls = spans.layer_totals(cols, meta["names"])
    values = spans.replay_layer_values(self_s, total_s, calls, counts)
    submits = max(1.0, counts.get("pool.submits", 0.0))

    def mean_ms(name):
        return 1e3 * total_s.get(name, 0.0) / max(1, calls.get(name, 0))

    waits = [w * 1e3 for w in samples.get("pool.queue_wait_s", [])] or [0.0]
    values.update({
        "jobs.parse_key_ms": 1e3 * (total_s.get(spans.PARSE, 0.0) + total_s.get(spans.KEY, 0.0))
        / submits,
        "pool.queue_wait_p50_ms": common.percentile(waits, 50),
        "pool.queue_wait_p95_ms": common.percentile(waits, common.tail_percentile(len(waits))),
        "pool.dedup_ratio": counts.get("pool.deduped", 0.0) / submits,
        "results_store.get_ms": mean_ms(spans.STORE_GET),
        "results_store.hit_ratio": counts.get("results_store.hits", 0.0)
        / max(1, calls.get(spans.STORE_GET, 0)),
        "results_store.put_ms": mean_ms(spans.STORE_PUT),
        "results_store.puts": float(calls.get(spans.STORE_PUT, 0)),
        "journal.append_ms": mean_ms(spans.JOURNAL),
        "journal.appends_per_job": calls.get(spans.JOURNAL, 0) / max(1, jobs),
        "journal.s_per_job": total_s.get(spans.JOURNAL, 0.0) / max(1, jobs),
        "executor.runs": float(calls.get(spans.EXECUTOR, 0)),
        "executor.run_ms": mean_ms(spans.EXECUTOR),
        "trace.spans": float(len(cols["id"])),
    })
    return values
