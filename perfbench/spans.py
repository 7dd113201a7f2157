"""In-memory span recording around the library's public calls.

A :class:`Recorder` wraps public functions and methods of the measured
layers.  Each call becomes one span: an id, a layer name, start and end
(``time.perf_counter``), the id of the span open on the same thread when it
started (its parent) and a trace id shared by every span of one replay or
job.  Spans are kept in compact per-thread arrays and written out once, when
the run ends.

Self time is a span's duration minus the part of it that its children
cover; children that overlap each other (threads) are counted once.  The
layer metrics are aggregates of self times and of counts recorded at the
same boundaries.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

# Layer names, one per wrapped public call.
ENGINE_RUN = "engine.run"
SCHEDULER = "engine.scheduler"
ADVANCE = "engine.advance"
TENANCY = "engine.tenancy"
DECIDE = "managers.decide"
CURVES = "managers.curves"
GO_REFRESH = "global_opt.refresh"
GO_SOLVE = "global_opt.solve"
PT_REFRESH = "packed_tree.refresh"
PT_SOLVE = "packed_tree.solve"
GET_CONTEXT = "runner.get_context"
SUBMIT = "pool.submit_info"
PARSE = "jobs.parse"
KEY = "jobs.key"
STORE_GET = "results_store.get"
STORE_PUT = "results_store.put"
JOURNAL = "journal.append"
EXECUTOR = "executor.run"

#: The layers whose self times partition a replay's ``engine.run`` span.
REPLAY_LAYERS = (
    ENGINE_RUN, SCHEDULER, ADVANCE, TENANCY, DECIDE, CURVES,
    GO_REFRESH, GO_SOLVE, PT_REFRESH, PT_SOLVE,
)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.registered = False
        self.times = array("d")  # start, end per span
        self.ints = array("q")  # id, name, parent, trace per span
        self.stack: list[int] = []
        self.trace = 0


class Recorder:
    """Collects spans and counts from every thread of one process."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._state = _ThreadState()
        self._buffers: list[tuple[array, array]] = []
        self.names: list[str] = []
        self._trace_ids: dict[object, int] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    # ---- recording ----------------------------------------------------------
    def _thread(self) -> _ThreadState:
        st = self._state
        if not st.registered:
            st.registered = True
            with self._lock:
                self._buffers.append((st.times, st.ints))
        return st

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self.names:
                self.names.append(name)
            return self.names.index(name)

    def set_trace(self, key) -> None:
        """Spans this thread opens from now on belong to trace ``key``."""
        with self._lock:
            tid = self._trace_ids.setdefault(key, len(self._trace_ids) + 1)
        self._thread().trace = tid

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def wrap(self, fn, name: str, after=None):
        """``fn`` recording one span per call; ``after(result, args)`` may
        record counts once the call has returned."""
        ni = self._name_id(name)
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._thread()
            sid = next(ids)
            stack = st.stack
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st.times.extend((t0, t1))
                st.ints.extend((sid, ni, parent, st.trace))
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with its traced form (undone by :meth:`unpatch`)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- output -------------------------------------------------------------
    def arrays(self) -> dict:
        """All spans as columns: ``id, name, parent, trace, start, end``."""
        with self._lock:
            buffers = list(self._buffers)
        times = np.concatenate(
            [np.frombuffer(t, dtype=np.float64) for t, _ in buffers] or [np.empty(0)]
        ).reshape(-1, 2)
        ints = np.concatenate(
            [np.frombuffer(i, dtype=np.int64) for _, i in buffers] or [np.empty(0, np.int64)]
        ).reshape(-1, 4)
        return {
            "id": ints[:, 0].copy(),
            "name": ints[:, 1].copy(),
            "parent": ints[:, 2].copy(),
            "trace": ints[:, 3].copy(),
            "start": times[:, 0].copy(),
            "end": times[:, 1].copy(),
        }

    def write(self, path: str) -> None:
        """Write every span, the layer names and the counts to ``path`` (.npz)."""
        cols = self.arrays()
        meta = {"names": self.names, "counts": dict(self.counts), "samples": dict(self.samples)}
        np.savez_compressed(path, meta=np.array(json.dumps(meta)), **cols)


def load(path: str) -> tuple[dict, dict]:
    """Read a span file back: ``(columns, meta)``."""
    with np.load(path) as data:
        cols = {k: data[k] for k in data.files if k != "meta"}
        meta = json.loads(str(data["meta"]))
    return cols, meta


# ---- self time ------------------------------------------------------------------
def self_times(ids, parents, starts, ends) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children (spans opened by other threads under one parent, or spans
    recorded out of order) are merged before subtracting, so no instant is
    taken away twice.
    """
    ids = [int(x) for x in ids]
    starts = [float(x) for x in starts]
    ends = [float(x) for x in ends]
    out = [e - s for s, e in zip(starts, ends)]
    index = {sid: i for i, sid in enumerate(ids)}
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        pi = index.get(int(p)) if p else None
        if pi is not None:
            children[pi].append(i)
    for pi, kids in children.items():
        lo, hi = starts[pi], ends[pi]
        intervals = sorted(
            (max(lo, starts[k]), min(hi, ends[k])) for k in kids if ends[k] > lo and starts[k] < hi
        )
        covered = 0.0
        cur_s, cur_e = intervals[0] if intervals else (0.0, 0.0)
        for s, e in intervals[1:]:
            if s > cur_e:
                covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        out[pi] -= covered + (cur_e - cur_s)
    return np.array(out)


def layer_totals(cols: dict, names: list[str]) -> tuple[dict, dict, dict]:
    """Per layer: total self seconds, total seconds and call count."""
    selfs = self_times(cols["id"], cols["parent"], cols["start"], cols["end"])
    durations = cols["end"] - cols["start"]
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for ni, name in enumerate(names):
        mask = cols["name"] == ni
        if mask.any():
            self_s[name] = float(selfs[mask].sum())
            total_s[name] = float(durations[mask].sum())
            calls[name] = int(mask.sum())
    return self_s, total_s, calls


def replay_layer_values(self_s, total_s, calls, counts) -> dict:
    """Replay-layer values per ``engine.run`` span, plus the mean context
    load; the ``_s`` self times sum to ``engine.run_s``."""
    per = 1.0 / max(1, calls.get(ENGINE_RUN, 0))
    decide_calls = calls.get(DECIDE, 0)
    curves_calls = calls.get(CURVES, 0)
    out = {
        "engine.run_s": total_s.get(ENGINE_RUN, 0.0) * per,
        "engine.self_s": self_s.get(ENGINE_RUN, 0.0) * per,
        "engine.events": counts.get("engine.events", 0.0) * per,
        "engine.scheduler_s": self_s.get(SCHEDULER, 0.0) * per,
        "engine.advance_s": self_s.get(ADVANCE, 0.0) * per,
        "engine.tenancy_s": self_s.get(TENANCY, 0.0) * per,
        "managers.decide_calls": decide_calls * per,
        "managers.decide_self_s": self_s.get(DECIDE, 0.0) * per,
        "managers.cached_decision_ratio": counts.get("managers.cached", 0.0) / max(1, decide_calls),
        "managers.curves_calls": curves_calls * per,
        "managers.curves_s": self_s.get(CURVES, 0.0) * per,
        "managers.curves_cores_per_call": counts.get("managers.curve_cores", 0.0)
        / max(1, curves_calls),
        "global_opt.calls": (calls.get(GO_REFRESH, 0) + calls.get(GO_SOLVE, 0)) * per,
        "global_opt.refresh_s": self_s.get(GO_REFRESH, 0.0) * per,
        "global_opt.solve_s": self_s.get(GO_SOLVE, 0.0) * per,
        "packed_tree.calls": (calls.get(PT_REFRESH, 0) + calls.get(PT_SOLVE, 0)) * per,
        "packed_tree.refresh_s": self_s.get(PT_REFRESH, 0.0) * per,
        "packed_tree.solve_s": self_s.get(PT_SOLVE, 0.0) * per,
        "overhead_meter.instr_per_invocation": counts.get("overhead_meter.instructions", 0.0)
        / max(1.0, counts.get("overhead_meter.invocations", 0.0)),
    }
    parts = sum(self_s.get(name, 0.0) for name in REPLAY_LAYERS) * per
    out["trace.self_residual_s"] = out["engine.run_s"] - parts
    out["runner.get_context_s"] = total_s.get(GET_CONTEXT, 0.0) / max(1, calls.get(GET_CONTEXT, 0))
    return out


# ---- the wrappers ------------------------------------------------------------------
def install_replay_layers(rec: Recorder) -> None:
    """Wrap the replay path: kernel, scheduler, core advance, tenancy, the
    manager's curve refresh and both reduction structures.  The decision
    itself is wrapped per manager instance (:func:`trace_manager`)."""
    from repro.core import global_opt, managers, packed_tree
    from repro.simulation.engine import core_state, kernel, scheduler, tenancy

    def after_run(result, args):
        sim = args[0]
        rec.count("engine.events", sim.events_simulated)
        rec.count("overhead_meter.instructions", result.rma_instructions)
        rec.count("overhead_meter.invocations", result.rma_invocations)

    rec.patch(kernel.SimulationKernel, "run", ENGINE_RUN, after_run)
    rec.patch(scheduler.CompletionScheduler, "next_completion", SCHEDULER)
    rec.patch(scheduler.CompletionScheduler, "next_completion_scalar", SCHEDULER)
    rec.patch(core_state.CoreArrays, "advance_all", ADVANCE)
    # The kernel calls advance_core through its own module global.
    rec.patch(kernel, "advance_core", ADVANCE)
    rec.patch(tenancy.TenancyModel, "apply_due", TENANCY)
    # The coordinated and clustered managers build curves in the shared
    # invocation prologue: the invoking core's curve (memoised), or every
    # active core's oracle curve, which it returns.
    rec.patch(managers.CoordinatedManager, "_begin_decision", CURVES,
              lambda result, args: rec.count("managers.curve_cores",
                                             1 if result is None else len(result)))
    rec.patch(global_opt.ReductionTree, "refresh", GO_REFRESH)
    rec.patch(global_opt.ReductionTree, "solve", GO_SOLVE)
    rec.patch(packed_tree.PackedReduction, "refresh", PT_REFRESH)
    rec.patch(packed_tree.PackedReduction, "solve", PT_SOLVE)


def trace_manager(rec: Recorder, manager):
    """Wrap one manager instance's ``on_interval`` (the RMA decision).

    A decision counts as cached when the manager returns ``None`` or the
    very map object it returned last time (the kernel skips applying it).
    """
    last = [object()]

    def after(result, args):
        if result is None or result is last[0]:
            rec.count("managers.cached")
        last[0] = result

    manager.on_interval = rec.wrap(manager.on_interval, DECIDE, after)
    return manager


def install_service_layers(rec: Recorder, serve_module) -> None:
    """Wrap the service path inside the server process: submit, parse and
    key, the results store, the journal, the executor and context loads.
    Replay layers are wrapped too, so cold simulations are broken down."""
    from repro.service import executor, journal, pool
    from repro.simulation import results_store

    install_replay_layers(rec)
    submitted: dict[str, float] = {}
    waited: set[str] = set()
    lock = threading.Lock()

    def after_submit(result, args):
        job, deduped = result
        rec.count("pool.submits")
        if deduped:
            rec.count("pool.deduped")
            return
        with lock:
            submitted[job.job_id] = time.perf_counter()

    def first_touch(job_id: str) -> None:
        now = time.perf_counter()
        with lock:
            if job_id in waited or job_id not in submitted:
                return
            waited.add(job_id)
            t_sub = submitted.pop(job_id)
        rec.sample("pool.queue_wait_s", now - t_sub)

    def traced_store_get(original):
        wrapped = rec.wrap(original, STORE_GET,
                           lambda result, args: rec.count("results_store.hits", result is not None))

        @functools.wraps(original)
        def get(self, key):
            first_touch(key)
            rec.set_trace(key)
            return wrapped(self, key)

        return get

    def traced_executor_run(original):
        wrapped = rec.wrap(original, EXECUTOR)

        @functools.wraps(original)
        def run(self, ctx, job_id, item, manager):
            first_touch(job_id)
            rec.set_trace(job_id)
            return wrapped(self, ctx, job_id, item, manager)

        return run

    rec.patch(pool.ReplayService, "submit_info", SUBMIT, after_submit)
    rec.patch(pool, "job_spec_from_json", PARSE)
    rec.patch(pool, "job_key", KEY)
    for cls, attr, make in (
        (results_store.ResultsStore, "get", traced_store_get),
        (executor.ThreadExecutor, "run", traced_executor_run),
    ):
        original = cls.__dict__[attr]
        rec._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))
    rec.patch(results_store.ResultsStore, "put", STORE_PUT)
    rec.patch(journal.JobJournal, "append", JOURNAL)
    rec.patch(serve_module, "get_context", GET_CONTEXT)

    # Every coordinated manager the service builds is traced as it is
    # constructed (the static baseline decides nothing).
    from repro.experiments.runner import ManagerSpec

    build = ManagerSpec.build
    rec._undo.append((ManagerSpec, "build", build))
    ManagerSpec.build = lambda self: (
        build(self) if self.kind == "baseline" else trace_manager(rec, build(self))
    )
