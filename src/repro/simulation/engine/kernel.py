"""The simulation kernel: the event loop over the layered components.

One iteration = one global event = the earliest completion of a
100 M-instruction interval on any core:

1. the :class:`~repro.simulation.engine.scheduler.CompletionScheduler`
   names the completing core and the span ``dt`` (cached, incrementally
   invalidated -- no database lookups for unchanged cores);
2. every other core advances by ``dt`` (stall served first, then
   instructions retire and charge energy at the cached rates);
3. the completing core retires its interval's remaining instructions
   exactly, records its counter snapshot and interval sample, and moves to
   the next phase slice;
4. due scenario requests are applied at this boundary by the
   :class:`~repro.simulation.engine.tenancy.TenancyModel`;
5. unless this boundary changed the completing core's tenancy (the
   completed statistics would describe a departed app), the resource
   manager is invoked through the
   :class:`~repro.simulation.engine.bridge.ManagerBridge` and any new
   system-wide setting is applied with transition overheads.

Accounting is bit-identical to :mod:`repro.simulation.legacy_sim`, the
frozen pre-refactor reference; the golden equivalence suite enforces it.

Many-core notes: the per-event hot path is vectorised over the
struct-of-arrays core state
(:class:`~repro.simulation.engine.core_state.CoreArrays`): step 1 is one
masked argmin and step 2 one stall-then-retire vector update, replacing
the two O(N) Python walks per event.  Per-event bookkeeping that used to
scan every core (the all-idle check, the every-core-finished check) reads
counters maintained incrementally by the tenancy model and the completion
bookkeeping, and the way-budget audit of :meth:`SimulationKernel._apply`
runs off a cached total updated by deltas -- the fixed per-event Python
cost is independent of the core count.  Scenario tenancy changes reach
managers through per-core
:meth:`~repro.core.managers.ResourceManager.on_scenario_event` calls; the
hierarchical :class:`~repro.core.managers.ClusteredManager` routes each
notification to the owning cluster's reduction tree, so a swap or
departure splices only that cluster's ``O(log)`` path.
"""

from __future__ import annotations

import os
import time

from repro.config import Allocation, SystemConfig
from repro.core.managers import ResourceManager
from repro.scenarios.events import Scenario
from repro.simulation.database import SimulationDatabase
from repro.simulation.engine.bridge import ManagerBridge
from repro.simulation.engine.core_state import CoreArrays, CoreRun, advance_core
from repro.simulation.engine.scheduler import CompletionScheduler
from repro.simulation.engine.tenancy import TenancyModel
from repro.simulation.metrics import AppResult, IntervalSample, RunResult
from repro.simulation.overheads import transition_cost
from repro.util.validation import require
from repro.workloads.mixes import Workload

__all__ = ["SimulationKernel", "MAX_EVENTS"]

#: Hard cap on simulated events (runaway-manager guard).
MAX_EVENTS = 1_000_000

#: Core count at or above which the per-event hot path uses the vectorised
#: struct-of-arrays step.  Below it the scalar reference step is cheaper
#: (NumPy's fixed per-call cost outweighs the interpreter loop on a
#: handful of lanes -- measured crossover ~16 cores); both steps are
#: bit-identical (tests/test_engine_vector.py), so this is purely a
#: dispatch choice.
VECTOR_MIN_CORES = 16

#: Debug mode: recount every core's ways from scratch after each manager
#: reallocation and assert it matches the delta-maintained total (set the
#: REPRO_WAYS_AUDIT environment variable, or monkeypatch in tests).
_WAYS_AUDIT = os.environ.get("REPRO_WAYS_AUDIT", "") not in ("", "0")


class SimulationKernel:
    """Drives one workload under one resource manager."""

    def __init__(
        self,
        system: SystemConfig,
        db: SimulationDatabase,
        workload: Workload,
        manager: ResourceManager,
        max_slices: int | None = None,
        collect_interval_samples: bool = True,
        scenario: Scenario | None = None,
    ) -> None:
        require(workload.ncores == system.ncores, "workload size must match core count")
        for app in workload.apps:
            require(app in db.records, f"database has no benchmark {app!r}")
        if scenario is not None:
            require(scenario.workload == workload,
                    "scenario workload must match the workload being simulated")
            for ev in scenario.events:
                if ev.kind == "swap":
                    require(ev.app in db.records,
                            f"database has no benchmark {ev.app!r} (scenario event)")
        self.system = system
        self.db = db
        self.workload = workload
        self.manager = manager
        self.collect_interval_samples = collect_interval_samples
        self.scenario = scenario
        self.max_slices = max_slices
        base = system.baseline_allocation()
        self.arrays = CoreArrays(system.ncores)
        self.cores: list[CoreRun] = []
        for j, app in enumerate(workload.apps):
            seq = db.phase_sequence(app)
            if max_slices is not None:
                seq = seq[:max_slices]
            active = scenario.active[j] if scenario is not None else True
            self.cores.append(
                CoreRun(self.arrays, core_id=j, app=app, seq=seq,
                        slack=workload.slack[j], alloc=base, active=active)
            )
        self.scheduler = CompletionScheduler(system, db, self.cores, self.arrays)
        self.tenancy = TenancyModel(
            system, db, self.cores, self.scheduler, manager, scenario, max_slices
        )
        self.bridge = ManagerBridge(self)
        self.time_ns = 0.0
        self.total_intervals = 0
        self.interval_samples: list[IntervalSample] = []
        # Cores that have completed their first trace round, maintained in
        # _complete_interval so _finished() is O(1) at any core count.
        self._first_rounds_done = 0
        # Sum of every core's allocated ways, maintained by deltas in
        # _apply so the per-reallocation way-budget audit needs no O(N)
        # recount (debug mode recounts and asserts, see _WAYS_AUDIT).
        self._ways_total = sum(c.alloc.ways for c in self.cores)
        #: Global events simulated by the last run() (replay throughput
        #: denominator for the scaling benchmarks).
        self.events_simulated = 0

    # ---- manager-facing API (delegated to the bridge) ------------------------
    def slack(self, core_id: int) -> float:
        """See :meth:`~repro.simulation.engine.bridge.ManagerBridge.slack`."""
        return self.bridge.slack(core_id)

    def current_alloc(self, core_id: int) -> Allocation:
        """See :meth:`~repro.simulation.engine.bridge.ManagerBridge.current_alloc`."""
        return self.bridge.current_alloc(core_id)

    def is_active(self, core_id: int) -> bool:
        """See :meth:`~repro.simulation.engine.bridge.ManagerBridge.is_active`."""
        return self.bridge.is_active(core_id)

    def completed_snapshot(self, core_id: int):
        """See :meth:`~repro.simulation.engine.bridge.ManagerBridge.completed_snapshot`."""
        return self.bridge.completed_snapshot(core_id)

    def completed_record(self, core_id: int):
        """See :meth:`~repro.simulation.engine.bridge.ManagerBridge.completed_record`."""
        return self.bridge.completed_record(core_id)

    def upcoming_record(self, core_id: int):
        """See :meth:`~repro.simulation.engine.bridge.ManagerBridge.upcoming_record`."""
        return self.bridge.upcoming_record(core_id)

    def active_core_ids(self):
        """See :meth:`~repro.simulation.engine.bridge.ManagerBridge.active_core_ids`."""
        return self.bridge.active_core_ids()

    def upcoming_records(self, core_ids):
        """See :meth:`~repro.simulation.engine.bridge.ManagerBridge.upcoming_records`."""
        return self.bridge.upcoming_records(core_ids)

    # ---- internals -----------------------------------------------------------
    def _complete_interval(self, core: CoreRun) -> None:
        rec = self.scheduler.record(core.core_id)
        core.instr_done = 0.0
        core.intervals += 1
        core.last_record = rec
        core.last_snapshot = self.scheduler.observe(core.core_id)

        if self.collect_interval_samples and (self.scenario is not None or core.rounds == 0):
            duration = self.time_ns - core.interval_start_ns
            # Baseline interval time under *this* system's QoS anchor (the
            # anchor may differ from the database's nominal, e.g. in the
            # baseline-VF sensitivity experiment); memoised per phase record.
            baseline_ns = self.scheduler.baseline_interval_ns(core.core_id)
            self.interval_samples.append(
                IntervalSample(
                    core=core.core_id,
                    phase_key=core.seq[core.slice_idx],
                    duration_ns=duration,
                    baseline_ns=baseline_ns,
                    slack=core.slack,
                )
            )
        core.interval_start_ns = self.time_ns
        core.energy_interval_start_nj = core.energy_nj

        core.slice_idx += 1
        if core.slice_idx >= len(core.seq):
            if core.rounds == 0:
                # A scenario swap resets rounds without clearing the first
                # tenant's mark; count each core once, matching the
                # done-first-round predicate exactly.
                if core.first_round_time_ns is None:
                    self._first_rounds_done += 1
                core.first_round_time_ns = self.time_ns
                core.first_round_energy_nj = core.energy_nj
            core.rounds += 1
            core.slice_idx = 0
        self.scheduler.invalidate(core.core_id)

    def _apply(self, allocations: dict[int, Allocation]) -> None:
        system = self.system
        cores = self.cores
        # One scan finds the (typically few) entries that differ from the
        # current setting -- Allocation objects are identity-cached by the
        # managers, so unchanged cores fail the `is not` probe -- and
        # audits the way budget off the maintained total plus their deltas:
        # no per-core recount, and (like the reference) the check fires
        # before any allocation is mutated.  Entries equal in value but not
        # identity contribute a zero delta either way.
        total = self._ways_total
        changed: list[tuple[int, Allocation]] = []
        # A delta-annotated map (AllocationMap) narrows the scan to the
        # entries its manager actually rewrote: everything outside the
        # delta is object-identical to an already-applied map, so probing
        # it is a guaranteed no-op.
        delta = getattr(allocations, "delta", None)
        for j, new in allocations.items() if delta is None else delta:
            cur = cores[j].alloc
            if new is cur or new == cur:
                continue
            total += new.ways - cur.ways
            changed.append((j, new))
        require(
            total == system.llc.ways,
            f"manager allocated {total} ways, LLC has {system.llc.ways}",
        )
        for j, new in changed:
            core = cores[j]
            if not core.active:
                # Reconfiguring an idle (power-gated) core is free: there is
                # nothing to stall and nothing executing to charge.
                core.alloc = new
                self.scheduler.invalidate(j)
                continue
            cost = transition_cost(system, core.alloc, new)
            core.pending_stall_ns += cost.stall_ns
            core.energy_nj += cost.energy_nj
            core.alloc = new
            self.scheduler.invalidate(j)
        self._ways_total = total
        if _WAYS_AUDIT:
            recount = sum(c.alloc.ways for c in cores)
            assert recount == self._ways_total, (
                f"way-budget audit drift: recount {recount} != "
                f"maintained total {self._ways_total}"
            )

    def _finished(self) -> bool:
        """Whether the run reached its horizon (scenario) or first rounds."""
        if self.scenario is not None:
            return self.total_intervals >= self.scenario.horizon_intervals
        return self._first_rounds_done >= len(self.cores)

    def run(self) -> RunResult:
        """Drive the event loop to completion and score the run."""
        t0 = time.perf_counter()
        self.manager.attach(self.bridge)
        scheduler = self.scheduler
        tenancy = self.tenancy
        arrays = self.arrays
        cores = self.cores
        interval_instr = self.system.interval_instructions
        instr_done = arrays.instr_done
        energy_nj = arrays.energy_nj
        pending_stall_ns = arrays.pending_stall_ns
        epi = arrays.epi
        # Vector step for many-core systems, scalar step below the
        # crossover -- the two are bit-identical lane by lane, so the
        # dispatch never changes results.
        use_vector = self.system.ncores >= VECTOR_MIN_CORES
        events = 0
        last_applied = None
        while not self._finished():
            events += 1
            require(events <= MAX_EVENTS, "event cap exceeded (manager thrashing?)")
            if self.scenario is not None and tenancy.n_active == 0:
                # Every core idles: jump to the next pending request (which
                # must exist, or the scenario can never reach its horizon).
                head = tenancy.next_pending_ns()
                require(head != float("inf"),
                        "all cores idle with no pending scenario events")
                self.time_ns = max(self.time_ns, head)
                tenancy.apply_due(self.time_ns, completed_core=None)
                continue
            if use_vector:
                j, dt = scheduler.next_completion()
                # All other active cores: one vectorised stall-then-retire
                # step.
                arrays.advance_all(dt, exclude=j)
            else:
                j, dt = scheduler.next_completion_scalar()
                for core in cores:
                    if core.core_id != j and core.active:
                        advance_core(core, dt, scheduler.tpi(core.core_id),
                                     scheduler.epi(core.core_id))
            # Completing core: retire the interval's remaining instructions
            # exactly and charge their energy directly (the epi entry is
            # fresh: either step refreshed every active core).
            left = interval_instr - instr_done[j]
            energy_nj[j] += left * epi[j]
            pending_stall_ns[j] = 0.0
            self.time_ns += dt
            core = cores[j]
            self._complete_interval(core)
            self.total_intervals += 1
            invoke_manager = True
            if self.scenario is not None:
                # If this boundary swapped or departed the tenant, the
                # completed-interval statistics belong to the departed app;
                # skip the invocation rather than optimise for a ghost.
                invoke_manager = not tenancy.apply_due(self.time_ns, completed_core=j)
            if invoke_manager:
                new_allocs = self.manager.on_interval(j)
                # Managers serving a fully cached decision return the same
                # dict object as last invocation; every entry in it was
                # already applied, so re-walking it is a guaranteed no-op
                # (returned maps are immutable by the on_interval
                # contract).  Debug mode verifies the contract held.
                if new_allocs:
                    if new_allocs is not last_applied:
                        self._apply(new_allocs)
                        last_applied = new_allocs
                    elif _WAYS_AUDIT:
                        assert all(
                            a is cores[k].alloc or a == cores[k].alloc
                            for k, a in new_allocs.items()
                        ), "manager mutated a previously returned allocation map"
        self.events_simulated = events

        if self.scenario is not None:
            # Score completed intervals only: energy accrued by in-flight
            # partial intervals at the horizon differs between managers and
            # would bias the equal-work comparison.
            apps = [
                AppResult(
                    app=c.app,
                    core=c.core_id,
                    time_ns=self.time_ns,
                    energy_nj=c.energy_interval_start_nj,
                    intervals=c.intervals,
                    slack=c.slack,
                )
                for c in cores
            ]
            run_name = self.scenario.name
        else:
            apps = [
                AppResult(
                    app=c.app,
                    core=c.core_id,
                    time_ns=float(c.first_round_time_ns),
                    energy_nj=float(c.first_round_energy_nj),
                    intervals=len(c.seq),
                    slack=c.slack,
                )
                for c in cores
            ]
            run_name = self.workload.name
        return RunResult(
            workload=run_name,
            manager=self.manager.name,
            apps=apps,
            interval_samples=self.interval_samples,
            rma_invocations=self.manager.meter.invocations,
            rma_instructions=self.manager.meter.instructions,
            sim_wall_s=time.perf_counter() - t0,
        )
