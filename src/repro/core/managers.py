"""The resource managers evaluated in the papers.

All managers share one engine (:class:`CoordinatedManager`): analytical
models -> QoS-pruned local optimisation -> global curve reduction.  The
papers' schemes are restrictions of its dimension set:

* ``rm1_partitioning_only`` -- LLC partitioning at fixed baseline VF/core
  (Paper I's "Partitioning RMA" / Paper II's RM1);
* ``rm2_combined`` -- per-core DVFS + LLC partitioning (Paper I's proposal,
  Paper II's RM2);
* ``rm3_core_adaptive`` -- core size + DVFS + LLC partitioning (Paper II's
  proposal, RM3);
* ``dvfs_only`` -- per-core DVFS at the fixed equal LLC split (the scheme
  the paper notes "cannot save energy without degrading the performance"
  under strict QoS);
* :class:`StaticBaselineManager` -- the QoS anchor: never reconfigures.

Realistic managers decide from the invoking core's last-interval counters and
sampled ATD readings, holding other cores' curves from their own last
invocations (exactly the paper's protocol, including keeping the baseline
setting until a core has statistics).  ``oracle=True`` gives every decision
error-free statistics for the *upcoming* interval of every core -- the
paper's "perfect models" configuration.

Two execution pipelines produce bit-identical decisions and metered
overheads:

* the **batched incremental pipeline** (default, ``incremental=True``):
  curve construction runs through :mod:`repro.core.batch_opt`'s stacked
  ``(N, C, F, W)`` tensors, per-core curves are memoized on a digest of
  (counter snapshot, ATD miss curve, QoS slack), and the global reduction
  uses one persistent :class:`~repro.core.packed_tree.PackedReduction`
  that only re-combines the ``O(log N)`` root paths of leaves that
  actually changed;
* the **reference pipeline** (``incremental=False``): the original
  recompute-everything path over
  :func:`~repro.core.global_opt.global_optimize`, kept as the executable
  specification -- ``tests/test_engine_equivalence.py`` replays both and
  compares with ``==`` on every number, and
  ``tools/bench_manager_overhead.py`` measures the speedup against it.

The incremental reduction is planned over a partition of the cores into
contiguous clusters, each reducing under its own way cap before a second
stage combines the cluster aggregates under the full associativity.  The
flat manager is the one-cluster partition (cap = every way), which *is*
the flat min-plus tree.  :class:`ClusteredManager` only supplies a finer
partition: for many-core systems (64-256 cores) the flat reduction's top
combines widen with the full LLC associativity, and capping the
intra-cluster combines trades a bounded energy gap for per-invocation work
that scales with the cluster size instead of the system size.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.config import Allocation, AllocationMap, SystemConfig
from repro.core.batch_opt import analytical_curves_batch, oracle_curves_batch
from repro.core.curves import EnergyCurve
from repro.core.energy_model import predict_epi_grid
from repro.core.global_opt import cluster_way_caps, global_optimize, partition_clusters
from repro.core.local_opt import DimSpec, local_optimize
from repro.core.models import MLP_MODELS
from repro.core.packed_tree import PackedReduction
from repro.core.overhead_meter import OverheadMeter
from repro.core.perf_model import predict_tpi_grid
from repro.core.qos import qos_target_tpi
from repro.util.validation import require

__all__ = [
    "ResourceManager",
    "StaticBaselineManager",
    "CoordinatedManager",
    "ClusteredManager",
    "IndependentManager",
    "rm1_partitioning_only",
    "rm2_combined",
    "rm3_core_adaptive",
    "dvfs_only",
]


class ResourceManager(ABC):
    """Interface the RMA simulator drives.

    ``attach`` is called once per simulation run and must reset all run
    state; ``on_interval`` is called on the core that just completed an
    execution interval and may return a full new allocation map.
    """

    name: str = "manager"

    def __init__(self) -> None:
        self.meter = OverheadMeter()
        self.sim = None

    def attach(self, sim) -> None:
        """Bind the manager to a simulator run and reset its run state."""
        self.sim = sim
        self.meter = OverheadMeter()

    def on_scenario_event(self, core_id: int, kind: str) -> None:
        """The co-location set changed on ``core_id`` (scenario swap/depart).

        Managers holding per-core state derived from the departed tenant --
        energy curves, phase history, cache profiles -- must discard it here
        and re-derive from the new tenant's statistics.
        """
        return None

    @abstractmethod
    def on_interval(self, core_id: int) -> dict[int, Allocation] | None:
        """Decide new allocations after ``core_id`` finished an interval.

        The returned map is owned by the simulator from this point on and
        must not be mutated in place afterwards; a manager re-serving a
        fully cached decision may return the same dict object again, which
        the kernel recognises as already applied.
        """


class StaticBaselineManager(ResourceManager):
    """The baseline: every core keeps the baseline allocation forever."""

    name = "baseline"

    def on_interval(self, core_id: int) -> None:
        """Never reconfigure: the QoS anchor holds the baseline setting."""
        return None


#: Curve-memo entries per manager before the table is dropped wholesale
#: (phases x allocations x slack levels stays far below this in practice).
MEMO_CAP = 8192


class CoordinatedManager(ResourceManager):
    """The paper's coordinated RMA engine (configurable dimensions)."""

    def __init__(
        self,
        name: str,
        control_dvfs: bool = True,
        control_core_size: bool = False,
        control_partitioning: bool = True,
        mlp_model: str = "model2",
        oracle: bool = False,
        incremental: bool = True,
    ) -> None:
        super().__init__()
        self.name = name
        self.control_dvfs = control_dvfs
        self.control_core_size = control_core_size
        self.control_partitioning = control_partitioning
        self.model = MLP_MODELS[mlp_model]
        self.oracle = oracle
        self.incremental = incremental
        self.curves: dict[int, EnergyCurve] = {}
        # The incremental reduction (None on the reference pipeline): one
        # packed plan over the cluster partition (see _partition).
        self._packed: PackedReduction | None = None
        self._clusters: tuple[tuple[int, ...], ...] = ()
        self._cluster_of: list[int] = []
        # Clusters whose leaf inputs may have changed since their last
        # refresh (see on_interval).
        self._stale_clusters: set[int] = set()
        self._memo: dict = {}
        self._memo_shared: dict = {}
        self._pinned_cache: dict[int, EnergyCurve] = {}
        self._idle_cache: dict[int, EnergyCurve] = {}
        self._alloc_cache: dict[tuple[int, int, int], Allocation] = {}
        self._alloc_out: tuple | None = None
        self._rec_digests: dict[tuple, tuple[bytes, bytes]] = {}

    def attach(self, sim) -> None:
        """Reset all run state and (re)build the incremental reduction."""
        super().attach(sim)
        self.curves = {}
        self._memo = {}
        self._memo_shared = {}
        self._pinned_cache = {}
        self._idle_cache = {}
        self._alloc_cache = {}
        self._alloc_out = None
        # Per-run: a reattached manager may face a different database whose
        # records reuse the same (bench, phase) identities.
        self._rec_digests = {}
        self._packed = None
        if not self.incremental:
            return
        system = sim.system
        # Clusters are contiguous blocks in core order (partition_clusters),
        # so a core's leaf slot in the packed plan is its id.
        clusters, caps = self._partition(system)
        self._clusters = clusters
        self._cluster_of = [ci for ci, members in enumerate(clusters) for _ in members]
        self._stale_clusters = set(range(len(clusters)))
        self._packed = PackedReduction(
            tuple(len(members) for members in clusters), tuple(caps),
            system.llc.ways, system.min_ways_per_core,
        )

    def _partition(self, system: SystemConfig):
        """``(clusters, way caps)`` the incremental reduction is planned over.

        The flat manager is one cluster of every core capped at the full
        associativity -- the flat min-plus tree.
        """
        return (tuple(range(system.ncores)),), (system.llc.ways,)

    def on_scenario_event(self, core_id: int, kind: str) -> None:
        """Drop the departed tenant's curve and splice its reduction leaf.

        The cached curve models the departed tenant; the new one (or the
        idle core) is pinned until fresh statistics arrive.  The leaf is
        spliced (forced dirty) and its cluster marked stale so the next
        solve re-combines its root path even if the replacement curve
        compares equal.
        """
        self.curves.pop(core_id, None)
        if self._packed is not None:
            self._packed.invalidate(core_id)
            self._stale_clusters.add(self._cluster_of[core_id])

    # -- dimension restrictions ---------------------------------------------
    def _dims(self, system: SystemConfig) -> DimSpec:
        cores = None if self.control_core_size else (system.baseline_core_index,)
        freqs = None if self.control_dvfs else (system.baseline_freq_index,)
        pin = None if self.control_partitioning else system.baseline_ways
        return DimSpec(core_indices=cores, freq_indices=freqs, pin_ways=pin)

    # -- curve construction ---------------------------------------------------
    def _oracle_curve(self, core_id: int) -> EnergyCurve:
        sim, system = self.sim, self.sim.system
        rec = sim.upcoming_record(core_id)
        target = qos_target_tpi(system, rec.tpi, sim.slack(core_id))
        return local_optimize(
            system, core_id, rec.tpi, rec.epi, target, self._dims(system), self.meter
        )

    def _analytical_curve(self, core_id: int) -> EnergyCurve:
        sim, system = self.sim, self.sim.system
        snap = sim.completed_snapshot(core_id)
        rec = sim.completed_record(core_id)
        mlp_hat = self.model.mlp_hat(system, snap, rec.mlp_sampled)
        tpi = predict_tpi_grid(system, snap, rec.mpki_sampled, mlp_hat)
        epi = predict_epi_grid(system, snap, rec.mpki_sampled, tpi)
        target = qos_target_tpi(system, tpi, sim.slack(core_id))
        return local_optimize(
            system, core_id, tpi, epi, target, self._dims(system), self.meter
        )

    def _pinned_curve(self, core_id: int) -> EnergyCurve:
        """Baseline-pinned curve for a core without statistics yet."""
        system = self.sim.system
        base = system.baseline_allocation()
        return EnergyCurve.pinned(
            core_id,
            ways=base.ways,
            core_idx=base.core,
            freq_idx=base.freq,
            max_ways=system.llc.ways,
        )

    def _idle_curve(self, core_id: int) -> EnergyCurve:
        """Curve for an idle (power-gated) core: release all but the minimum ways.

        Idle tenancy is the one case where shrinking a partition is free, so
        the global optimiser hands the freed capacity to the active tenants.
        """
        system = self.sim.system
        return EnergyCurve.pinned(
            core_id,
            ways=system.min_ways_per_core,
            core_idx=system.baseline_core_index,
            freq_idx=system.baseline_freq_index,
            max_ways=system.llc.ways,
        )

    def _curve_for(self, core_id: int) -> EnergyCurve:
        if not self.sim.is_active(core_id):
            return self._idle_curve(core_id)
        if self.oracle:
            return self._oracle_curve(core_id)
        if core_id in self.curves:
            return self.curves[core_id]
        return self._pinned_curve(core_id)

    # -- memoized / cached curve plumbing (batched pipeline) -------------------
    def _static_leaf(self, core_id: int, idle: bool) -> EnergyCurve:
        """Cached pinned/idle curve: constant per (core, run), reused so the
        reduction tree's identity check recognises unchanged leaves."""
        cache = self._idle_cache if idle else self._pinned_cache
        curve = cache.get(core_id)
        if curve is None:
            curve = self._idle_curve(core_id) if idle else self._pinned_curve(core_id)
            cache[core_id] = curve
        return curve

    def _memo_put(self, key, curve: EnergyCurve, grid_points: int) -> None:
        if len(self._memo) >= MEMO_CAP:
            self._memo.clear()
        self._memo[key] = (curve, grid_points)

    def _analytical_curve_memo(self, core_id: int) -> EnergyCurve:
        """Memoized `_analytical_curve`: phase-stable cores skip recomputation.

        The curve is a pure function of (counter snapshot, sampled ATD
        curves, QoS slack) for a fixed manager, so the digest key fully
        determines the output and a hit can never be stale: any QoS-ramp,
        swap or allocation change alters the key.  Hits replay the modelled
        grid cost so the metered overhead matches the recomputing reference.

        Memoization is two-level.  The per-core table serves repeat
        invocations with the *same object*, which is what lets the
        reduction tree recognise an unchanged leaf by identity.  Behind it,
        a content-keyed table is shared across cores: the digest determines
        the curve up to its ``core_id`` label (many-core scenario mixes run
        the same phases at the same settings on many cores), so a
        cross-core hit relabels the stored curve -- sharing its arrays --
        charges the same replayed grid cost, and is bit-identical to
        recomputing.  Subclasses that override ``_analytical_curve`` (e.g.
        the history-aware manager, whose curves also depend on accumulated
        phase tables) bypass memoization entirely.
        """
        if type(self)._analytical_curve is not CoordinatedManager._analytical_curve:
            return self._analytical_curve(core_id)
        sim = self.sim
        snap = sim.completed_snapshot(core_id)
        rec = sim.completed_record(core_id)
        # Database records are immutable, so their sampled-curve digests are
        # computed once per phase and reused (the key stays content-based:
        # the bytes themselves go into it, not the phase identity).
        digests = self._rec_digests.get((rec.bench, rec.phase_key))
        if digests is None:
            digests = (
                np.asarray(rec.mpki_sampled).tobytes(),
                np.asarray(rec.mlp_sampled).tobytes(),
            )
            self._rec_digests[(rec.bench, rec.phase_key)] = digests
        content = (snap, digests[0], digests[1], sim.slack(core_id))
        key = (core_id, content)
        hit = self._memo.get(key)
        if hit is not None:
            curve, points = hit
            self.meter.charge_replay(grid_points=points)
            return curve
        shared = self._memo_shared.get(content)
        if shared is not None:
            curve, points = shared
            if curve.core_id != core_id:
                curve = EnergyCurve(
                    core_id=core_id, epi=curve.epi,
                    freq_idx=curve.freq_idx, core_idx=curve.core_idx,
                )
            self._memo_put(key, curve, points)
            self.meter.charge_replay(grid_points=points)
            return curve
        before = self.meter.grid_points
        curve = self._analytical_curve(core_id)
        points = self.meter.grid_points - before
        self._memo_put(key, curve, points)
        if len(self._memo_shared) >= MEMO_CAP:
            self._memo_shared.clear()
        self._memo_shared[content] = (curve, points)
        return curve

    def _oracle_leaves(self) -> dict[int, EnergyCurve]:
        """Oracle curves for every active core: memo hits plus one batched
        pass over the misses (stacked grids, single ``local_optimize``)."""
        sim, system = self.sim, self.sim.system
        # Batched bridge reads where the simulator offers them; the frozen
        # legacy reference only has the per-core accessors.
        active_fn = getattr(sim, "active_core_ids", None)
        ids = (active_fn() if active_fn is not None
               else [j for j in range(system.ncores) if sim.is_active(j)])
        fetch = getattr(sim, "upcoming_records", None)
        recs = (fetch(ids) if fetch is not None
                else [sim.upcoming_record(j) for j in ids])
        leaves: dict[int, EnergyCurve] = {}
        miss_ids: list[int] = []
        miss_recs: list = []
        miss_slacks: list[float] = []
        for j, rec in zip(ids, recs):
            slack = sim.slack(j)
            key = (j, "oracle", rec.bench, rec.phase_key, slack)
            hit = self._memo.get(key)
            if hit is not None:
                leaves[j] = hit[0]
                self.meter.charge_replay(grid_points=hit[1])
            else:
                miss_ids.append(j)
                miss_recs.append(rec)
                miss_slacks.append(slack)
        if miss_ids:
            before = self.meter.grid_points
            curves = oracle_curves_batch(
                system, miss_ids, miss_recs, miss_slacks,
                self._dims(system), self.meter,
            )
            points = (self.meter.grid_points - before) // len(miss_ids)
            for j, rec, slack, curve in zip(miss_ids, miss_recs, miss_slacks, curves):
                self._memo_put((j, "oracle", rec.bench, rec.phase_key, slack),
                               curve, points)
                leaves[j] = curve
        return leaves

    # -- the decision ----------------------------------------------------------
    def _inactive_cores(self) -> frozenset[int]:
        """Ids of power-gated cores, read once per invocation.

        Uses the simulator's batched activity accessors where they exist
        (one vector read of the struct-of-arrays state); the frozen legacy
        reference only offers the per-core ``is_active`` probe.
        """
        sim = self.sim
        inactive_fn = getattr(sim, "inactive_core_ids", None)
        if inactive_fn is not None:
            return frozenset(inactive_fn())
        n = sim.system.ncores
        active_fn = getattr(sim, "active_core_ids", None)
        if active_fn is not None:
            active = active_fn()
            if len(active) == n:
                return frozenset()
            return frozenset(range(n)).difference(active)
        return frozenset(j for j in range(n) if not sim.is_active(j))

    def _live_leaves(self, core_ids, oracle_leaves, inactive) -> list[EnergyCurve]:
        """The reduction leaves for ``core_ids`` this invocation.

        The oracle curve (or the idle leaf) when running with perfect
        models; otherwise the idle leaf for a power-gated core, the held
        analytical curve, or the baseline-pinned leaf for a core without
        statistics yet.  ``inactive`` is the invocation-wide
        :meth:`_inactive_cores` set, so a system-wide leaf refresh performs
        one activity read instead of a per-core bridge round-trip.
        """
        if oracle_leaves is not None:
            return [
                curve if (curve := oracle_leaves.get(j)) is not None
                else self._static_leaf(j, idle=True)
                for j in core_ids
            ]
        curves = self.curves
        return [
            self._static_leaf(j, idle=True) if j in inactive
            else (held if (held := curves.get(j)) is not None
                  else self._static_leaf(j, idle=False))
            for j in core_ids
        ]

    def _begin_decision(self, core_id: int) -> dict[int, EnergyCurve] | None:
        """Shared invocation prologue: meter, curve refresh, oracle leaves."""
        self.meter.begin_invocation()
        if self.oracle:
            return self._oracle_leaves()
        self.curves[core_id] = self._analytical_curve_memo(core_id)
        return None

    def _to_allocations(self, assignment, touched) -> dict[int, Allocation] | None:
        """Convert a solved ``{core: (c, f, w)}`` map into allocations.

        Allocation objects are cached per setting, so a core whose setting
        did not change receives the *same* object as last invocation and
        the kernel's apply loop skips it on identity alone.  A fully cached
        solve (the reduction returning its previous assignment object)
        short-circuits to the previous allocation map -- the same dict
        object, which the kernel recognises as already applied.  Returned
        maps are treated as immutable by that contract.

        After the first solve the translation is a delta: ``touched`` (the
        reduction's rewritten core ids) names every entry of
        ``assignment`` that is not object-identical to the previous one,
        so the new map copies the previous map wholesale and re-translates
        only the touched cores, annotating the result
        (:class:`AllocationMap`) so the kernel's apply loop can skip the
        untouched entries as well.
        """
        if assignment is None:
            return None
        cached = self._alloc_out
        if cached is not None and cached[0] is assignment:
            return cached[1]
        cache = self._alloc_cache
        if cached is not None:
            prev_out = cached[1]
            out = AllocationMap(prev_out)
            delta: list[tuple[int, Allocation]] = []
            for j in touched:
                setting = assignment[j]
                alloc = cache.get(setting)
                if alloc is None:
                    c, f, w = setting
                    alloc = Allocation(core=c, freq=f, ways=w)
                    cache[setting] = alloc
                if prev_out[j] is not alloc:
                    out[j] = alloc
                    delta.append((j, alloc))
            out.delta = delta
            self._alloc_out = (assignment, out)
            return out
        out = AllocationMap()
        for j, setting in assignment.items():
            alloc = cache.get(setting)
            if alloc is None:
                c, f, w = setting
                alloc = Allocation(core=c, freq=f, ways=w)
                cache[setting] = alloc
            out[j] = alloc
        self._alloc_out = (assignment, out)
        return out

    def on_interval(self, core_id: int) -> dict[int, Allocation] | None:
        """Decide new allocations after ``core_id`` finished an interval.

        A cluster's leaves are a pure function of the held/oracle curves
        and the active set; both change only at the invoking core
        (:meth:`_begin_decision`) or via :meth:`on_scenario_event`, so only
        stale clusters re-install their member leaves (identity-checked,
        so unchanged curves stay clean).  Oracle curves also move with
        every phase boundary, so oracle mode refreshes every cluster.  One
        packed solve then recombines every dirty root path -- cluster
        levels and the second-level combine alike -- in ~log N batched
        sweeps, charging the invocation's static DP total in a single
        integer-exact replay.
        """
        if not self.incremental:
            return self._on_interval_reference(core_id)
        oracle_leaves = self._begin_decision(core_id)
        packed = self._packed
        stale = self._stale_clusters
        stale.add(self._cluster_of[core_id])
        if self.oracle:
            stale = range(len(self._clusters))
        inactive = self._inactive_cores() if oracle_leaves is None else frozenset()
        for ci in stale:
            packed.set_group_leaves(
                ci, self._live_leaves(self._clusters[ci], oracle_leaves, inactive)
            )
        self._stale_clusters = set()
        return self._to_allocations(packed.solve(self.meter), packed.last_touched)

    def _on_interval_reference(self, core_id: int) -> dict[int, Allocation] | None:
        """The pre-batching decision path, verbatim (executable reference)."""
        sim, system = self.sim, self.sim.system
        self.meter.begin_invocation()

        if not self.oracle:
            self.curves[core_id] = self._analytical_curve(core_id)
        curves = [self._curve_for(j) for j in range(system.ncores)]

        assignment = global_optimize(
            curves,
            total_ways=system.llc.ways,
            min_ways=system.min_ways_per_core,
            meter=self.meter,
        )
        if assignment is None:
            return None
        return {
            j: Allocation(core=c, freq=f, ways=w)
            for j, (c, f, w) in assignment.items()
        }


class ClusteredManager(CoordinatedManager):
    """Hierarchical coordinated RMA for many-core systems (64-256 cores).

    Cores are partitioned into contiguous clusters of ``cluster_size``.
    Every cluster runs the flat manager's batched local pipeline -- the same
    memoized per-core energy curves -- into its own group of the packed
    reduction, whose combines are capped at the cluster's way budget
    (``overprovision`` times its proportional LLC share, see
    :func:`~repro.core.global_opt.cluster_way_caps`).  A second stage then
    min-plus combines the per-cluster *aggregate* curves to decide how many
    LLC ways each cluster receives; back-tracking recurses through the
    cluster roots down to per-core settings, so one walk yields the full
    system assignment.  Because the QoS-pruned curves already encode each
    core's energy/slack trade-off, redistributing ways between clusters is
    what moves power and slack budgets between them.

    The decision path is the base class's: this class only supplies the
    partition.  Scenario events splice ``O(log cluster_size)`` intra-cluster
    rows plus ``O(log nclusters)`` second-stage rows, and clean clusters
    skip leaf installation.

    Equivalence contract: with ``cluster_size >= ncores`` (one cluster) the
    cap equals the full associativity and the second stage is a
    pass-through, so decisions, energies and metered overheads are
    bit-identical to ``CoordinatedManager(incremental=True)`` --
    ``tests/test_clustered.py`` enforces this.  With several clusters the
    way caps bound each cluster's reach, giving results within a bounded
    energy gap of the flat manager in exchange for per-invocation work that
    scales with the cluster size, not the system size.
    """

    def __init__(
        self,
        name: str,
        cluster_size: int = 8,
        overprovision: float = 2.0,
        control_dvfs: bool = True,
        control_core_size: bool = False,
        control_partitioning: bool = True,
        mlp_model: str = "model2",
        oracle: bool = False,
    ) -> None:
        """Configure the hierarchy; dimension flags mirror the flat manager.

        The clustered manager exists only on the incremental pipeline (there
        is no recompute-everything reference for the hierarchy; the flat
        incremental manager, itself verified against the reference, is its
        anchor), so ``incremental`` is not a parameter.
        """
        super().__init__(
            name=name,
            control_dvfs=control_dvfs,
            control_core_size=control_core_size,
            control_partitioning=control_partitioning,
            mlp_model=mlp_model,
            oracle=oracle,
            incremental=True,
        )
        self.cluster_size = int(cluster_size)
        self.overprovision = float(overprovision)

    def _partition(self, system: SystemConfig):
        """Contiguous clusters of ``cluster_size`` under capped way budgets."""
        clusters = partition_clusters(system.ncores, self.cluster_size)
        caps = cluster_way_caps(
            system.llc.ways, system.ncores, clusters,
            system.min_ways_per_core, self.overprovision,
        )
        return clusters, caps


def _make_manager(
    name: str,
    control_dvfs: bool,
    control_core_size: bool,
    control_partitioning: bool,
    mlp_model: str,
    oracle: bool,
    incremental: bool,
    cluster_size: int | None,
    overprovision: float,
) -> CoordinatedManager:
    """Build the flat or (when ``cluster_size`` is set) clustered variant."""
    if cluster_size is not None:
        require(
            incremental,
            "the clustered manager exists only on the incremental pipeline "
            "(there is no recompute-everything reference for the hierarchy); "
            "drop cluster_size or incremental=False",
        )
        return ClusteredManager(
            name=f"{name}-c{cluster_size}",
            cluster_size=cluster_size,
            overprovision=overprovision,
            control_dvfs=control_dvfs,
            control_core_size=control_core_size,
            control_partitioning=control_partitioning,
            mlp_model=mlp_model,
            oracle=oracle,
        )
    return CoordinatedManager(
        name=name,
        control_dvfs=control_dvfs,
        control_core_size=control_core_size,
        control_partitioning=control_partitioning,
        mlp_model=mlp_model,
        oracle=oracle,
        incremental=incremental,
    )


def rm1_partitioning_only(
    oracle: bool = False,
    mlp_model: str = "model2",
    incremental: bool = True,
    cluster_size: int | None = None,
    overprovision: float = 2.0,
) -> CoordinatedManager:
    """RM1: LLC partitioning only, at baseline VF and core size.

    ``cluster_size`` selects the hierarchical :class:`ClusteredManager`
    variant (many-core tier) instead of the flat manager.
    """
    return _make_manager(
        "rm1-partitioning", False, False, True, mlp_model, oracle,
        incremental, cluster_size, overprovision,
    )


def rm2_combined(
    oracle: bool = False,
    mlp_model: str = "model2",
    incremental: bool = True,
    cluster_size: int | None = None,
    overprovision: float = 2.0,
) -> CoordinatedManager:
    """RM2: coordinated per-core DVFS + LLC partitioning (Paper I).

    ``cluster_size`` selects the hierarchical :class:`ClusteredManager`
    variant (many-core tier) instead of the flat manager.
    """
    return _make_manager(
        "rm2-combined", True, False, True, mlp_model, oracle,
        incremental, cluster_size, overprovision,
    )


def rm3_core_adaptive(
    oracle: bool = False,
    mlp_model: str = "model3",
    incremental: bool = True,
    cluster_size: int | None = None,
    overprovision: float = 2.0,
) -> CoordinatedManager:
    """RM3: core size + DVFS + LLC partitioning (Paper II).

    ``cluster_size`` selects the hierarchical :class:`ClusteredManager`
    variant (many-core tier) instead of the flat manager.
    """
    return _make_manager(
        "rm3-core-adaptive", True, True, True, mlp_model, oracle,
        incremental, cluster_size, overprovision,
    )


def dvfs_only(
    oracle: bool = False,
    mlp_model: str = "model2",
    incremental: bool = True,
    cluster_size: int | None = None,
    overprovision: float = 2.0,
) -> CoordinatedManager:
    """Per-core DVFS at the fixed equal LLC split (ablation).

    ``cluster_size`` selects the hierarchical :class:`ClusteredManager`
    variant (many-core tier) instead of the flat manager.
    """
    return _make_manager(
        "dvfs-only", True, False, False, mlp_model, oracle,
        incremental, cluster_size, overprovision,
    )

class IndependentManager(ResourceManager):
    """Uncoordinated controllers: UCP cache partitioning + per-core DVFS.

    The strawman the paper argues against (thesis §3.1): the cache controller
    partitions to *minimise total misses* (Qureshi-Patt UCP) with no notion of
    per-application QoS; a separate DVFS controller then tries to hold each
    core's QoS at whatever allocation it was handed.  When UCP strips a
    cache-sensitive application of its ways, no frequency can recover the lost
    performance (the memory term is frequency-independent) and the QoS
    constraint is violated -- the precise failure mode that motivates
    coordinated management.
    """

    name = "independent-ucp-dvfs"

    def __init__(self, mlp_model: str = "model2") -> None:
        super().__init__()
        self.model = MLP_MODELS[mlp_model]
        self.hit_curves: dict[int, object] = {}
        self.snapshots: dict[int, object] = {}

    def attach(self, sim) -> None:
        """Reset the per-core UCP profiles for a fresh run."""
        super().attach(sim)
        self.hit_curves = {}
        self.snapshots = {}

    def on_scenario_event(self, core_id: int, kind: str) -> None:
        """Forget the departed tenant's hit curve and counter snapshot."""
        self.hit_curves.pop(core_id, None)
        self.snapshots.pop(core_id, None)

    def on_interval(self, core_id: int) -> dict[int, Allocation] | None:
        """UCP partitioning for misses, then per-core DVFS to hold QoS."""
        from repro.cache.ucp import ucp_lookahead

        sim, system = self.sim, self.sim.system
        self.meter.begin_invocation()
        snap = sim.completed_snapshot(core_id)
        rec = sim.completed_record(core_id)
        # per-way hits/kilo-instruction from the sampled ATD
        self.hit_curves[core_id] = rec.apki - np.asarray(rec.mpki_sampled)
        self.snapshots[core_id] = (snap, rec)

        active = [j for j in range(system.ncores) if sim.is_active(j)]
        if any(j not in self.hit_curves for j in active):
            return None  # UCP waits until every active core has a profile

        # Unprofiled (idle) cores keep their current ways; UCP partitions
        # the remainder among the profiled cores.
        order = sorted(self.hit_curves)
        held = sum(
            sim.current_alloc(j).ways
            for j in range(system.ncores)
            if j not in self.hit_curves
        )
        alloc_ways = ucp_lookahead(
            [self.hit_curves[j] for j in order],
            total_ways=system.llc.ways - held,
            min_ways=system.min_ways_per_core,
        )
        self.meter.charge_dp(system.llc.ways * system.ncores)

        # One batched pass over all profiled cores: the DVFS controller's
        # per-core model evaluations, stacked (bit-identical to the loop of
        # per-core predict/local_optimize invocations it replaces).
        dims = DimSpec(core_indices=(system.baseline_core_index,))
        snaps = [self.snapshots[j][0] for j in order]
        recs = [self.snapshots[j][1] for j in order]
        curves = analytical_curves_batch(
            system, self.model, list(order), snaps,
            [r.mpki_sampled for r in recs], [r.mlp_sampled for r in recs],
            [sim.slack(j) for j in order], dims, self.meter,
            pin_ways_per_core=list(alloc_ways),
        )
        out: dict[int, Allocation] = {}
        for j, ways, curve in zip(order, alloc_ways, curves):
            if np.isfinite(curve.epi[ways - 1]):
                c, f, w = curve.setting_at(ways)
            else:
                # No frequency can hold QoS at this allocation: run flat out.
                c, f, w = system.baseline_core_index, system.vf.nlevels - 1, ways
            out[j] = Allocation(core=c, freq=f, ways=w)
        return out
