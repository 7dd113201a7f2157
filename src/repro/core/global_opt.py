"""Global optimisation: recursive pair-wise reduction of energy curves.

The paper's optimiser "recursively reduces each pair of curves into one until
an optimum set of {w_j} is found ... that minimizes system energy while the
sum of w_j values equals the LLC associativity" (thesis §3.1, Fig. 3.2).

Each reduction combines two curves over their summed way range:

``E_ab(s) = min over s_a + s_b = s of  E_a(s_a) + E_b(s_b)``

keeping the argmin split for back-tracking.  Reducing pairs in a binary tree
gives the exact optimum (the objective is separable) in
``O(ncores * ways^2)`` -- the "polynomial time" heuristic the paper claims,
and the tests verify optimality against brute-force enumeration.

:func:`global_optimize` rebuilds the reduction from scratch each call.
:class:`ReductionTree` keeps the same binary tree *persistent* across
manager invocations: when only one leaf curve changed since the last solve
(the common case -- one interval boundary fires at a time) only the
``O(log N)`` nodes on its root path are re-combined, while the untouched
subtrees keep their arrays.  Both produce bit-identical assignments, and the
tree re-charges the cached DP-cell counts of skipped nodes so the metered
RMA overhead (the *modelled* hardware cost) is bit-identical too.

**The hierarchical cluster tier** reuses the same tree at two levels: each
cluster of cores owns a :class:`ReductionTree` whose combines are capped at
the cluster's way budget (:func:`cluster_way_caps`), and a second-level
tree combines the per-cluster *aggregate* curves -- the cluster roots,
injected via :meth:`ReductionTree.set_leaf_node` -- to decide how many LLC
ways each cluster receives.  Because combined nodes keep their back-track
``split`` chains, one :func:`_assign` walk from the second-level root
recurses through the cluster roots down to the per-core leaves, so the
two-level select yields a complete per-core assignment with no extra
machinery.  With a single cluster the cap equals the full associativity and
the second level degenerates to a pass-through, making the hierarchy
bit-identical to the flat tree.

The managers run :class:`~repro.core.packed_tree.PackedReduction`, a packed
level-synchronous layout of this same reduction.  :class:`ReductionTree`
and :func:`global_optimize` are the references it is tested against; the
latter also drives the managers' ``incremental=False`` pipeline.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.curves import EnergyCurve
from repro.core.overhead_meter import OverheadMeter
from repro.util.validation import require

__all__ = [
    "global_optimize",
    "ReductionTree",
    "partition_clusters",
    "cluster_way_caps",
]


@dataclass(slots=True)
class _Node:
    """A (possibly combined) curve over total allocated ways."""

    min_ways: int
    max_ways: int
    epi: np.ndarray  # epi[s - min_ways] = best energy with s total ways
    curve: EnergyCurve | None = None      # leaf payload
    left: "_Node | None" = None
    right: "_Node | None" = None
    split: np.ndarray | None = None       # ways given to the left child per s
    dp_cells: int = 0                     # DP work a from-scratch combine does
    leaf_ids: tuple[int, ...] = ()        # core ids of the leaves underneath
    # (tree, way total) this node received on the most recent back-track
    # walk.  Combines always build fresh nodes, so a surviving stamp
    # certifies the whole subtree (and therefore its assignment at that
    # total) unchanged since that walk -- ReductionTree.solve prunes the
    # walk on it.  The tree is part of the stamp because cluster-tier
    # nodes are shared between a cluster tree and the second-level tree:
    # a stamp is only valid against the *stamping* tree's previous
    # assignment.
    last_s: int | None = None
    last_tree: object = None


def _leaf(curve: EnergyCurve, min_ways: int, cap: int) -> _Node:
    """Leaf node over ``[min_ways, cap]`` ways of one curve.

    Clamping at ``cap`` matters only when the curve is wider than the
    tree's way budget -- a cluster tree over full-associativity curves --
    and is what makes a *single-core* cluster respect its cap (its leaf is
    never passed through a capped combine).  Reachable splits of wider
    trees are unaffected: a child of any combine can receive at most
    ``cap - min_ways`` ways anyway.
    """
    epi = curve.epi[min_ways - 1 : cap].copy()
    return _Node(min_ways=min_ways, max_ways=min(curve.max_ways, cap), epi=epi,
                 curve=curve, leaf_ids=(curve.core_id,))


#: Memoised in-range DP cell counts per (left width, right width, sums):
#: the count is a pure function of the three shapes and recurs for every
#: combine at the same tree position, so the per-combine NumPy reduction
#: collapses to a dict lookup.
_DP_CELLS_MEMO: dict[tuple[int, int, int], int] = {}


def _dp_cell_count(na: int, nb: int, nk: int) -> int:
    """DP work of one combine: the in-range (sl, s - sl) pairs per sum."""
    key = (na, nb, nk)
    cells = _DP_CELLS_MEMO.get(key)
    if cells is None:
        cells = sum(min(k + 1, na, nb, na + nb - 1 - k) for k in range(nk))
        _DP_CELLS_MEMO[key] = cells
    return cells


#: Cached ``np.arange`` vectors (read-only by convention): every combine at
#: the same width re-creates the same index vector otherwise.
_ARANGE_MEMO: dict[int, np.ndarray] = {}


def _arange(n: int) -> np.ndarray:
    ks = _ARANGE_MEMO.get(n)
    if ks is None:
        ks = np.arange(n)
        _ARANGE_MEMO[n] = ks
    return ks


#: Reusable per-shape scratch buffers for the combine's padded input and
#: anti-diagonal sum.  ``_combine`` is non-reentrant (tree reductions call
#: it sequentially) and everything that outlives the call -- the winning
#: energies and splits -- is materialised by copying fancy-index/argmin
#: outputs, so recycling the intermediates is safe *within one thread*.
#: The buffers live in a thread local because the replay service runs
#: several simulations concurrently in one process; a shared buffer would
#: let two combines overwrite each other's DP state mid-reduction.
_SCRATCH_TLS = threading.local()


def _scratch_map() -> dict:
    bufs = getattr(_SCRATCH_TLS, "bufs", None)
    if bufs is None:
        bufs = _SCRATCH_TLS.bufs = {}
    return bufs


#: Scratch-cache capacity (shapes held per thread before eviction).
_SCRATCH_CAP = 256


def _scratch_evict(bufs: dict) -> None:
    """Evict oldest-inserted entries only (dicts preserve insertion order):
    wiping the whole table on mixed-size workloads would also drop the
    still-hot shapes -- including the prefilled-inf pads -- and cause
    realloc + refill churn every 257th distinct shape."""
    while len(bufs) >= _SCRATCH_CAP:
        bufs.pop(next(iter(bufs)))


def _scratch(key: tuple, shape) -> np.ndarray:
    bufs = _scratch_map()
    buf = bufs.get(key)
    if buf is None:
        _scratch_evict(bufs)
        buf = np.empty(shape)
        bufs[key] = buf
    return buf


def _padded_scratch(na: int, nb: int) -> np.ndarray:
    """Reusable combine input of width ``na`` between two ``inf`` pads.

    The pads are invariant per (na, nb) shape, so they are filled once at
    creation; each combine only overwrites the middle with its left-child
    energies.
    """
    key = ("pad", na, nb)
    bufs = _scratch_map()
    buf = bufs.get(key)
    if buf is None:
        _scratch_evict(bufs)
        buf = np.full(na + 2 * (nb - 1), np.inf)
        bufs[key] = buf
    return buf


def _combine(a: _Node, b: _Node, cap: int, meter: OverheadMeter | None) -> _Node:
    """Min-plus convolution of two curves, vectorised over all sums ``s``.

    ``epi[s] = min over sl of a.epi[sl] + b.epi[s - sl]`` is the minimum of
    the ``(i + j == k)`` anti-diagonal of the outer sum of the two energy
    arrays.  Padding ``a.epi`` with ``inf`` and taking length-``len(b)``
    sliding windows aligns anti-diagonal ``k`` with window ``k`` against the
    reversed ``b.epi``, so one 2-D reduction replaces the per-``s`` Python
    loop; out-of-range pairs sit on the ``inf`` padding and never win the
    argmin.  Window position ascends with the left child's way count, so
    tie-breaking (first minimum) matches the scalar formulation exactly.
    """
    lo = a.min_ways + b.min_ways
    hi = min(a.max_ways + b.max_ways, cap)
    require(hi >= lo, "combined curve has empty range")
    na, nb = len(a.epi), len(b.epi)
    nk = hi - lo + 1
    padded = _padded_scratch(na, nb)
    padded[nb - 1 : nb - 1 + na] = a.epi
    stride = padded.strides[0]
    windows = np.ndarray((nk, nb), dtype=np.float64, buffer=padded,
                         strides=(stride, stride))
    totals = _scratch(("sum", nk, nb), (nk, nb))
    np.add(windows, b.epi[::-1], out=totals)
    m = np.argmin(totals, axis=1)
    ks = _arange(nk)
    epi = totals[ks, m]
    # Reuse the argmin buffer for the split vector (in-place, same values
    # as the expression form ``a.min_ways + ks + m - (nb - 1)``).
    split = m
    split += ks
    split += a.min_ways - (nb - 1)
    # DP work actually required per s: the in-range (sl, s - sl) pairs.
    cells = _dp_cell_count(na, nb, nk)
    if meter is not None:
        meter.charge_dp(cells)
    return _Node(min_ways=lo, max_ways=hi, epi=epi, left=a, right=b, split=split,
                 dp_cells=cells, leaf_ids=a.leaf_ids + b.leaf_ids)


def _assign(node: _Node, s: int, out: dict[int, tuple[int, int, int]]) -> None:
    if node.curve is not None:
        out[node.curve.core_id] = node.curve.setting_at(s)
        return
    sl = int(node.split[s - node.min_ways])
    _assign(node.left, sl, out)
    _assign(node.right, s - sl, out)


def global_optimize(
    curves: list[EnergyCurve],
    total_ways: int,
    min_ways: int = 1,
    meter: OverheadMeter | None = None,
) -> dict[int, tuple[int, int, int]] | None:
    """Optimal per-core ``(core_idx, freq_idx, ways)`` or None if infeasible.

    ``curves`` must cover every core exactly once; the returned way counts
    sum to ``total_ways`` exactly and each is at least ``min_ways``.
    """
    require(len(curves) >= 1, "need at least one curve")
    require(
        total_ways >= len(curves) * min_ways,
        "associativity cannot satisfy the per-core minimum",
    )
    nodes = [_leaf(c, min_ways, total_ways) for c in curves]
    while len(nodes) > 1:
        nxt = []
        for i in range(0, len(nodes) - 1, 2):
            nxt.append(_combine(nodes[i], nodes[i + 1], total_ways, meter))
        if len(nodes) % 2:
            nxt.append(nodes[-1])
        nodes = nxt
    return _select(nodes[0], len(curves), total_ways)


def partition_clusters(ncores: int, cluster_size: int) -> tuple[tuple[int, ...], ...]:
    """Partition ``range(ncores)`` into contiguous clusters of ``cluster_size``.

    The last cluster absorbs the remainder when ``ncores`` is not an exact
    multiple.  Contiguous blocks in core order keep the hierarchical
    reduction's pairing deterministic and make the single-cluster case
    (``cluster_size >= ncores``) structurally identical to the flat tree.
    """
    require(cluster_size >= 1, "cluster size must be at least one core")
    return tuple(
        tuple(range(lo, min(lo + cluster_size, ncores)))
        for lo in range(0, ncores, cluster_size)
    )


def cluster_way_caps(
    total_ways: int,
    ncores: int,
    clusters: tuple[tuple[int, ...], ...],
    min_ways: int,
    overprovision: float = 2.0,
) -> tuple[int, ...]:
    """Per-cluster LLC way budgets for the hierarchical reduction.

    Each cluster's intra-cluster combines are capped at ``overprovision``
    times its proportional share of the associativity (rounded up), clamped
    to ``total_ways``: the cap is what makes the cluster tier cheaper than
    the flat reduction (intra-cluster curve arrays stay narrow), while the
    overprovision headroom lets a cache-hungry cluster draw ways from its
    neighbours.  Every cap is at least the cluster's feasibility floor
    (``members * min_ways``), the caps sum to at least ``total_ways`` for
    any ``overprovision >= 1``, and a cluster covering every core is capped
    at exactly ``total_ways`` -- the single-cluster equivalence case.
    """
    require(overprovision >= 1.0, "overprovision must be at least 1.0")
    caps = []
    for members in clusters:
        share = len(members) * total_ways / ncores
        cap = min(total_ways, max(len(members) * min_ways,
                                  math.ceil(overprovision * share)))
        caps.append(int(cap))
    return tuple(caps)


def _select_total(root: _Node, nleaves: int, total_ways: int) -> int | None:
    """The root's way total for back-tracking, or None if infeasible.

    One shared selection rule for the from-scratch and persistent solvers:
    a single core owns the whole cache (clamped to its curve's width);
    otherwise the full associativity must be distributed, and the root's
    energy there must be finite.
    """
    if nleaves == 1:
        s = min(total_ways, root.max_ways)
    else:
        s = total_ways
    if not (root.min_ways <= s <= root.max_ways):
        return None
    if not np.isfinite(root.epi[s - root.min_ways]):
        return None
    return s


def _select(root: _Node, nleaves: int, total_ways: int) -> dict[int, tuple[int, int, int]] | None:
    """Pick the root's way total and back-track the per-core assignment."""
    s = _select_total(root, nleaves, total_ways)
    if s is None:
        return None
    out: dict[int, tuple[int, int, int]] = {}
    _assign(root, s, out)
    return out


class ReductionTree:
    """Persistent min-plus reduction tree over one energy curve per core.

    Mirrors :func:`global_optimize`'s pairing order exactly -- leaves in core
    order, adjacent pairs combined level by level, an odd trailing node
    carried up unchanged -- so assignments (including argmin tie-breaking)
    are bit-identical to a from-scratch rebuild over the same leaf curves.

    ``set_leaf`` marks a leaf dirty only when its curve actually changed
    (object identity first, then array equality), ``invalidate`` forces a
    leaf dirty (scenario swap/depart/arrive splices), and ``solve``
    re-combines only the dirty root paths.  Skipped combine nodes re-charge
    their cached DP-cell counts, keeping the metered RMA overhead identical
    to the from-scratch path: the meter models the cost of the paper's
    *on-line algorithm*, which always reduces all ``N - 1`` pairs, while the
    tree is a simulator-side optimisation that must not change any result.
    """

    def __init__(self, ncores: int, total_ways: int, min_ways: int = 1) -> None:
        require(ncores >= 1, "need at least one leaf")
        require(
            total_ways >= ncores * min_ways,
            "associativity cannot satisfy the per-core minimum",
        )
        self.ncores = ncores
        self.total_ways = total_ways
        self.min_ways = min_ways
        self._curves: list[EnergyCurve | None] = [None] * ncores
        # Level 0 holds the leaves; level L+1 pairs level L's slots in order.
        # An entry (a, b) combines two slots; (a, None) passes slot a through.
        self._slots: list[list[tuple[int, int | None]]] = []
        width = ncores
        while width > 1:
            level: list[tuple[int, int | None]] = [
                (i, i + 1) for i in range(0, width - 1, 2)
            ]
            if width % 2:
                level.append((width - 1, None))
            self._slots.append(level)
            width = len(level)
        self._nodes: list[list[_Node | None]] = [[None] * ncores] + [
            [None] * len(level) for level in self._slots
        ]
        self._dirty: list[list[bool]] = [[True] * len(row) for row in self._nodes]
        # Any-dirty flag plus cached root: a refresh of a fully clean tree
        # is one replay charge, not a per-slot walk.
        self._dirty_any = True
        self._root: _Node | None = None
        # Total DP cells of every combine node currently in the tree (what a
        # from-scratch rebuild would charge), maintained by refresh.
        self._replay_cells = 0
        # The previous solve's full assignment, backing the pruned walk.
        self._last_assignment: dict[int, tuple[int, int, int]] | None = None

    @property
    def replay_cells(self) -> int:
        """DP cells a refresh of this tree in its current (clean) state
        replays to the meter: the summed cost of every combine node, i.e.
        what a from-scratch rebuild over the same leaves would charge.
        Valid after a refresh; callers batching clean-tree charges (the
        hierarchical manager's stale-cluster skip) read it instead of
        walking the tree."""
        return self._replay_cells

    def invalidate(self, core_id: int) -> None:
        """Force the leaf dirty (the tenant behind it was spliced in/out)."""
        self._dirty[0][core_id] = True
        self._dirty_any = True

    def set_leaf(self, core_id: int, curve: EnergyCurve) -> None:
        """Install a leaf curve, marking it dirty only if it changed."""
        prev = self._curves[core_id]
        if not self._dirty[0][core_id] and prev is not None:
            if prev is curve or prev.same_curve(curve):
                self._curves[core_id] = curve
                return
        self._curves[core_id] = curve
        self._nodes[0][core_id] = _leaf(curve, self.min_ways, self.total_ways)
        self._dirty[0][core_id] = True
        self._dirty_any = True

    def set_leaves(self, curves: list[EnergyCurve]) -> None:
        """Install one curve per leaf slot, in slot order (grouped refresh).

        Equivalent to ``set_leaf(i, curves[i])`` for every slot, with the
        per-call plumbing hoisted: the hierarchical manager refreshes a
        whole cluster's leaves with one call per invocation instead of a
        per-core method walk.
        """
        require(len(curves) == self.ncores, "need exactly one curve per leaf")
        held = self._curves
        dirty = self._dirty[0]
        nodes = self._nodes[0]
        for i, curve in enumerate(curves):
            prev = held[i]
            if not dirty[i] and prev is not None:
                if prev is curve or prev.same_curve(curve):
                    held[i] = curve
                    continue
            held[i] = curve
            nodes[i] = _leaf(curve, self.min_ways, self.total_ways)
            dirty[i] = True
            self._dirty_any = True

    def set_leaf_node(self, slot: int, node: _Node, dirty: bool) -> None:
        """Install a prebuilt aggregate node as leaf ``slot`` (cluster tier).

        The hierarchical manager feeds each cluster's root node into its
        second-level tree through this method: the node already carries its
        combined epi array and back-track splits, so the second level
        treats it exactly like a (wide) leaf curve.  ``dirty`` is the
        cluster tree's report of whether any of its own root path was
        re-combined; a clean, identical root keeps the second-level subtree
        cached.
        """
        self._nodes[0][slot] = node
        if dirty:
            self._dirty[0][slot] = True
            self._dirty_any = True

    def refresh(self, meter: OverheadMeter | None = None) -> tuple[_Node, bool]:
        """Re-combine the dirty root paths; return ``(root, changed)``.

        ``changed`` reports whether the root node was rebuilt this call --
        the signal a second-level tree needs to decide whether this tree's
        aggregate leaf is dirty.  Skipped combine work still re-charges its
        cached DP-cell counts on ``meter`` (see :meth:`solve`), batched into
        one charge per refresh: the costs are exact integers, so one summed
        charge is bit-identical to the per-node charges it replaces.  A
        fully clean tree short-circuits to that single replay charge
        without walking its slots at all.
        """
        if not self._dirty_any and self._root is not None:
            if meter is not None and self._replay_cells:
                meter.charge_replay(dp_cells=self._replay_cells)
            return self._root, False
        require(all(n is not None for n in self._nodes[0]), "every leaf needs a curve")
        replay_cells = 0
        total_cells = 0
        for lvl, level in enumerate(self._slots, start=1):
            nodes, below = self._nodes[lvl], self._nodes[lvl - 1]
            dirty, dirty_below = self._dirty[lvl], self._dirty[lvl - 1]
            for s, (a, b) in enumerate(level):
                if b is None:
                    # Odd trailing node: carried up unchanged, no DP work.
                    nodes[s] = below[a]
                    dirty[s] = dirty_below[a]
                    continue
                node = nodes[s]
                if node is None or dirty_below[a] or dirty_below[b]:
                    node = _combine(below[a], below[b], self.total_ways, meter)
                    nodes[s] = node
                    dirty[s] = True
                else:
                    # Clean subtree: replay the DP cost a rebuild would pay.
                    replay_cells += node.dp_cells
                total_cells += node.dp_cells
        if meter is not None and replay_cells:
            meter.charge_replay(dp_cells=replay_cells)
        self._replay_cells = total_cells
        changed = self._dirty[-1][0]
        for row in self._dirty:
            for i in range(len(row)):
                row[i] = False
        self._dirty_any = False
        self._root = self._nodes[-1][0]
        return self._root, changed

    def _assign_pruned(
        self,
        node: _Node,
        s: int,
        out: dict[int, tuple[int, int, int]],
        prev: dict[int, tuple[int, int, int]] | None,
    ) -> None:
        """Back-track ``node`` at way total ``s``, reusing unchanged subtrees.

        A node whose ``(last_tree, last_s)`` stamp equals ``(self, s)`` has
        not been rebuilt since a walk *by this tree* that gave it the same
        total (combines always produce fresh, unstamped nodes), so its
        subtree's assignment is the one this tree's previous solve recorded
        -- copy those entries instead of recursing.  Values are identical
        by construction; only Python walk work is skipped.  The tree check
        makes sharing nodes across trees (the cluster tier feeds cluster
        roots into the second-level tree) structurally safe: another
        tree's stamps never satisfy this tree's prune.
        """
        if prev is not None and node.last_s == s and node.last_tree is self:
            for cid in node.leaf_ids:
                out[cid] = prev[cid]
            return
        node.last_s = s
        node.last_tree = self
        if node.curve is not None:
            out[node.curve.core_id] = node.curve.setting_at(s)
            return
        sl = int(node.split[s - node.min_ways])
        self._assign_pruned(node.left, sl, out, prev)
        self._assign_pruned(node.right, s - sl, out, prev)

    def solve(self, meter: OverheadMeter | None = None) -> dict[int, tuple[int, int, int]] | None:
        """Optimal assignment over the current leaves (or None if infeasible).

        Bit-identical to ``global_optimize(curves, total_ways, min_ways,
        meter)`` over the same curves, in both the assignment and the meter
        charges.  The back-track walk is pruned against the previous
        solve's assignment (see :meth:`_assign_pruned`), so its Python cost
        scales with what actually changed, not with the core count.
        """
        root, _ = self.refresh(meter)
        s = _select_total(root, self.ncores, self.total_ways)
        if s is None:
            return None
        prev = self._last_assignment
        if prev is not None and root.last_s == s and root.last_tree is self:
            return prev
        out: dict[int, tuple[int, int, int]] = {}
        self._assign_pruned(root, s, out, prev)
        self._last_assignment = out
        return out
