"""Packed level-synchronous min-plus reduction: the managers' reduction.

The node-graph :class:`~repro.core.global_opt.ReductionTree` walks its
combine nodes one at a time, so a 64-256-core invocation issues hundreds of
small NumPy dispatches (one padded-window add + argmin per node) and, at
the top of the tree, computes full ``O(ways^2)`` DP matrices of which the
solve reads a single column.  :class:`PackedReduction` keeps the *same*
reduction --
identical pairing order, identical argmin tie-breaks, identical metered
DP-cell accounting -- in a packed struct-of-arrays layout:

* **level-synchronous storage** -- all combine nodes of one tree level
  live in one padded ``(nodes, ways)`` float64 matrix, and a hierarchy
  stacks every cluster's level-l nodes into the same matrix, so one
  refresh performs ~log N batched sliding-window min-plus convolutions
  instead of per-node dispatches.  Refresh stores *values only*: the
  back-track walk reads exactly one split index per visited row, so
  splits are recovered lazily (:meth:`PackedReduction._split_at`) from
  the still-valid children instead of materialising ``O(ways)`` argmins
  per row per refresh;
* **needed-range truncation** -- the root is only ever read at one way
  total ``S`` (the full associativity), so each node stores just the
  column range its computed ancestors can read, propagated top-down:
  ``child_needed = [max(child_lo, parent_lo - sibling_hi),
  min(child_hi, parent_hi - sibling_lo)]``.  The root's "matrix" is a
  single column; at 256 cores this removes over half the DP cells without
  changing any computed value (every in-range ``(sl, s - sl)`` pair a
  computed parent column reads lies inside both children's needed
  ranges, so the finite candidate set -- and the ascending-``sl``
  first-minimum tie-break -- is exactly the reference's);
* **static meter totals** -- the modelled RMA cost of one invocation is
  the sum of every combine node's *untruncated* DP-cell count, a constant
  of the tree shape, charged as one integer-exact
  :meth:`~repro.core.overhead_meter.OverheadMeter.charge_replay` per
  solve (bit-identical to the per-node charges of the node-graph path:
  integer DP-cell counts are exact in float64 and order-free).

Every incremental manager, flat (one group) or clustered, runs this
reduction at every core count.  The node-graph
:class:`~repro.core.global_opt.ReductionTree` is kept as the golden
reference: ``tests/test_packed_tree.py`` asserts bit-identity --
assignments, splits, meter charges -- across random widths, odd leaf
counts, way caps and splice orders.

Batched sweep layout (one tree level, ``m`` dirty rows)::

    L (m, NK+NB-1)  inf-filled; row i holds child-a energies, placed so
                    window t reads a[t + j - (NB-1) + k0]
    R (m, NB)       inf-filled; row i holds child-b energies reversed,
                    right-aligned (leading inf pads absorb width
                    heterogeneity across the rows of one level)
    windows         as_strided view of L, shape (m, NK, NB)
    totals          windows + R[:, None, :]; the min over axis 2 is every
                    (row, sum) cell's combined energy

Out-of-range candidates land on ``inf`` pads and can never win or tie a
finite minimum, exactly like the reference's padded single-node combine.
"""

from __future__ import annotations

import numpy as np

from repro.core.curves import EnergyCurve
from repro.core.global_opt import _dp_cell_count, _scratch
from repro.core.overhead_meter import OverheadMeter
from repro.util.validation import require

__all__ = ["PackedReduction"]


class _Rec:
    """One node of the reduction plan while it is being built."""

    __slots__ = ("lev", "row", "lo", "hi", "nlo", "nhi", "src_a", "src_b", "span")

    def __init__(self, lev, row, lo, hi, span, src_a=None, src_b=None):
        self.lev = lev
        self.row = row
        self.lo = lo          # true combined range (the reference node's)
        self.hi = hi
        self.nlo = -1         # needed (stored) range, assigned top-down
        self.nhi = -1
        self.src_a = src_a    # child records (None for leaves)
        self.src_b = src_b
        self.span = span      # [i0, i1) leaf slots underneath


class _Level:
    """Packed storage plus per-row metadata for one combine level."""

    __slots__ = (
        "E", "stamp", "src", "alo", "blo", "na", "nb",
        "nlo", "nk", "k0", "NB", "M", "width", "WL", "place",
        "flo", "fhi", "_one",
    )

    def __init__(self, recs: list[_Rec]) -> None:
        nrows = len(recs)
        self.src = [None] * nrows   # ((lev_a, row_a), (lev_b, row_b))
        self.alo = [0] * nrows      # children's stored (needed) lo
        self.blo = [0] * nrows
        self.na = [0] * nrows       # children's stored widths
        self.nb = [0] * nrows
        self.nlo = [0] * nrows      # this row's stored lo
        self.nk = [0] * nrows       # this row's stored width
        self.k0 = [0] * nrows       # nlo - (alo + blo), the window base
        self.stamp = [-1] * nrows   # way total of the last back-track visit
        for rec in recs:
            r = rec.row
            a, b = rec.src_a, rec.src_b
            self.src[r] = ((a.lev, a.row), (b.lev, b.row))
            self.alo[r] = a.nlo
            self.blo[r] = b.nlo
            self.na[r] = a.nhi - a.nlo + 1
            self.nb[r] = b.nhi - b.nlo + 1
            self.nlo[r] = rec.nlo
            self.nk[r] = rec.nhi - rec.nlo + 1
            self.k0[r] = rec.nlo - (a.nlo + b.nlo)
        self.NB = max(self.nb)
        #: Static sweep width: every refresh sweeps the level's full window
        #: count, so buffer shapes -- and the strided views over them --
        #: depend only on the level, never on the dirty subset.
        self.width = max(self.nk)
        self.WL = self.width + self.NB - 1
        #: Single-row sweeps orient the *narrower* child onto the candidate
        #: axis (min-plus convolution commutes), so their buffers are sized
        #: by the widest narrow side of the level, not by max(nb).
        self.M = max(min(na, nb) for na, nb in zip(self.na, self.nb))
        # a-placement (ofs, start, stop) per row: static functions of the
        # plan, hoisted out of the per-refresh loop.
        self.place = []
        for r in range(nrows):
            start = self.k0[r] - (self.NB - 1)
            if start < 0:
                start = 0
            ofs = (self.NB - 1) - self.k0[r] + start
            stop = start + min(self.na[r] - start, self.WL - ofs)
            self.place.append((ofs, start, stop))
        self.E = np.full((nrows, self.width), np.inf)
        # Finite-support bounding box per row (absolute way counts,
        # flo > fhi = all-inf row).  Idle and QoS-pruned curves leave most
        # of a row infinite; sweeps restrict to the box (see _compute_row).
        self.flo = [0] * nrows
        self.fhi = [-1] * nrows
        self._one = None            # lazy single-row sweep buffers

    def one_buffers(self):
        """Per-level buffers for the single-dirty-row sweep (the common
        steady-state shape: one core's curve changed, so every level of its
        root path has exactly one dirty row).  Built once per level, sized
        for the worst (unrestricted) box; box-restricted sweeps use a
        prefix."""
        one = self._one
        if one is None:
            # L1 is padded so the full strided window view below stays
            # in-bounds; sweeps only ever read its [:WLp] prefix.  Building
            # the (WLmax, M) view once per level lets each sweep take a
            # plain [:NKp, :NBp] slice instead of paying as_strided's
            # dispatch.  M (not max(nb)) bounds the candidate axis because
            # single-row sweeps put the narrower child there.
            M = self.M
            wlmax = self.width + M - 1
            L1 = np.full(wlmax + M - 1, np.inf)
            (s,) = L1.strides
            win = np.lib.stride_tricks.as_strided(L1, (wlmax, M), (s, s))
            R1 = np.empty(M)
            tflat = np.empty(self.width * M)
            one = self._one = (L1, R1, tflat, win)
        return one


class PackedReduction:
    """Min-plus reduction over grouped leaves in packed level matrices.

    ``group_sizes``/``group_caps`` describe the hierarchy: each group's
    leaves reduce under its own way cap (the intra-cluster stage), then
    the group roots reduce under ``total_ways`` (the second-level stage).
    A single group of all leaves with ``cap == total_ways`` *is* the flat
    tree.  Pairing order within every stage mirrors
    :class:`~repro.core.global_opt.ReductionTree` exactly -- adjacent
    pairs level by level, an odd trailing node carried up unchanged -- so
    assignments, tie-breaks and metered charges are bit-identical to the
    node-graph hierarchy over the same curves.

    Leaf curves must be at least as wide as their group's cap (the
    managers' curves always span the full associativity); this pins every
    node's true range statically, which is what lets the plan precompute
    needed ranges and the invocation's total DP-cell charge.
    """

    def __init__(
        self,
        group_sizes: tuple[int, ...],
        group_caps: tuple[int, ...],
        total_ways: int,
        min_ways: int = 1,
    ) -> None:
        require(len(group_sizes) >= 1, "need at least one group")
        require(len(group_sizes) == len(group_caps),
                "need exactly one way cap per group")
        self.total_ways = total_ways
        self.min_ways = min_ways
        self.nleaves = sum(group_sizes)
        self._group_sizes = tuple(int(n) for n in group_sizes)
        self._group_base: list[int] = []
        base = 0
        for size, cap in zip(self._group_sizes, group_caps):
            require(size >= 1, "every group needs at least one leaf")
            require(cap >= size * min_ways,
                    "group way cap cannot satisfy the per-leaf minimum")
            self._group_base.append(base)
            base += size
        self._leaf_caps: list[int] = []

        # ---- plan: build the node records stage by stage ------------------
        leaf_recs: list[_Rec] = []
        group_roots: list[_Rec] = []
        by_level: dict[int, list[_Rec]] = {}
        total_cells = 0

        def reduce_stage(nodes: list[_Rec], cap: int, lev0: int) -> tuple[_Rec, int]:
            """Pair ``nodes`` level by level; return (root, depth used)."""
            nonlocal total_cells
            depth = 0
            while len(nodes) > 1:
                depth += 1
                lev = lev0 + depth
                recs = by_level.setdefault(lev, [])
                nxt: list[_Rec] = []
                for i in range(0, len(nodes) - 1, 2):
                    a, b = nodes[i], nodes[i + 1]
                    lo = a.lo + b.lo
                    hi = min(a.hi + b.hi, cap)
                    require(hi >= lo, "combined curve has empty range")
                    rec = _Rec(lev, len(recs), lo, hi,
                               (a.span[0], b.span[1]), a, b)
                    recs.append(rec)
                    nxt.append(rec)
                    total_cells += _dp_cell_count(
                        a.hi - a.lo + 1, b.hi - b.lo + 1, hi - lo + 1
                    )
                if len(nodes) % 2:
                    nxt.append(nodes[-1])  # odd trailing node: carried up
                nodes = nxt
            return nodes[0], depth

        slot = 0
        max_depth = 0
        for size, cap in zip(self._group_sizes, group_caps):
            members = []
            for _ in range(size):
                members.append(_Rec(0, slot, min_ways, cap, (slot, slot + 1)))
                self._leaf_caps.append(cap)
                slot += 1
            leaf_recs.extend(members)
            root, depth = reduce_stage(members, cap, 0)
            max_depth = max(max_depth, depth)
            group_roots.append(root)
        root_rec, _ = reduce_stage(group_roots, total_ways, max_depth)
        # DP cells of a from-scratch rebuild: every combine node's in-range
        # pair count at its *true* (untruncated) shape.  A constant of the
        # plan, charged once per solve -- the packed equivalent of the
        # node-graph path's per-node combine and replay charges.
        self._total_cells = total_cells

        # ---- root way total (static) and needed-range propagation ---------
        if self.nleaves == 1:
            s = min(total_ways, root_rec.hi)
        else:
            s = total_ways
        self._root_s: int | None = (
            s if root_rec.lo <= s <= root_rec.hi else None
        )
        seed = s if self._root_s is not None else root_rec.lo
        root_rec.nlo = root_rec.nhi = seed
        nlevels = max(by_level, default=0)
        for lev in range(nlevels, 0, -1):
            for rec in by_level[lev]:
                a, b = rec.src_a, rec.src_b
                a.nlo = max(a.lo, rec.nlo - b.hi)
                a.nhi = min(a.hi, rec.nhi - b.lo)
                b.nlo = max(b.lo, rec.nlo - a.hi)
                b.nhi = min(b.hi, rec.nhi - a.lo)
        for rec in leaf_recs:
            if rec.nlo < 0:  # an unpaired leaf can only be the root
                rec.nlo, rec.nhi = rec.lo, rec.hi
        self._root_ref = (root_rec.lev, root_rec.row)

        # ---- pack the levels ---------------------------------------------
        self._leaf_nlo = [rec.nlo for rec in leaf_recs]
        self._leaf_nhi = [rec.nhi for rec in leaf_recs]
        w0 = max(rec.nhi - rec.nlo + 1 for rec in leaf_recs)
        self._E0 = np.full((self.nleaves, w0), np.inf)
        self._levels: list[_Level | None] = [None] + [
            _Level(by_level[lev]) for lev in range(1, nlevels + 1)
        ]
        # Parent slot of every materialised node, for dirty propagation.
        parent: dict[tuple[int, int], tuple[int, int]] = {}
        for lev in range(1, nlevels + 1):
            for rec in by_level[lev]:
                parent[(rec.src_a.lev, rec.src_a.row)] = (lev, rec.row)
                parent[(rec.src_b.lev, rec.src_b.row)] = (lev, rec.row)
        self._parent = parent
        # Root path of every leaf slot, bottom-up -- the single-dirty-leaf
        # refresh (the steady state) walks this list directly instead of
        # rebuilding the pending-row propagation maps.
        self._path: list[list[tuple[int, int]]] = []
        for s0 in range(self.nleaves):
            path: list[tuple[int, int]] = []
            up = parent.get((0, s0))
            while up is not None:
                path.append(up)
                up = parent.get(up)
            self._path.append(path)

        self._held: list[EnergyCurve | None] = [None] * self.nleaves
        self._nmissing = self.nleaves  # leaves still awaiting a first curve
        self._dirty_slots: set[int] = set(range(self.nleaves))
        self._stamp0 = [-1] * self.nleaves
        # Leaf finite-support boxes (absolute way counts, flo > fhi = all
        # inf): idle/pinned curves are finite at a single way count, so
        # boxes collapse the sweeps above them to a few columns.
        self._flo0 = [0] * self.nleaves
        self._fhi0 = [-1] * self.nleaves
        self._last_assignment: dict[int, tuple[int, int, int]] | None = None
        #: Core ids whose assignment entry the last solve's walk rewrote
        #: (None until a walk has run).  Every other entry of the returned
        #: dict is object-identical to the previous solve's, which is what
        #: lets the manager translate only the touched cores.
        self.last_touched: list[int] | None = None

    # ---- leaf installation ---------------------------------------------------
    def _write_leaf(self, slot: int, curve: EnergyCurve) -> None:
        require(curve.max_ways >= self._leaf_caps[slot],
                "leaf curve must span its group's way cap")
        nlo, nhi = self._leaf_nlo[slot], self._leaf_nhi[slot]
        if self._held[slot] is None:
            self._nmissing -= 1
        seg = self._E0[slot, : nhi - nlo + 1]
        seg[:] = curve.epi[nlo - 1 : nhi]
        fin = np.flatnonzero(np.isfinite(seg))
        if fin.size:
            self._flo0[slot] = nlo + int(fin[0])
            self._fhi0[slot] = nlo + int(fin[-1])
        else:
            self._flo0[slot] = 0
            self._fhi0[slot] = -1
        self._held[slot] = curve
        self._dirty_slots.add(slot)
        self._stamp0[slot] = -1

    def set_group_leaves(self, group: int, curves: list[EnergyCurve]) -> None:
        """Install one group's member curves (the managers' stale-cluster
        refresh), marking a leaf dirty only if its curve changed;
        untouched groups keep their clean rows."""
        require(len(curves) == self._group_sizes[group],
                "need exactly one curve per group member")
        held = self._held
        dirty = self._dirty_slots
        for slot, curve in enumerate(curves, self._group_base[group]):
            prev = held[slot]
            if prev is not None and slot not in dirty:
                if prev is curve or prev.same_curve(curve):
                    held[slot] = curve
                    continue
            self._write_leaf(slot, curve)

    def invalidate(self, slot: int) -> None:
        """Force the leaf dirty (the tenant behind it was spliced in/out)."""
        self._dirty_slots.add(slot)

    # ---- the level-synchronous refresh ---------------------------------------
    def _row(self, lev: int, row: int, width: int) -> np.ndarray:
        if lev == 0:
            return self._E0[row, :width]
        return self._levels[lev].E[row, :width]

    def _box(self, lev: int, row: int) -> tuple[int, int]:
        """The node's finite-support bounding box (absolute way counts)."""
        if lev == 0:
            return self._flo0[row], self._fhi0[row]
        meta = self._levels[lev]
        return meta.flo[row], meta.fhi[row]

    def _compute_level(self, lev: int, rows: list[int]) -> None:
        """One batched sliding-window min-plus sweep over ``rows``."""
        meta = self._levels[lev]
        m = len(rows)
        NB, NK, WL = meta.NB, meta.width, meta.WL
        L = _scratch(("pk_L", m, WL), (m, WL))
        L.fill(np.inf)
        R = _scratch(("pk_R", m, NB), (m, NB))
        R.fill(np.inf)
        for i, r in enumerate(rows):
            (la, ra), (lb, rb) = meta.src[r]
            a = self._row(la, ra, meta.na[r])
            b = self._row(lb, rb, meta.nb[r])
            # Place a so window t candidate j reads a[t + j - (NB-1) + k0];
            # entries below index k0-(NB-1) are outside every window.
            ofs, start, stop = meta.place[r]
            L[i, ofs : ofs + (stop - start)] = a[start:stop]
            R[i, NB - meta.nb[r] :] = b[::-1]
            # Finite-support bookkeeping (the batched sweep computes the
            # full rectangle regardless; inf child entries yield inf).
            aflo, afhi = self._box(la, ra)
            bflo, bfhi = self._box(lb, rb)
            if aflo > afhi or bflo > bfhi:
                meta.flo[r], meta.fhi[r] = 0, -1
            else:
                nlo = meta.nlo[r]
                meta.flo[r] = max(nlo, aflo + bflo)
                meta.fhi[r] = min(nlo + meta.nk[r] - 1, afhi + bfhi)
        s0, s1 = L.strides
        # Candidate-major orientation: window cell (j, t) reads L[i, j + t],
        # symmetric in (j, t), so the transposed view has the same strides.
        # Summing and reducing along axis 1 then streams contiguous
        # NK-length rows (SIMD across outputs) instead of scanning NB
        # strided cells per output; min is order-independent, so values
        # are bit-identical to the output-major sweep.
        windows = np.lib.stride_tricks.as_strided(L, (m, NB, NK), (s0, s1, s1))
        totals = _scratch(("pk_T", m, NB, NK), (m, NB, NK))
        np.add(windows, R[:, :, None], out=totals)
        vals = np.minimum.reduce(totals, axis=1)
        E = meta.E
        for i, r in enumerate(rows):
            nk = meta.nk[r]
            E[r, :nk] = vals[i, :nk]
            meta.stamp[r] = -1

    def _compute_row(self, lev: int, r: int) -> None:
        """Single-dirty-row sweep restricted to the finite bounding box.

        The steady-state shape -- one core's curve changed, so every level
        of its root path has exactly one dirty row -- and the sweep is
        bandwidth-bound at the top levels, so it runs over the smallest
        window rectangle that can hold a finite total: columns limited to
        ``[a_flo + b_flo, a_fhi + b_fhi]``, candidates to child b's box.
        Every excluded cell is the sum of at least one infinite child
        entry, so its value is ``inf`` either way; computed values are
        exactly :meth:`_compute_level`'s.  Width-1 child boxes (pinned or
        idle subtrees) collapse the rectangle to a single vector add.
        Splits are not materialised at all -- :meth:`_split_at` recovers
        the one split per row the back-track walk actually reads.
        """
        meta = self._levels[lev]
        (la, ra), (lb, rb) = meta.src[r]
        if la == 0:
            aflo, afhi, a = self._flo0[ra], self._fhi0[ra], self._E0[ra]
        else:
            ma = self._levels[la]
            aflo, afhi, a = ma.flo[ra], ma.fhi[ra], ma.E[ra]
        if lb == 0:
            bflo, bfhi, b = self._flo0[rb], self._fhi0[rb], self._E0[rb]
        else:
            mb = self._levels[lb]
            bflo, bfhi, b = mb.flo[rb], mb.fhi[rb], mb.E[rb]
        nlo = meta.nlo[r]
        E_row = meta.E[r]
        plo = aflo + bflo
        if plo < nlo:
            plo = nlo
        phi = afhi + bfhi
        nhi = nlo + meta.nk[r] - 1
        if phi > nhi:
            phi = nhi
        # Cells outside the previously recorded box are inf already (every
        # write path maintains that invariant), so clearing the old box's
        # span re-establishes an all-inf row without touching full width.
        oflo, ofhi = meta.flo[r], meta.fhi[r]
        if aflo > afhi or bflo > bfhi or plo > phi:
            if oflo <= ofhi:
                E_row[oflo - nlo : ofhi - nlo + 1].fill(np.inf)
            meta.flo[r] = 0
            meta.fhi[r] = -1
            meta.stamp[r] = -1
            return
        NKp = phi - plo + 1
        k0p = plo - (aflo + bflo)
        t0 = plo - nlo
        a0 = aflo - meta.alo[r]
        b0 = bflo - meta.blo[r]
        if oflo <= ofhi and (oflo < plo or ofhi > phi):
            E_row[oflo - nlo : ofhi - nlo + 1].fill(np.inf)
        out = E_row[t0 : t0 + NKp]
        if bflo == bfhi:
            # Width-1 b box: output n = wa + bflo is the only candidate
            # that can be finite, so the sweep is a's diagonal plus one
            # scalar.  Cells whose a entry is inf stay inf exactly like
            # the full sweep's.
            np.add(a[a0 + k0p : a0 + k0p + NKp], b[b0], out=out)
        elif aflo == afhi:
            # Width-1 a box: the mirror case.
            np.add(b[b0 + k0p : b0 + k0p + NKp], a[a0], out=out)
        elif NKp == 1:
            # Single output cell (the needed-range-truncated root): the
            # exact candidate overlap is one vector add, no rectangle.
            lo = plo - bfhi
            if lo < aflo:
                lo = aflo
            hi = plo - bflo
            if hi > afhi:
                hi = afhi
            va = a[a0 + lo - aflo : a0 + hi - aflo + 1]
            vb = b[b0 + plo - hi - bflo : b0 + plo - lo - bflo + 1]
            E_row[t0] = np.add(va, vb[::-1]).min() if lo < hi else va[0] + vb[0]
        else:
            if afhi - aflo < bfhi - bflo:
                # Min-plus convolution commutes, so orient the narrower
                # child onto the candidate axis: the swept rectangle is
                # NKp x min(box widths) instead of NKp x b's width.
                a, b = b, a
                a0, b0 = b0, a0
                aflo, afhi, bflo, bfhi = bflo, bfhi, aflo, afhi
            L1, R1, tflat, win_full = meta.one_buffers()
            # Box-local sweep geometry: same formulas as the plan's static
            # placement, over the sliced children a' = a[box], b' = b[box].
            naa = afhi - aflo + 1
            NBp = bfhi - bflo + 1
            WLp = NKp + NBp - 1
            start = k0p - (NBp - 1)
            if start < 0:
                start = 0
            ofs = (NBp - 1) - k0p + start
            stop = start + min(naa - start, WLp - ofs)
            L1[:WLp].fill(np.inf)
            L1[ofs : ofs + (stop - start)] = a[a0 + start : a0 + stop]
            R1[:NBp] = b[b0 : b0 + NBp][::-1]
            # Candidate-major orientation: the transposed window's rows are
            # contiguous L1 slices and the reduction runs over the outer
            # axis, so both the add and the min vectorise over contiguous
            # memory (~25% faster than output-major on wide rows; min is
            # order-independent, so the values are bit-identical).
            tot = tflat[: NKp * NBp].reshape(NBp, NKp)
            np.add(win_full[:NKp, :NBp].T, R1[:NBp, None], out=tot)
            np.minimum.reduce(tot, axis=0, out=out)
        meta.flo[r] = plo
        meta.fhi[r] = phi
        meta.stamp[r] = -1

    def _refresh(self) -> bool:
        """Recombine every root path with a dirty leaf; True if the root
        was rebuilt.  One batched sweep per level covers all dirty rows of
        all groups at that level simultaneously; a level with a single
        dirty row takes the dispatch-light :meth:`_compute_row` path."""
        dirty_slots = self._dirty_slots
        if not dirty_slots:
            return False
        require(not self._nmissing, "every leaf needs a curve")
        if len(dirty_slots) == 1:
            # Steady state: one core's curve changed, so the dirty region
            # is exactly that leaf's precomputed root path (which always
            # ends at -- and therefore rebuilds -- the root).
            (slot,) = dirty_slots
            for lev, row in self._path[slot]:
                self._compute_row(lev, row)
            dirty_slots.clear()
            return True
        parent = self._parent
        pending: dict[int, set[int]] = {}
        for slot in dirty_slots:
            up = parent.get((0, slot))
            if up is not None:
                pending.setdefault(up[0], set()).add(up[1])
        root_lev, root_row = self._root_ref
        root_rebuilt = root_lev == 0 and root_row in dirty_slots
        for lev in range(1, len(self._levels)):
            rows = pending.get(lev)
            if not rows:
                continue
            if len(rows) == 1:
                (row,) = rows
                self._compute_row(lev, row)
                ordered = rows
            else:
                ordered = sorted(rows)
                self._compute_level(lev, ordered)
            if lev == root_lev and root_row in rows:
                root_rebuilt = True
            for r in ordered:
                up = parent.get((lev, r))
                if up is not None:
                    pending.setdefault(up[0], set()).add(up[1])
        dirty_slots.clear()
        return root_rebuilt

    # ---- solve ---------------------------------------------------------------
    def _split_at(self, meta: _Level, r: int, sh: int,
                  la: int, ra: int, lb: int, rb: int) -> int:
        """Left-child way count of the finite cell ``(r, sh)``, recovered
        lazily from the children.

        Refresh stores only min values; the back-track walk reads exactly
        one split per visited row, so that split is recomputed here as the
        first minimum over the cell's box-clipped candidates in ascending
        ``sl`` order -- the reference's tie-break.  Valid because dirty
        propagation rebuilds every ancestor of a changed node before any
        solve, so the child rows read here are the ones the cell's value
        was combined from; candidates outside the finite boxes are
        infinite and cannot win or tie the (finite) minimum the cell
        holds, so clipping preserves the first-minimum choice exactly.
        """
        if la == 0:
            aflo, afhi, a = self._flo0[ra], self._fhi0[ra], self._E0[ra]
        else:
            ma = self._levels[la]
            aflo, afhi, a = ma.flo[ra], ma.fhi[ra], ma.E[ra]
        if lb == 0:
            bflo, bfhi, b = self._flo0[rb], self._fhi0[rb], self._E0[rb]
        else:
            mb = self._levels[lb]
            bflo, bfhi, b = mb.flo[rb], mb.fhi[rb], mb.E[rb]
        lo = sh - bfhi
        if lo < aflo:
            lo = aflo
        hi = sh - bflo
        if hi > afhi:
            hi = afhi
        if lo == hi:
            return lo
        alo = meta.alo[r]
        blo = meta.blo[r]
        va = a[lo - alo : hi - alo + 1]
        vb = b[sh - hi - blo : sh - lo - blo + 1]
        tmp = meta.one_buffers()[2][: hi - lo + 1]
        np.add(va, vb[::-1], out=tmp)
        return lo + int(tmp.argmin())

    def _root_stamp(self) -> int:
        lev, row = self._root_ref
        return self._stamp0[row] if lev == 0 else self._levels[lev].stamp[row]

    def refresh(self, meter: OverheadMeter | None = None) -> bool:
        """Charge the invocation's static DP total and recombine dirty paths."""
        if meter is not None and self._total_cells:
            meter.charge_replay(dp_cells=self._total_cells)
        return self._refresh()

    def solve(self, meter: OverheadMeter | None = None) -> dict[int, tuple[int, int, int]] | None:
        """Optimal assignment over the current leaves (or None if infeasible).

        Bit-identical -- assignment, tie-breaks, meter charges -- to the
        node-graph hierarchy (or flat tree) over the same curves.  Like the
        reference, an unchanged root returns the previous assignment *dict
        object*, preserving the downstream identity short-circuits
        (allocation-map cache, kernel apply skip).
        """
        self.refresh(meter)
        s = self._root_s
        if s is None:
            return None
        lev, row = self._root_ref
        if lev == 0:
            nlo, E = self._leaf_nlo[row], self._E0
        else:
            meta = self._levels[lev]
            nlo, E = meta.nlo[row], meta.E
        if E[row, s - nlo] == np.inf:  # never NaN: curves are finite or inf
            return None
        prev = self._last_assignment
        if prev is not None and self._root_stamp() == s:
            self.last_touched = []
            return prev
        # Start from the previous assignment (one C-speed dict copy: the
        # leaf set is fixed, so its keys are exactly the output keys) and
        # overwrite only the re-walked paths; a subtree whose stamp matches
        # the incoming way total kept its previous assignment verbatim.
        out: dict[int, tuple[int, int, int]] = {} if prev is None else dict(prev)
        touched: list[int] = []
        held = self._held
        stamp0 = self._stamp0
        stack = [(lev, row, s)]
        while stack:
            lv, r, sh = stack.pop()
            if lv == 0:
                if stamp0[r] == sh and prev is not None:
                    continue
                stamp0[r] = sh
                curve = held[r]
                out[curve.core_id] = curve.setting_at(sh)
                touched.append(curve.core_id)
                continue
            meta = self._levels[lv]
            if meta.stamp[r] == sh and prev is not None:
                continue
            meta.stamp[r] = sh
            (la, ra), (lb, rb) = meta.src[r]
            sl = self._split_at(meta, r, sh, la, ra, lb, rb)
            stack.append((lb, rb, sh - sl))
            stack.append((la, ra, sl))
        self._last_assignment = out
        self.last_touched = touched
        return out
