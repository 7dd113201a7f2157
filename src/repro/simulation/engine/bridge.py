"""The manager bridge: the narrow API resource managers are driven through.

:mod:`repro.core.managers` was written against the monolithic simulator's
surface; the bridge pins that surface down as an explicit contract --
``system`` plus six methods -- so the kernel behind it can be restructured
freely without touching manager code.  ``manager.attach`` receives the
bridge, and every read a manager performs goes through it.
"""

from __future__ import annotations

import numpy as np

from repro.config import Allocation
from repro.simulation.database import PhaseRecord
from repro.util.validation import require

__all__ = ["ManagerBridge"]


class ManagerBridge:
    """Read-only view of kernel state exposed to resource managers."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        #: The platform under management (managers read dimension spaces,
        #: baseline allocation and QoS anchor from it).
        self.system = kernel.system

    def slack(self, core_id: int) -> float:
        """The core's current QoS slack (0.0 = strict baseline QoS)."""
        return self._kernel.cores[core_id].slack

    def current_alloc(self, core_id: int) -> Allocation:
        """The core's currently applied (core size, VF, ways) setting."""
        return self._kernel.cores[core_id].alloc

    def is_active(self, core_id: int) -> bool:
        """False while the core idles between scenario tenants."""
        return self._kernel.cores[core_id].active

    def completed_snapshot(self, core_id: int):
        """Hardware-counter snapshot of the last completed interval."""
        return self._kernel.cores[core_id].last_snapshot

    def completed_record(self, core_id: int) -> PhaseRecord:
        """Database record (sampled ATD curves) of the last completed interval."""
        rec = self._kernel.cores[core_id].last_record
        require(rec is not None, "no completed interval yet")
        return rec

    def upcoming_record(self, core_id: int) -> PhaseRecord:
        """Record of the slice the core is currently executing (oracle view)."""
        return self._kernel.scheduler.record(core_id)

    # -- batched accessors (the vectorised manager pipeline) -------------------
    def active_core_ids(self) -> list[int]:
        """Cores currently executing a tenant, in core order.

        One vector read of the struct-of-arrays active mask (plain ``int``
        ids, so they key manager dicts exactly like the per-core path's).
        """
        return [int(j) for j in np.nonzero(self._kernel.arrays.active)[0]]

    def inactive_core_ids(self) -> list[int]:
        """Cores currently idle (power-gated), in core order.

        The complement of :meth:`active_core_ids`, with an all-active fast
        path -- the common case on fixed workloads, where managers would
        otherwise materialise the full id list just to learn nothing idles.
        """
        mask = self._kernel.arrays.active
        if mask.all():
            return []
        return [int(j) for j in np.nonzero(~mask)[0]]

    def upcoming_records(self, core_ids: list[int]) -> list[PhaseRecord]:
        """Batched :meth:`upcoming_record`: one scheduler read per core.

        The batched manager pipeline stacks these records' grids into
        ``(N, C, F, W)`` tensors; managers fall back to per-core
        :meth:`upcoming_record` calls on simulators without this method
        (the frozen legacy reference).
        """
        record = self._kernel.scheduler.record
        return [record(j) for j in core_ids]
