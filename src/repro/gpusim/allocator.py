"""Device-memory accounting: a budget every allocation is charged against.

The paper's variants differ sharply in footprint — a bitmap working set
is a fixed ``O(|V|/8)`` while a queue grows with the frontier — and on
LiveJournal-scale graphs that difference decides whether a traversal
fits on a Tesla C2070 at all.  :class:`MemoryBudget` makes that a
modeled, survivable constraint: the traversal frame charges the CSR
arrays, traversal state, each iteration's materialized working set and
every checkpoint staging copy against a capacity, and an allocation
that does not fit raises :class:`~repro.errors.DeviceOOMError` (or, in
*spill* mode, overflows to host memory and reports the spilled bytes so
the frame can price the extra PCIe traffic).

Categories keep the accounting explainable: ``graph`` and ``state`` are
resident for the whole query and can never spill; ``workset`` and
``checkpoint`` vary per iteration and are the spillable categories the
guarded runner's OOM recovery ladder manipulates.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import DeviceError, DeviceOOMError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import workset_device_bytes
from repro.obs.context import current_observer

__all__ = [
    "ALLOCATION_CATEGORIES",
    "SPILLABLE_CATEGORIES",
    "MemoryBudget",
    "MemoryReport",
    "parse_mem_size",
]

#: accounting categories, in rough allocation order within a query
ALLOCATION_CATEGORIES = ("graph", "state", "workset", "checkpoint", "other")

#: categories that may overflow to host memory when spill mode is on
SPILLABLE_CATEGORIES = ("workset", "checkpoint")

_SIZE_PATTERN = re.compile(
    r"^\s*(?P<num>\d+(?:\.\d+)?)\s*(?P<unit>[kmgt]i?b?|b)?\s*$", re.IGNORECASE
)

_UNIT_BYTES = {
    "": 1,
    "b": 1,
    "k": 1024,
    "m": 1024**2,
    "g": 1024**3,
    "t": 1024**4,
}


def parse_mem_size(spec) -> int:
    """Parse a human memory size (``"512M"``, ``"1.5GiB"``, ``4096``)
    into bytes.  Raises :class:`~repro.errors.DeviceError` on nonsense,
    so CLI misuse surfaces as exit code 2, not a traceback."""
    if isinstance(spec, bool):
        raise DeviceError(f"cannot parse memory size from {spec!r}")
    if isinstance(spec, (int, float)):
        if spec <= 0 or float(spec) != int(spec):
            raise DeviceError(f"memory size must be a positive byte count, got {spec!r}")
        return int(spec)
    match = _SIZE_PATTERN.match(str(spec))
    if not match:
        raise DeviceError(
            f"cannot parse memory size {spec!r} (expected e.g. '512M', '2G', '4096')"
        )
    unit = (match.group("unit") or "").lower().rstrip("b").rstrip("i")
    nbytes = float(match.group("num")) * _UNIT_BYTES[unit]
    if nbytes < 1:
        raise DeviceError(f"memory size {spec!r} is below one byte")
    return int(nbytes)


@dataclass(frozen=True)
class MemoryReport:
    """Snapshot of a budget's accounting, for telemetry and reports."""

    capacity_bytes: int
    current_bytes: int
    peak_bytes: int
    by_category: Dict[str, int] = field(default_factory=dict)
    peak_by_category: Dict[str, int] = field(default_factory=dict)
    spilled_bytes: int = 0
    spill_events: int = 0
    oom_events: int = 0

    @property
    def peak_pressure(self) -> float:
        if self.capacity_bytes <= 0:
            return 0.0
        return self.peak_bytes / self.capacity_bytes

    def to_dict(self) -> dict:
        return {
            "capacity_bytes": self.capacity_bytes,
            "current_bytes": self.current_bytes,
            "peak_bytes": self.peak_bytes,
            "peak_pressure": round(self.peak_pressure, 4),
            "by_category": dict(self.by_category),
            "peak_by_category": dict(self.peak_by_category),
            "spilled_bytes": self.spilled_bytes,
            "spill_events": self.spill_events,
            "oom_events": self.oom_events,
        }


class MemoryBudget:
    """Tracks simulated device-memory usage against a capacity.

    Parameters
    ----------
    capacity_bytes:
        Budget ceiling; defaults to *device*'s ``global_mem_bytes``.
        Accepts anything :func:`parse_mem_size` accepts.
    device:
        Optional :class:`~repro.gpusim.DeviceSpec` the budget belongs
        to (supplies the default capacity).
    spill:
        When true, allocations in :data:`SPILLABLE_CATEGORIES` that do
        not fit overflow to host memory instead of raising: the device
        keeps what fits and :meth:`allocate` returns the spilled byte
        count so callers can price the PCIe traffic.  Resident
        categories (graph, state) never spill.
    """

    def __init__(
        self,
        capacity_bytes=None,
        *,
        device: Optional[DeviceSpec] = None,
        spill: bool = False,
    ):
        if capacity_bytes is None:
            if device is None:
                raise DeviceError(
                    "MemoryBudget needs a capacity_bytes or a device to derive it from"
                )
            capacity_bytes = device.global_mem_bytes
        self.capacity_bytes = parse_mem_size(capacity_bytes)
        self.device = device
        self.spill = bool(spill)
        self.current_bytes = 0
        self.peak_bytes = 0
        self.by_category: Dict[str, int] = {c: 0 for c in ALLOCATION_CATEGORIES}
        self.peak_by_category: Dict[str, int] = {c: 0 for c in ALLOCATION_CATEGORIES}
        self.spilled_bytes = 0
        self.spill_events = 0
        self.oom_events = 0
        # The one live working set (freed and re-charged every iteration).
        self._workset_device = 0
        self._workset_spilled = 0

    # ------------------------------------------------------------------
    # Core accounting
    # ------------------------------------------------------------------

    @property
    def headroom_bytes(self) -> int:
        return max(0, self.capacity_bytes - self.current_bytes)

    @property
    def pressure(self) -> float:
        """Fraction of capacity currently in use, in [0, 1+)."""
        if self.capacity_bytes <= 0:
            return 0.0
        return self.current_bytes / self.capacity_bytes

    def allocate(self, nbytes: int, category: str = "other", *, label: str = "") -> int:
        """Charge *nbytes* against the budget; returns the bytes spilled
        to the host (0 when everything landed on the device).

        Raises :class:`~repro.errors.DeviceOOMError` when the request
        does not fit and the category cannot spill.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise DeviceError(f"cannot allocate {nbytes} bytes")
        if category not in self.by_category:
            raise DeviceError(
                f"unknown allocation category {category!r}; "
                f"expected one of {ALLOCATION_CATEGORIES}"
            )
        observer = current_observer()
        spilled = 0
        placed = nbytes
        if nbytes > self.headroom_bytes:
            if not (self.spill and category in SPILLABLE_CATEGORIES):
                self.oom_events += 1
                if observer is not None:
                    observer.metrics.counter("memory.oom_events").inc()
                what = f" for {label}" if label else ""
                raise DeviceOOMError(
                    f"device memory budget exhausted{what}: requested "
                    f"{nbytes:,} bytes in category {category!r} with "
                    f"{self.headroom_bytes:,} of {self.capacity_bytes:,} "
                    f"bytes free ({self.current_bytes:,} in use)"
                )
            placed = self.headroom_bytes
            spilled = nbytes - placed
            self.spilled_bytes += spilled
            self.spill_events += 1
        self.current_bytes += placed
        self.by_category[category] += placed
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)
        self.peak_by_category[category] = max(
            self.peak_by_category[category], self.by_category[category]
        )
        if observer is not None:
            observer.metrics.gauge("memory.current_bytes").set(self.current_bytes)
            observer.metrics.gauge("memory.peak_bytes").set(self.peak_bytes)
            if spilled:
                observer.metrics.counter("memory.spilled_bytes").inc(spilled)
                observer.metrics.counter("memory.spill_events").inc()
        return spilled

    def free(self, nbytes: int, category: str = "other") -> None:
        """Return *nbytes* previously placed on the device."""
        nbytes = int(nbytes)
        if nbytes < 0 or nbytes > self.by_category.get(category, 0):
            raise DeviceError(
                f"cannot free {nbytes} bytes from category {category!r} "
                f"holding {self.by_category.get(category, 0)}"
            )
        self.current_bytes -= nbytes
        self.by_category[category] -= nbytes
        observer = current_observer()
        if observer is not None:
            observer.metrics.gauge("memory.current_bytes").set(self.current_bytes)

    @contextmanager
    def transient(self, nbytes: int, category: str = "other", *, label: str = ""):
        """Charge an allocation for the duration of a ``with`` block
        (checkpoint staging buffers); yields the spilled byte count."""
        spilled = self.allocate(nbytes, category, label=label)
        try:
            yield spilled
        finally:
            self.free(int(nbytes) - spilled, category)

    # ------------------------------------------------------------------
    # Working-set accounting (one live workset, re-charged per iteration)
    # ------------------------------------------------------------------

    def charge_workset(
        self,
        representation,
        workset_size: int,
        num_nodes: int,
        *,
        entry_bytes: int = 4,
    ) -> int:
        """Replace the live working-set charge with this iteration's
        materialized representation; returns the bytes spilled to host
        (0 normally).  Raises :class:`~repro.errors.DeviceOOMError`
        when the workset does not fit and spill mode is off."""
        nbytes = workset_device_bytes(
            representation, workset_size, num_nodes, entry_bytes=entry_bytes
        )
        self.release_workset()
        code = getattr(representation, "value", representation)
        spilled = self.allocate(
            nbytes, "workset", label=f"{code} workset of {workset_size:,} elements"
        )
        self._workset_device = nbytes - spilled
        self._workset_spilled = spilled
        return spilled

    def release_workset(self) -> None:
        """Free the live working-set charge (end of query, or right
        before the next iteration's charge)."""
        if self._workset_device:
            self.free(self._workset_device, "workset")
        self._workset_device = 0
        self._workset_spilled = 0

    def workset_headroom_bytes(self) -> int:
        """Headroom available to the *next* working set — the current
        one is freed before its successor is charged, so its device
        bytes come back."""
        return self.headroom_bytes + self._workset_device

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def report(self) -> MemoryReport:
        return MemoryReport(
            capacity_bytes=self.capacity_bytes,
            current_bytes=self.current_bytes,
            peak_bytes=self.peak_bytes,
            by_category=dict(self.by_category),
            peak_by_category=dict(self.peak_by_category),
            spilled_bytes=self.spilled_bytes,
            spill_events=self.spill_events,
            oom_events=self.oom_events,
        )

    def __repr__(self) -> str:
        return (
            f"MemoryBudget(capacity={self.capacity_bytes:,}, "
            f"used={self.current_bytes:,}, peak={self.peak_bytes:,}, "
            f"spill={self.spill})"
        )
