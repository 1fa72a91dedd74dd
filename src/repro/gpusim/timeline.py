"""Execution timeline: the ordered record of priced kernels and copies.

Every traversal accumulates a :class:`Timeline`; benches and the adaptive
runtime's telemetry read per-kernel breakdowns from it, and its totals
are the simulated times the reproduction reports (the paper's results
"include CPU processing, GPU processing and CPU-GPU transfer times").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.gpusim.kernel import KernelCost, KernelTally
from repro.gpusim.transfer import TransferRecord

__all__ = ["KernelRecord", "Timeline"]


@dataclass(frozen=True)
class KernelRecord:
    """One kernel execution: tally, priced cost, and traversal metadata."""

    iteration: int
    tally: KernelTally
    cost: KernelCost
    variant: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.cost.seconds


@dataclass
class Timeline:
    """Accumulates kernels, transfers and host-side costs in order.

    :meth:`add_kernel` and :meth:`add_transfer` keep running totals: a
    long run reads its totals every iteration, and re-summing every
    record on each read made a run quadratic in its length.  The totals
    add the records' seconds left to right from zero, which is what the
    golden fixtures hold (and what ``sum()`` computed before Python
    3.12 switched to compensated float summation).
    """

    kernels: List[KernelRecord] = field(default_factory=list)
    transfers: List[TransferRecord] = field(default_factory=list)
    host_seconds: float = 0.0
    _gpu_seconds: float = field(init=False, repr=False)
    _transfer_seconds: float = field(init=False, repr=False)

    def __post_init__(self):
        self._gpu_seconds = self._transfer_seconds = 0
        for record in self.kernels:
            self._gpu_seconds += record.seconds
        for record in self.transfers:
            self._transfer_seconds += record.seconds

    def add_kernel(
        self,
        iteration: int,
        tally: KernelTally,
        cost: KernelCost,
        variant: Optional[str] = None,
    ) -> KernelRecord:
        record = KernelRecord(iteration=iteration, tally=tally, cost=cost, variant=variant)
        self.kernels.append(record)
        self._gpu_seconds += record.seconds
        return record

    def add_transfer(self, record: TransferRecord) -> None:
        self.transfers.append(record)
        self._transfer_seconds += record.seconds

    def add_host_seconds(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("host time cannot be negative")
        self.host_seconds += seconds

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------

    @property
    def gpu_seconds(self) -> float:
        return self._gpu_seconds

    @property
    def transfer_seconds(self) -> float:
        return self._transfer_seconds

    @property
    def total_seconds(self) -> float:
        return self.gpu_seconds + self.transfer_seconds + self.host_seconds

    @property
    def num_launches(self) -> int:
        return len(self.kernels)

    def seconds_by_kernel(self) -> Dict[str, float]:
        """Total simulated seconds grouped by kernel name prefix."""
        out: Dict[str, float] = {}
        for record in self.kernels:
            key = record.tally.name.split("[")[0]
            out[key] = out.get(key, 0.0) + record.seconds
        return out

    def seconds_by_variant(self) -> Dict[str, float]:
        """Total simulated GPU seconds grouped by implementation variant."""
        out: Dict[str, float] = {}
        for record in self.kernels:
            key = record.variant or "-"
            out[key] = out.get(key, 0.0) + record.seconds
        return out

    def iter_iterations(self) -> Iterator[int]:
        seen = set()
        for record in self.kernels:
            if record.iteration not in seen:
                seen.add(record.iteration)
                yield record.iteration
