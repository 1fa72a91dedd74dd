"""Parallel reduction: the GPU ``findmin`` the ordered SSSP needs.

The paper implements the ordered-SSSP ``findmin`` as a parallel
reduction on the GPU, "which is faster than maintaining a heap on CPU"
(Section V.B).  This module provides the tally of what the standard
tree-reduction kernel sequence would have cost (the minimum itself is
taken with NumPy in :mod:`repro.kernels.findmin`): each pass launches
``n / (2*block)`` blocks, each block reduces ``2*block`` elements in
``log2`` steps through shared memory, and passes repeat until one value
remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelTally
from repro.gpusim.launch import LaunchConfig

__all__ = ["reduction_tallies", "ReductionPlan"]

#: warp instructions per shared-memory reduction step (compare, select,
#: sync amortized)
_STEP_COST = 2.0

#: shared-memory cycles per reduction step and warp: one read and one
#: write of 2 cycles each; the sequential-addressing layout
#: (``s = blockDim/2; s >>= 1``) keeps the active lanes on contiguous
#: words, so no step has a bank conflict
_SHARED_STEP_CYCLES = 4.0


@dataclass(frozen=True)
class ReductionPlan:
    """The kernel sequence a tree reduction of *n* elements executes."""

    n: int
    threads_per_block: int
    passes: Tuple[int, ...]  # element count entering each pass

    @property
    def num_kernels(self) -> int:
        return len(self.passes)


def plan_reduction(n: int, threads_per_block: int = 256) -> ReductionPlan:
    """Pass structure for reducing *n* elements, 2*block per block/pass."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    passes: List[int] = []
    remaining = n
    per_block = 2 * threads_per_block
    while remaining > 1:
        passes.append(remaining)
        remaining = -(-remaining // per_block)
    if not passes and n >= 1:
        passes = [n]
    return ReductionPlan(n=n, threads_per_block=threads_per_block, passes=tuple(passes))


def reduction_tallies(
    n: int,
    device: DeviceSpec,
    *,
    threads_per_block: int = 256,
    name: str = "reduce",
    entry_bytes: int = 4,
) -> List[KernelTally]:
    """Tallies of the kernel launches a min-reduction of *n* values costs.

    *entry_bytes* is the size of each reduced element's global-memory
    record (ordered worksets stream 8-byte ``(node, key)`` pairs; plain
    value reductions read 4 B).
    """
    plan = plan_reduction(n, threads_per_block)
    tallies: List[KernelTally] = []
    for pass_idx, elements in enumerate(plan.passes):
        per_block = 2 * threads_per_block
        blocks = max(1, -(-elements // per_block))
        launch = LaunchConfig.for_elements(
            max(1, elements // 2), threads_per_block, device
        )
        warps_per_block = launch.warps_per_block(device)
        steps = int(np.ceil(np.log2(max(2, per_block))))
        per_warp_cycles = steps * (_STEP_COST + _SHARED_STEP_CYCLES)
        issue = blocks * warps_per_block * per_warp_cycles
        mem = np.ceil(elements * entry_bytes / device.transaction_bytes) + blocks
        tallies.append(
            KernelTally(
                name=f"{name}[{pass_idx}]",
                launch=LaunchConfig(blocks, threads_per_block),
                issue_cycles=float(issue),
                useful_lane_cycles=float(elements * _STEP_COST),
                max_block_cycles=float(warps_per_block * per_warp_cycles),
                mem_transactions=float(mem),
                active_threads=elements // 2 + 1,
            )
        )
    return tallies

