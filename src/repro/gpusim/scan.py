"""Prefix scan (Blelloch work-efficient scan) — kernel tallies.

Merrill et al. replace the queue-generation atomics with prefix scans;
the paper cites this as an orthogonal optimization (Section V.C).  We
implement it as the scan-based working-set generation ablation: an
exclusive scan over the update flags yields each set element's queue
index with no atomics, at the price of two extra sweeps over the data.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelTally
from repro.gpusim.launch import LaunchConfig

__all__ = ["scan_tallies"]

#: warp instructions per element-step of the up/down sweep
_STEP_COST = 3.0


def scan_tallies(
    n: int, device: DeviceSpec, *, threads_per_block: int = 256, name: str = "scan"
) -> List[KernelTally]:
    """Tallies for a work-efficient exclusive scan of *n* elements.

    Three launches in the standard multi-block scheme: per-block scan,
    scan of the block sums (recursively flattened into one tally since
    block counts are tiny), and the uniform add.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return []
    per_block = 2 * threads_per_block
    blocks = max(1, -(-n // per_block))
    launch = LaunchConfig(blocks, threads_per_block)
    warps_per_block = launch.warps_per_block(device)
    steps = 2 * int(np.ceil(np.log2(max(2, per_block))))  # up + down sweep
    elem_trans = float(np.ceil(n * 4 / device.transaction_bytes))

    block_scan = KernelTally(
        name=f"{name}[block]",
        launch=launch,
        issue_cycles=float(blocks * warps_per_block * steps * _STEP_COST),
        useful_lane_cycles=float(2 * n * _STEP_COST),
        max_block_cycles=float(warps_per_block * steps * _STEP_COST),
        mem_transactions=2 * elem_trans + blocks,
        active_threads=n,
    )
    sums_scan = KernelTally(
        name=f"{name}[sums]",
        launch=LaunchConfig(1, threads_per_block),
        issue_cycles=float(warps_per_block * steps * _STEP_COST),
        useful_lane_cycles=float(2 * blocks * _STEP_COST),
        max_block_cycles=float(warps_per_block * steps * _STEP_COST),
        mem_transactions=float(2 * np.ceil(blocks * 4 / device.transaction_bytes)),
        active_threads=blocks,
    )
    uniform_add = KernelTally(
        name=f"{name}[add]",
        launch=launch,
        issue_cycles=float(blocks * warps_per_block * _STEP_COST),
        useful_lane_cycles=float(n * _STEP_COST),
        max_block_cycles=float(warps_per_block * _STEP_COST),
        mem_transactions=2 * elem_trans,
        active_threads=n,
    )
    if blocks == 1:
        return [block_scan]
    return [block_scan, sums_scan, uniform_add]
