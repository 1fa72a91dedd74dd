"""The ``CUDA_workset_gen`` kernel: materializing either working-set representation.

Both representations are generated from the same *update vector* (one
flag per node set by the computation kernel), which is the paper's key
enabler for cheap runtime switching (Section VI: "data structures that
lead to minimal overhead when switching between implementations"): the
next iteration can materialize either a bitmap or a queue from the same
flags, so changing representation costs nothing beyond the generation
kernel that runs every iteration anyway.

- **bitmap generation**: every thread copies its flag — no
  synchronization (Section V.C);
- **queue generation**: every set thread reserves a slot with an
  ``atomicAdd`` on a single counter — correct but serialized on the hot
  counter;
- **scan-based generation** (the Merrill-style optimization the paper
  cites as orthogonal): an exclusive prefix scan of the flags computes
  each set element's queue index with no atomics, at the cost of extra
  sweeps;
- **hierarchical generation** (Luo et al.'s optimization, also cited as
  orthogonal): each block first builds a per-block queue in shared
  memory — shared-memory atomics are an order of magnitude cheaper than
  global ones — then reserves one contiguous global slot range with a
  *single* global atomic per block and copies its chunk out coalesced.

The generation scheme is selected per traversal (``queue_gen=``); the
paper's baseline is ``"atomic"``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import WorksetError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelTally
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.scan import scan_tallies
from repro.kernels import costs
from repro.kernels.variants import WorksetRepr

__all__ = ["workset_gen_tallies", "GEN_TPB", "QUEUE_GEN_SCHEMES"]

#: block size of the generation kernel (thread-mapped over the update
#: vector regardless of the computation kernel's mapping)
GEN_TPB = 192

#: queue-generation schemes: the paper's atomic baseline, Merrill et
#: al.'s prefix scan, and Luo et al.'s shared-memory hierarchical queue
QUEUE_GEN_SCHEMES = ("atomic", "scan", "hierarchical")

#: cycles per shared-memory atomic within a block's hierarchical queue
#: (an order of magnitude cheaper than the global L2 atomic unit)
_SHARED_ATOMIC_CYCLES = 0.3


def workset_gen_tallies(
    num_nodes: int,
    updated_count: int,
    representation: WorksetRepr,
    device: DeviceSpec,
    *,
    scheme: str = "atomic",
    name: str = "workset_gen",
    entry_bytes: int = 4,
) -> List[KernelTally]:
    """Tallies of the generation kernel(s) for one iteration.

    The kernel is thread-mapped over the ``num_nodes``-long update
    vector: each thread checks one flag and, if set, emits the element
    into the chosen representation (Figure 9, ``CUDA_workset_gen``).

    For the queue representation, *scheme* selects how insertion indices
    are obtained: ``"atomic"`` (the paper's baseline — one global
    ``atomicAdd`` per element), ``"scan"`` (a prefix scan computes the
    indices; extra kernels, no atomics), or ``"hierarchical"``
    (per-block shared-memory queues with one global atomic per block).

    *entry_bytes* is the size of each emitted queue slot: 4 B for plain
    node ids, 8 B for an ordered frame's ``(node, key)`` pairs (the
    spec's ``workset_entry_bytes``).  Bitmap generation is unaffected —
    it writes one bit per node regardless of the entry record.
    """
    if updated_count > num_nodes:
        raise WorksetError(
            f"updated_count ({updated_count}) cannot exceed num_nodes ({num_nodes})"
        )
    if scheme not in QUEUE_GEN_SCHEMES:
        raise WorksetError(
            f"unknown queue generation scheme {scheme!r}; "
            f"expected one of {QUEUE_GEN_SCHEMES}"
        )
    n = max(1, num_nodes)
    u = int(updated_count)
    ws = device.warp_size
    tb = device.transaction_bytes

    launch = LaunchConfig.for_elements(n, GEN_TPB, device)
    num_warps = launch.total_warps(device)

    issue = num_warps * costs.C_GEN_SCAN + (u / ws + (1 if u else 0)) * costs.C_GEN_WRITE
    useful = n * costs.C_GEN_SCAN + u * costs.C_GEN_WRITE
    wpb = launch.warps_per_block(device)
    max_block = wpb * (costs.C_GEN_SCAN + costs.C_GEN_WRITE)

    # Reads: the update vector streams coalesced; it is also cleared in
    # the same pass (flag write).
    mem = 2.0 * np.ceil(n / tb)

    tallies: List[KernelTally] = []
    atomics_same = 0.0
    if representation is WorksetRepr.BITMAP:
        # Bitmap written coalesced alongside the scan.
        mem += np.ceil(n / tb)
    elif scheme == "scan":
        mem += u * entry_bytes / 32
        tallies.extend(scan_tallies(n, device, name=f"{name}:scan"))
    elif scheme == "hierarchical":
        # Shared-memory staging: u cheap shared atomics (folded into the
        # issue stream), one global atomic per *block*, and a coalesced
        # copy-out of each block's chunk.
        issue += u * _SHARED_ATOMIC_CYCLES
        atomics_same = float(launch.grid_blocks)
        mem += np.ceil(u * entry_bytes / tb)  # coalesced chunk copy-out
    else:
        # Queue writes: set threads are sparse within their warps, so slot
        # stores quarter-coalesce.
        mem += u * entry_bytes / 32
        atomics_same = float(u)

    tallies.append(
        KernelTally(
            name=name,
            launch=launch,
            issue_cycles=float(issue),
            useful_lane_cycles=float(useful),
            max_block_cycles=float(max_block),
            mem_transactions=float(mem),
            atomics_same_address=atomics_same,
            active_threads=u,
        )
    )
    return tallies
