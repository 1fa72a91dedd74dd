"""A functional + timing simulator for SIMT (CUDA-class) GPUs.

The paper runs on an NVIDIA Tesla C2070 (Fermi: 14 SMs x 32 cores, warp
size 32, 144 GB/s global memory).  No GPU is available here, so this
package simulates one at the granularity that determines graph-algorithm
performance.  Each effect is priced in exactly one place:

- **warp divergence** — a warp's cost is the *maximum* of its lanes'
  work, which is what punishes thread-mapping on skewed outdegree
  distributions; the tally builders in :mod:`repro.kernels.mapping`
  take that per-warp max over the actual frontier;
- **memory coalescing** — contiguous accesses collapse into 128-byte
  transactions, scattered ones do not: ``SCATTER_FRACTION`` and
  ``THREAD_ADJ_FRACTION`` in :mod:`repro.kernels.mapping`, plus
  ``segment_stream_transactions`` and ``bandwidth_cycles`` in
  :mod:`repro.gpusim.memory`;
- **atomic serialization** — same-address atomics (queue insertion
  indices) serialize: the atomic term of :meth:`CostModel.price
  <repro.gpusim.kernel.CostModel.price>` at
  ``ATOMIC_CYCLES_PER_OP`` cycles each;
- **SM scheduling and occupancy** — blocks are scheduled onto a finite
  set of SMs; too little parallelism leaves SMs idle and exposes memory
  latency (``repro.gpusim.smscheduler``, ``repro.gpusim.occupancy``);
- **kernel-launch and PCIe-transfer overheads** — fixed costs that
  dominate traversals with many tiny iterations
  (``repro.gpusim.kernel``, ``repro.gpusim.transfer``).

Kernels in :mod:`repro.kernels` do the *real* computation with NumPy and
hand this package a :class:`~repro.gpusim.kernel.KernelTally` of the
structural quantities above; :class:`~repro.gpusim.kernel.CostModel`
turns a tally into simulated seconds.
"""

from repro.gpusim.allocator import MemoryBudget, MemoryReport, parse_mem_size
from repro.gpusim.device import DeviceSpec, TESLA_C2070, GTX_580, device_registry
from repro.gpusim.interconnect import (
    NVLINK,
    PCIE_P2P,
    InterconnectSpec,
    interconnect_registry,
    peer_transfer_seconds,
)
from repro.gpusim.kernel import CostModel, KernelTally
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.occupancy import OccupancyResult, occupancy
from repro.gpusim.timeline import KernelRecord, Timeline
from repro.gpusim.transfer import transfer_seconds

__all__ = [
    "DeviceSpec",
    "TESLA_C2070",
    "GTX_580",
    "device_registry",
    "LaunchConfig",
    "occupancy",
    "OccupancyResult",
    "KernelTally",
    "CostModel",
    "MemoryBudget",
    "MemoryReport",
    "parse_mem_size",
    "Timeline",
    "KernelRecord",
    "transfer_seconds",
    "InterconnectSpec",
    "PCIE_P2P",
    "NVLINK",
    "interconnect_registry",
    "peer_transfer_seconds",
]
