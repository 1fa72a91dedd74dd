"""Simulated-device specifications.

:data:`TESLA_C2070` mirrors the paper's evaluation platform (Section VII:
"an Nvidia Tesla C2070 GPU, which contains 14 32-core SMs").  All limits
follow the Fermi (compute capability 2.0) datasheet; anything the cost
model calibrates (instruction costs, atomic costs) lives in the
constants of :mod:`repro.gpusim.kernel` and :mod:`repro.kernels.costs`
instead, so a device spec is pure hardware description.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.errors import DeviceError

__all__ = ["DeviceSpec", "TESLA_C2070", "GTX_580", "QUADRO_2000", "device_registry"]


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware description of a simulated CUDA-class GPU."""

    name: str
    num_sms: int
    cores_per_sm: int
    warp_size: int = 32
    clock_ghz: float = 1.15
    #: peak global-memory bandwidth, GB/s
    mem_bandwidth_gbs: float = 144.0
    #: global-memory latency in core clock cycles
    mem_latency_cycles: int = 400
    #: bytes moved per global-memory transaction
    transaction_bytes: int = 128
    global_mem_bytes: int = 6 * 1024**3
    shared_mem_per_sm_bytes: int = 48 * 1024
    registers_per_sm: int = 32768
    max_threads_per_block: int = 1024
    max_threads_per_sm: int = 1536
    max_blocks_per_sm: int = 8
    max_warps_per_sm: int = 48
    #: register allocation granularity (per warp, Fermi)
    register_alloc_unit: int = 64
    #: shared-memory allocation granularity in bytes
    shared_alloc_unit: int = 128
    #: grid dimension limit per axis (CUDA 4 era: 64K)
    max_grid_dim: int = 65535
    #: host-side fixed cost of one kernel launch, seconds
    kernel_launch_overhead_s: float = 4.0e-6
    #: effective PCIe bandwidth, GB/s, and per-transfer latency, seconds
    pcie_bandwidth_gbs: float = 6.0
    pcie_latency_s: float = 10.0e-6

    def __post_init__(self):
        for attr in (
            "num_sms",
            "cores_per_sm",
            "warp_size",
            "transaction_bytes",
            "max_threads_per_block",
            "max_threads_per_sm",
            "max_blocks_per_sm",
            "max_warps_per_sm",
        ):
            if getattr(self, attr) < 1:
                raise DeviceError(f"{attr} must be >= 1, got {getattr(self, attr)}")
        for attr in ("clock_ghz", "mem_bandwidth_gbs", "pcie_bandwidth_gbs"):
            if getattr(self, attr) <= 0:
                raise DeviceError(f"{attr} must be > 0, got {getattr(self, attr)}")
        if self.max_threads_per_block % self.warp_size != 0:
            raise DeviceError("max_threads_per_block must be a warp multiple")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def total_cores(self) -> int:
        return self.num_sms * self.cores_per_sm

    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    @property
    def bytes_per_cycle(self) -> float:
        """Whole-device global-memory bytes deliverable per core cycle."""
        return self.mem_bandwidth_gbs * 1e9 / self.clock_hz

    @property
    def warps_per_block_limit(self) -> int:
        return self.max_threads_per_block // self.warp_size

    def cycles_to_seconds(self, cycles: float) -> float:
        return float(cycles) / self.clock_hz

    def seconds_to_cycles(self, seconds: float) -> float:
        return float(seconds) * self.clock_hz

    def with_overrides(self, **kwargs) -> "DeviceSpec":
        """A copy of this spec with some fields replaced (for what-if runs)."""
        return replace(self, **kwargs)


#: The paper's platform: Tesla C2070, Fermi GF100, 14 SMs x 32 cores.
TESLA_C2070 = DeviceSpec(
    name="Tesla C2070",
    num_sms=14,
    cores_per_sm=32,
    clock_ghz=1.15,
    mem_bandwidth_gbs=144.0,
    global_mem_bytes=6 * 1024**3,
)

#: A consumer Fermi part (GF110): 16 SMs, higher clock, 192 GB/s.
GTX_580 = DeviceSpec(
    name="GeForce GTX 580",
    num_sms=16,
    cores_per_sm=32,
    clock_ghz=1.544,
    mem_bandwidth_gbs=192.4,
    global_mem_bytes=1536 * 1024**2,
)

#: A small Fermi workstation part (GF106): 4 SMs x 48 cores, 41.6 GB/s.
QUADRO_2000 = DeviceSpec(
    name="Quadro 2000",
    num_sms=4,
    cores_per_sm=48,
    clock_ghz=1.25,
    mem_bandwidth_gbs=41.6,
    global_mem_bytes=1024**3,
)


def device_registry() -> Dict[str, DeviceSpec]:
    """Built-in device presets keyed by a short name."""
    return {
        "c2070": TESLA_C2070,
        "gtx580": GTX_580,
        "quadro2000": QUADRO_2000,
    }
