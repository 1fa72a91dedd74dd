"""Device-to-device interconnect cost model.

Multi-device traversal ships frontier updates between shards at every
exchange barrier; what that costs depends on the link.  An
:class:`InterconnectSpec` is the link description — peer bandwidth and
per-transfer latency — and :func:`peer_transfer_seconds` prices one
peer copy by *reusing* the PCIe transfer formula
(:func:`repro.gpusim.transfer.transfer_seconds`) with the link's
parameters substituted for the device's host-link numbers.

Two presets:

- :data:`PCIE_P2P` — peer-to-peer DMA over the shared PCIe fabric
  (Fermi-era GPUDirect): same bandwidth and latency class as the
  host link;
- :data:`NVLINK` — a point-to-point NVLink-class interconnect: an
  order of magnitude more bandwidth and microsecond latency.

Exchange staging buffers are charged through the PR 2 allocator
(:class:`~repro.gpusim.allocator.MemoryBudget`) by the sharded driver,
so frontier shipping competes for device memory like every other
allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

from repro.errors import DeviceError
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.gpusim.transfer import transfer_seconds

__all__ = [
    "InterconnectSpec",
    "PCIE_P2P",
    "NVLINK",
    "interconnect_registry",
    "peer_transfer_seconds",
]


@dataclass(frozen=True)
class InterconnectSpec:
    """One device-to-device link: peer bandwidth and latency."""

    name: str
    #: effective peer bandwidth, GB/s
    bandwidth_gbs: float
    #: fixed per-transfer latency, seconds
    latency_s: float

    def __post_init__(self):
        if self.bandwidth_gbs <= 0:
            raise DeviceError(
                f"bandwidth_gbs must be > 0, got {self.bandwidth_gbs}"
            )
        if self.latency_s < 0:
            raise DeviceError(f"latency_s must be >= 0, got {self.latency_s}")


#: peer-to-peer DMA over the shared PCIe fabric (GPUDirect v2 class)
PCIE_P2P = InterconnectSpec("pcie-p2p", bandwidth_gbs=6.0, latency_s=10.0e-6)

#: an NVLink-class point-to-point link
NVLINK = InterconnectSpec("nvlink", bandwidth_gbs=20.0, latency_s=1.3e-6)


def interconnect_registry() -> Dict[str, InterconnectSpec]:
    """Built-in interconnect presets keyed by a short name."""
    return {"pcie": PCIE_P2P, "nvlink": NVLINK}


@lru_cache(maxsize=16)
def _link_device(interconnect: InterconnectSpec, device: DeviceSpec) -> DeviceSpec:
    """A device spec whose host link is replaced by the peer link, so
    :func:`transfer_seconds` prices peer copies unchanged."""
    return device.with_overrides(
        pcie_bandwidth_gbs=interconnect.bandwidth_gbs,
        pcie_latency_s=interconnect.latency_s,
    )


def peer_transfer_seconds(
    num_bytes: int,
    interconnect: InterconnectSpec = PCIE_P2P,
    *,
    device: DeviceSpec = TESLA_C2070,
) -> float:
    """Simulated seconds to move *num_bytes* device-to-device."""
    return transfer_seconds(num_bytes, _link_device(interconnect, device))

