"""Configuration of the adaptive runtime.

The defaults encode the paper's tuned values for the Tesla C2070
(Section VII.B): T1 = 32 (the warp size), T2 = 192 threads/block x 14
SMs = 2,688, and T3 expressed as a fraction of the node count (the
Figure 13 sweep; 6 % is a good default across the six datasets).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import RuntimeConfigError
from repro.gpusim.device import DeviceSpec
from repro.kernels.variants import THREAD_MAPPING_TPB

__all__ = ["RuntimeConfig", "derive_t1", "derive_t2"]


def derive_t1(device: DeviceSpec) -> float:
    """T1 = warp size: below it, block mapping idles cores (Section VII.B)."""
    return float(device.warp_size)


def derive_t2(device: DeviceSpec) -> int:
    """T2 = threads/block x #SMs: smaller working sets leave SMs idle
    under thread mapping (192 x 14 = 2,688 on the C2070)."""
    return THREAD_MAPPING_TPB * device.num_sms


@dataclass(frozen=True)
class RuntimeConfig:
    """Thresholds and monitoring knobs of the adaptive runtime."""

    #: average-outdegree threshold discriminating thread vs. block
    #: mapping; ``None`` derives the warp size from the device (= T1)
    t1: Optional[float] = None
    #: working-set size below which block mapping is always used;
    #: ``None`` derives threads-per-block x num_SMs from the device (= T2)
    t2: Optional[int] = None
    #: working-set fraction of |V| above which the bitmap representation
    #: is used (= T3 / num_nodes); the paper tunes this per dataset in
    #: the 1-13 % band (Figure 13) — 3 % is this simulator's sweet spot
    t3_fraction: float = 0.03
    #: re-evaluate the decision every this many iterations (sampling,
    #: Section VI.E); 1 = every iteration
    sampling_interval: int = 1
    #: monitor the working set's own average outdegree with an extra
    #: reduction kernel (precise mode) instead of using the whole-graph
    #: average computed once at load time (the paper's default)
    monitor_workset_degree: bool = False
    #: how representation switches are charged: "shared" (the paper's
    #: shared update vector -> free) or "rebuild" (a naive runtime that
    #: re-materializes the working set on every representation change)
    switch_mode: str = "shared"
    #: extension: let the decision maker select the virtual-warp mapping
    #: for mid-range average outdegrees (outside the paper's space)
    use_warp_mapping: bool = False
    #: queue-generation scheme: "atomic" (the paper's baseline), "scan"
    #: (Merrill-style prefix scan) or "hierarchical" (Luo-style
    #: shared-memory queues)
    queue_gen: str = "atomic"
    #: pin the working-set representation ("bitmap" or "queue")
    #: regardless of the decision maker's choice; the guard's OOM ladder
    #: uses "bitmap" to cap the footprint at O(|V|/8)
    force_workset: Optional[str] = None

    def __post_init__(self):
        if self.t1 is not None and self.t1 <= 0:
            raise RuntimeConfigError(f"t1 must be > 0, got {self.t1}")
        if self.t2 is not None and self.t2 < 0:
            raise RuntimeConfigError(f"t2 must be >= 0, got {self.t2}")
        if not 0.0 < self.t3_fraction <= 1.0:
            raise RuntimeConfigError(
                f"t3_fraction must be in (0, 1], got {self.t3_fraction}"
            )
        if self.sampling_interval < 1:
            raise RuntimeConfigError(
                f"sampling_interval must be >= 1, got {self.sampling_interval}"
            )
        if self.switch_mode not in ("shared", "rebuild"):
            raise RuntimeConfigError(
                f"switch_mode must be 'shared' or 'rebuild', got {self.switch_mode!r}"
            )
        if self.queue_gen not in ("atomic", "scan", "hierarchical"):
            raise RuntimeConfigError(
                f"queue_gen must be 'atomic', 'scan' or 'hierarchical', "
                f"got {self.queue_gen!r}"
            )
        if self.force_workset not in (None, "bitmap", "queue"):
            raise RuntimeConfigError(
                f"force_workset must be None, 'bitmap' or 'queue', "
                f"got {self.force_workset!r}"
            )

    def resolve_t1(self, device: DeviceSpec) -> float:
        """T1: the configured value, else :func:`derive_t1`."""
        return float(self.t1) if self.t1 is not None else derive_t1(device)

    def resolve_t2(self, device: DeviceSpec) -> int:
        """T2: the configured value, else :func:`derive_t2`."""
        return int(self.t2) if self.t2 is not None else derive_t2(device)

    def resolve_t3(self, num_nodes: int) -> int:
        """T3 in absolute nodes for a graph of *num_nodes*."""
        return max(1, int(round(self.t3_fraction * num_nodes)))

    def resolve_thresholds(self, device: DeviceSpec, num_nodes: int):
        """All four thresholds for one (graph, device) pair, with the
        degenerate-ordering clamp applied (``T3 >= T2`` — tiny graphs
        otherwise resolve T3 below T2 and invert the Figure-11 regions).
        The warp-mapping band's lower bound ``t1_low`` is warp_size / 8.
        """
        from repro.core.decision import Thresholds

        t1 = self.resolve_t1(device)
        return Thresholds(
            t1=t1,
            t2=self.resolve_t2(device),
            t3=self.resolve_t3(num_nodes),
            t1_low=min(device.warp_size / 8.0, t1),
        ).resolved()

    def with_overrides(self, **kwargs) -> "RuntimeConfig":
        return replace(self, **kwargs)
