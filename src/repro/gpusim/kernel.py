"""Kernel cost assembly: turning structural tallies into simulated time.

A simulated kernel (see :mod:`repro.kernels.computation`) performs its
computation with NumPy and reports *what the GPU would have done* as a
:class:`KernelTally`: warp-instruction issues (divergence included),
memory transactions, serialized atomics, launch shape.  The
:class:`CostModel` prices a tally on a device:

``seconds = launch_overhead
          + cycles(max(issue_pipeline, memory_pipeline) + atomic_serial)``

where the issue pipeline is the SM-scheduler makespan of the issued
warp instructions (each SM issues one warp instruction per cycle), the
memory pipeline is bandwidth cycles inflated by a latency-exposure
factor when too few warps are resident to hide DRAM latency, and
atomics serialize after both.  The hardware coefficients are the
module constants below, fixed once against the paper's anchors (see
``docs/simulator.md``); the instruction costs of the kernel bodies are
in :mod:`repro.kernels.costs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import LaunchConfig, current_fault_hook
from repro.gpusim.memory import bandwidth_cycles
from repro.gpusim.occupancy import occupancy
from repro.gpusim.smscheduler import makespan_cycles
from repro.obs.context import current_observer

__all__ = [
    "KernelTally",
    "CostModel",
    "KernelCost",
    "ATOMIC_CYCLES_PER_OP",
    "BLOCK_DISPATCH_CYCLES",
    "LATENCY_HIDING_WARPS",
    "MAX_LATENCY_PENALTY",
    "IMBALANCE_SLACK",
    "REGISTERS_PER_THREAD",
]

#: cycles per same-address atomic (queue-counter serialization;
#: Fermi-era L2 atomic units sustain a few cycles per same-word op)
ATOMIC_CYCLES_PER_OP = 3.0

#: per-block scheduling/dispatch cost charged to the issue pipeline
BLOCK_DISPATCH_CYCLES = 40.0

#: resident warps per SM needed to fully hide DRAM latency
LATENCY_HIDING_WARPS = 16.0

#: cap on the latency-exposure inflation of memory time
MAX_LATENCY_PENALTY = 8.0

#: list-scheduling imbalance slack on the issue makespan
IMBALANCE_SLACK = 0.05

#: registers per thread assumed for occupancy (graph kernels are lean)
REGISTERS_PER_THREAD = 20


@dataclass(frozen=True)
class KernelTally:
    """Structural execution profile of one simulated kernel launch."""

    name: str
    launch: LaunchConfig
    #: total warp-instruction issues (per-warp divergence already applied:
    #: each warp contributes the max of its lanes)
    issue_cycles: float = 0.0
    #: useful lane-cycles (for SIMT-efficiency reporting only)
    useful_lane_cycles: float = 0.0
    #: the single most expensive block's issue cycles (critical path)
    max_block_cycles: float = 0.0
    #: 128-byte global-memory transactions
    mem_transactions: float = 0.0
    #: atomic operations serialized on one hot address (queue counter)
    atomics_same_address: float = 0.0
    #: atomic operations spread over many addresses (update flags)
    atomics_multi_address: float = 0.0
    #: distinct addresses for the multi-address atomics
    atomic_address_count: int = 0
    #: active (non-early-exit) threads, for utilization reporting
    active_threads: int = 0
    #: warps that perform real work (memory-latency hiding is supplied by
    #: these, not by warps that early-exit after a flag check); 0 means
    #: "all launched warps are active"
    active_warps: int = 0

    def __post_init__(self):
        for attr in (
            "issue_cycles",
            "useful_lane_cycles",
            "max_block_cycles",
            "mem_transactions",
            "atomics_same_address",
            "atomics_multi_address",
        ):
            if getattr(self, attr) < 0:
                raise KernelError(f"{attr} must be >= 0")

    @property
    def simt_efficiency(self) -> float:
        # Lane-cycles issued = issue_cycles * warp_size; warp size is a
        # device property, but 32 universally in this simulator's scope.
        issued = self.issue_cycles * 32.0
        if issued <= 0:
            return 1.0
        return min(1.0, self.useful_lane_cycles / issued)

    @property
    def thread_utilization(self) -> float:
        total = self.launch.total_threads
        if total <= 0:
            return 1.0
        return min(1.0, self.active_threads / total)


@dataclass(frozen=True)
class KernelCost:
    """Priced execution of one kernel: the component breakdown."""

    name: str
    seconds: float
    issue_seconds: float
    memory_seconds: float
    atomic_seconds: float
    launch_overhead_seconds: float
    latency_penalty: float
    occupancy: float

    def __post_init__(self):
        if self.seconds < 0:
            raise KernelError("kernel cost cannot be negative")


class CostModel:
    """Prices :class:`KernelTally` objects on a :class:`DeviceSpec`."""

    def __init__(self, device: DeviceSpec):
        self.device = device

    def price(self, tally: KernelTally) -> KernelCost:
        """Simulated wall-clock cost of one kernel launch."""
        device = self.device
        launch = tally.launch

        occ = occupancy(
            device,
            min(launch.threads_per_block, device.max_threads_per_block),
            registers_per_thread=REGISTERS_PER_THREAD,
        )

        # --- issue pipeline: SMs retire one warp instruction per cycle ---
        dispatch = launch.grid_blocks * BLOCK_DISPATCH_CYCLES
        issue_total = tally.issue_cycles + dispatch
        issue_cycles = makespan_cycles(
            issue_total,
            tally.max_block_cycles,
            device,
            imbalance_slack=IMBALANCE_SLACK,
        )

        # --- memory pipeline: bandwidth floor x latency exposure ---
        mem_cycles = bandwidth_cycles(tally.mem_transactions, device)
        resident_warps = self._resident_warps(tally, occ.warps_per_sm)
        if resident_warps >= LATENCY_HIDING_WARPS:
            penalty = 1.0
        else:
            penalty = min(
                MAX_LATENCY_PENALTY,
                LATENCY_HIDING_WARPS / max(resident_warps, 1e-9),
            )
        mem_cycles *= penalty

        # --- atomics: serialized after compute/memory overlap ---
        atomic_cycles = tally.atomics_same_address * ATOMIC_CYCLES_PER_OP
        if tally.atomics_multi_address > 0:
            addresses = max(1, tally.atomic_address_count)
            hottest = tally.atomics_multi_address / addresses
            atomic_cycles += (hottest + hottest**0.5) * ATOMIC_CYCLES_PER_OP

        total_cycles = max(issue_cycles, mem_cycles) + atomic_cycles
        hook = current_fault_hook()
        if hook is not None:
            # Injected latency spike: the kernel's execution (not the fixed
            # launch overhead) is dilated, as if the SMs stalled.
            total_cycles *= max(1.0, hook.latency_multiplier(tally.name))
        observer = current_observer()
        if observer is not None:
            observer.metrics.counter("gpusim.kernels_priced").inc()
            observer.metrics.counter("gpusim.simulated_cycles").inc(
                int(total_cycles)
            )
        to_s = device.cycles_to_seconds
        return KernelCost(
            name=tally.name,
            seconds=device.kernel_launch_overhead_s + to_s(total_cycles),
            issue_seconds=to_s(issue_cycles),
            memory_seconds=to_s(mem_cycles),
            atomic_seconds=to_s(atomic_cycles),
            launch_overhead_seconds=device.kernel_launch_overhead_s,
            latency_penalty=penalty,
            occupancy=occ.occupancy,
        )

    def _resident_warps(self, tally: KernelTally, occupancy_warps: int) -> float:
        """Average *working* warps resident per SM while the kernel runs.

        Limited both by occupancy (resource ceiling) and by how many
        working warps the grid actually supplies — a 100-thread kernel
        cannot keep 14 SMs busy no matter the occupancy ceiling, and
        warps that early-exit after a membership check retire immediately
        instead of hiding the active warps' memory latency.
        """
        total_warps = tally.launch.total_warps(self.device)
        working = tally.active_warps if tally.active_warps > 0 else total_warps
        supplied = min(working, total_warps) / self.device.num_sms
        return max(0.5, min(float(occupancy_warps), supplied))
