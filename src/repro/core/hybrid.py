"""Hybrid CPU-GPU execution (extension: the Hong et al. [13] approach).

The paper positions itself against Hong et al.'s adaptive solution
"that alternates CPU and GPU execution.  We, on the other hand, focus on
the automatic selection of different GPU solutions."  This module
implements the alternating approach on top of the same substrates so
the two adaptivity axes can be compared (``bench_extension_hybrid``):

- iterations whose frontier is tiny run on the *host* — a serial sweep
  costs nanoseconds per edge and skips the kernel-launch plus
  loop-readback overhead entirely (the cost that makes the GPU lose on
  road networks);
- iterations with large frontiers run on the simulated GPU under the
  paper's adaptive variant selection;
- every device transition pays a state synchronization over PCIe (the
  level/distance array plus the frontier), so the placement uses
  hysteresis to avoid ping-ponging.

A hybrid run is the row core's single-row schedule
(:mod:`repro.engine.driver`) with a placement step before each
decision, comparing the serial cost estimate of the upcoming sweep
(``nodes, expected edges`` priced by the CPU model) against the GPU's
fixed per-iteration floor.  A device iteration is an adaptive
iteration that chooses at the top; a host iteration runs the spec's
one relaxation (:meth:`~repro.engine.spec.AlgorithmSpec.relax`, the
function the device iterations run), prices its seconds on the serial
CPU model (:func:`~repro.cpu.costmodel.traversal_seconds`) and records
variant ``"cpu"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import RuntimeConfig
from repro.core.policies import AdaptivePolicy
from repro.cpu.costmodel import traversal_seconds
from repro.engine.driver import _drive
from repro.engine.registry import get_algorithm
from repro.engine.spec import StepOutcome
from repro.engine.types import TraversalResult
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.gpusim.transfer import record_transfer

__all__ = ["HybridConfig", "HybridResult", "hybrid_run"]


@dataclass(frozen=True)
class HybridConfig:
    """Policy knobs of the hybrid executor."""

    #: run the sweep on the CPU when its estimated serial time is below
    #: this multiple of the GPU's fixed per-iteration floor
    cpu_advantage: float = 1.0
    #: consecutive iterations a device is kept after a switch (hysteresis)
    min_run_length: int = 2


class HybridResult(TraversalResult):
    """A traversal whose iterations each ran on the host or the device;
    the schedule is read off the records (host iterations record
    variant ``"cpu"``)."""

    @property
    def devices(self) -> List[str]:
        """``"cpu"`` or ``"gpu"`` per iteration."""
        return ["cpu" if r.variant == "cpu" else "gpu" for r in self.iterations]

    @property
    def transitions(self) -> int:
        # Execution starts on the device, where the initial transfers put it.
        devices = self.devices
        return sum(a != b for a, b in zip(["gpu"] + devices, devices))

    @property
    def cpu_iterations(self) -> int:
        return sum(1 for r in self.iterations if r.variant == "cpu")

    @property
    def gpu_iterations(self) -> int:
        return self.num_iterations - self.cpu_iterations


class _Placement:
    """The per-iteration host/device choice, with hysteresis.  It runs
    before the policy is consulted, and runs host iterations itself."""

    def __init__(self, graph: CSRGraph, device: DeviceSpec, config: HybridConfig):
        self.config = config
        self.out_degrees = graph.out_degrees
        #: the fixed cost of one GPU iteration: two kernel launches plus
        #: the loop-condition readback
        self.gpu_floor = 2 * device.kernel_launch_overhead_s + device.pcie_latency_s
        self.on_device = True  # the initial transfers put the state there
        self.run_length = config.min_run_length  # free first choice

    def __call__(self, ctx, row, size: int) -> Optional[StepOutcome]:
        # The host holds the row offsets, so the upcoming sweep's edge
        # count is known exactly — no average-degree estimate needed.
        est_edges = int(self.out_degrees[row.state.frontier].sum())
        est_cpu = traversal_seconds(size, est_edges, 0)
        on_device = est_cpu >= self.config.cpu_advantage * self.gpu_floor
        if on_device != self.on_device and self.run_length < self.config.min_run_length:
            on_device = self.on_device
        if on_device != self.on_device:
            # A switch moves the state array plus the current frontier.
            ctx.timeline.add_transfer(record_transfer(
                "h2d" if on_device else "d2h",
                4 * ctx.graph.num_nodes + 4 * size,
                ctx.device,
            ))
            self.on_device = on_device
            self.run_length = 0
        self.run_length += 1
        if on_device:
            return None
        outcome, _ = row.spec.relax(ctx.graph, row.state)
        seconds = traversal_seconds(size, outcome.edges_scanned, 0)
        ctx.timeline.add_host_seconds(seconds)
        ctx.seconds += seconds
        outcome.label = "cpu"
        return outcome


def hybrid_run(
    graph: CSRGraph,
    algorithm: str,
    source: int,
    *,
    hybrid_config: Optional[HybridConfig] = None,
    config: Optional[RuntimeConfig] = None,
    device: DeviceSpec = TESLA_C2070,
    max_iterations: Optional[int] = None,
) -> HybridResult:
    """BFS or SSSP (*algorithm*) from *source* with per-iteration
    CPU/GPU placement: host sweeps for tiny frontiers, the adaptive GPU
    variants (under *config*) for large ones."""
    if algorithm not in ("bfs", "sssp"):
        raise KernelError(
            f"hybrid execution runs 'bfs' or 'sssp', not {algorithm!r}"
        )
    info = get_algorithm(algorithm)
    source = info.resolve_source(graph, source)
    config = config or RuntimeConfig()
    placement = _Placement(graph, device, hybrid_config or HybridConfig())
    traversal = _drive(
        graph, source, AdaptivePolicy(graph, config, device=device),
        info.make_spec(), device, max_iterations,
        config.queue_gen, place=placement,
    )
    return HybridResult(**dict(
        vars(traversal), algorithm=f"hybrid_{algorithm}", policy_name="hybrid"
    ))
