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
  level/distance array plus the frontier), so the policy uses hysteresis
  to avoid ping-ponging.

The per-iteration device choice compares the serial cost estimate of
the upcoming sweep (``nodes, expected edges`` priced by the CPU model)
against the GPU's fixed per-iteration floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import RuntimeConfig
from repro.core.policies import AdaptivePolicy
from repro.cpu.costmodel import CpuModel, DEFAULT_CPU
from repro.engine.driver import (
    _final_transfers,
    _initial_transfers,
    _readback,
    _tpb_for,
)
from repro.engine.registry import get_algorithm
from repro.engine.types import IterationRecord, TraversalResult
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.gpusim.kernel import CostModel, CostParams
from repro.gpusim.timeline import Timeline
from repro.gpusim.transfer import record_transfer
from repro.kernels.computation import (
    INF,
    UNSET_LEVEL,
    bfs_relax,
    bfs_step,
    sssp_relax,
    sssp_step,
)
from repro.kernels.workset import Workset, workset_gen_tallies

__all__ = ["HybridConfig", "HybridResult", "hybrid_run"]


@dataclass(frozen=True)
class HybridConfig:
    """Policy knobs of the hybrid executor."""

    #: run the sweep on the CPU when its estimated serial time is below
    #: this multiple of the GPU's fixed per-iteration floor
    cpu_advantage: float = 1.0
    #: consecutive iterations a device is kept after a switch (hysteresis)
    min_run_length: int = 2
    #: serial-CPU cost model for host-side sweeps
    cpu: CpuModel = DEFAULT_CPU


@dataclass
class HybridResult:
    """Traversal outcome plus the device schedule."""

    traversal: TraversalResult
    devices: List[str]  # "cpu" or "gpu" per iteration
    transitions: int

    @property
    def values(self) -> np.ndarray:
        return self.traversal.values

    @property
    def total_seconds(self) -> float:
        return self.traversal.total_seconds

    @property
    def cpu_iterations(self) -> int:
        return sum(1 for d in self.devices if d == "cpu")

    @property
    def gpu_iterations(self) -> int:
        return sum(1 for d in self.devices if d == "gpu")


def _gpu_iteration_floor(device: DeviceSpec) -> float:
    """The fixed cost of one GPU iteration: two kernel launches plus the
    loop-condition readback."""
    return 2 * device.kernel_launch_overhead_s + device.pcie_latency_s


def _state_sync_bytes(num_nodes: int, frontier_size: int) -> int:
    """Bytes moved when execution changes device: the state array plus
    the current frontier."""
    return 4 * num_nodes + 4 * frontier_size


def hybrid_run(
    graph: CSRGraph,
    algorithm: str,
    source: int,
    *,
    hybrid_config: Optional[HybridConfig] = None,
    config: Optional[RuntimeConfig] = None,
    device: DeviceSpec = TESLA_C2070,
    cost_params: Optional[CostParams] = None,
    max_iterations: Optional[int] = None,
) -> HybridResult:
    """BFS or SSSP (*algorithm*) from *source* with per-iteration
    CPU/GPU placement: host sweeps for tiny frontiers, the adaptive GPU
    variants (under *config*) for large ones."""
    if algorithm not in ("bfs", "sssp"):
        raise KernelError(
            f"hybrid execution runs 'bfs' or 'sssp', not {algorithm!r}"
        )
    source = get_algorithm(algorithm).resolve_source(graph, source)
    hybrid_config = hybrid_config or HybridConfig()
    weighted = algorithm == "sssp"
    if weighted and graph.weights is None:
        raise KernelError("hybrid SSSP requires a weighted graph")

    model = CostModel(device, cost_params)
    policy = AdaptivePolicy(graph, config, device=device)
    cpu = hybrid_config.cpu
    timeline = Timeline()
    _initial_transfers(graph, timeline, device)

    n = graph.num_nodes
    if weighted:
        state = np.full(n, INF, dtype=np.float64)
        state[source] = 0.0
    else:
        state = np.full(n, UNSET_LEVEL, dtype=np.int64)
        state[source] = 0

    frontier = np.array([source], dtype=np.int64)
    out_degrees = graph.out_degrees
    gpu_floor = _gpu_iteration_floor(device)

    records: List[IterationRecord] = []
    devices: List[str] = []
    location = "gpu"  # the initial transfers put the state on the device
    transitions = 0
    run_length = hybrid_config.min_run_length  # free first choice
    iteration = 0
    cap = max_iterations if max_iterations is not None else 16 * n + 64

    while frontier.size:
        if iteration >= cap:
            raise KernelError(f"hybrid {algorithm} exceeded {cap} iterations")

        # --- device decision (with hysteresis) -------------------------
        # The host holds the row offsets, so the upcoming sweep's edge
        # count is known exactly — no average-degree estimate needed.
        est_edges = int(out_degrees[frontier].sum())
        est_cpu = cpu.bfs_seconds(int(frontier.size), est_edges, 0)
        want = "cpu" if est_cpu < hybrid_config.cpu_advantage * gpu_floor else "gpu"
        if want != location and run_length < hybrid_config.min_run_length:
            want = location
        if want != location:
            timeline.add_transfer(
                record_transfer(
                    "h2d" if want == "gpu" else "d2h",
                    _state_sync_bytes(n, int(frontier.size)),
                    device,
                )
            )
            location = want
            transitions += 1
            run_length = 0
        run_length += 1

        # --- execute the sweep -----------------------------------------
        if location == "cpu":
            if weighted:
                updated, _, improved, edges = sssp_relax(graph, frontier, state)
            else:
                updated, _, improved, edges = bfs_relax(graph, frontier, state)
            seconds = cpu.bfs_seconds(int(frontier.size), edges, 0)
            timeline.add_host_seconds(seconds)
            record = IterationRecord(
                iteration=iteration,
                variant="cpu",
                workset_size=int(frontier.size),
                processed=int(frontier.size),
                updated=int(updated.size),
                edges_scanned=edges,
                improved_relaxations=improved,
                seconds=seconds,
            )
        else:
            variant = policy.choose(iteration, int(frontier.size))
            tpb = _tpb_for(variant, graph, device)
            workset = Workset.from_update_ids(frontier, variant.workset)
            step = (
                sssp_step(graph, workset, state, variant, tpb, device)
                if weighted
                else bfs_step(graph, workset, state, variant, tpb, device)
            )
            comp_cost = model.price(step.tally)
            timeline.add_kernel(iteration, step.tally, comp_cost, variant.code)
            seconds = comp_cost.seconds
            for tally in workset_gen_tallies(
                n, int(step.updated.size), variant.workset, device
            ):
                cost = model.price(tally)
                timeline.add_kernel(iteration, tally, cost, variant.code)
                seconds += cost.seconds
            _readback(timeline, device)
            updated = step.updated
            record = IterationRecord(
                iteration=iteration,
                variant=variant.code,
                workset_size=workset.size,
                processed=step.processed,
                updated=int(updated.size),
                edges_scanned=step.edges_scanned,
                improved_relaxations=step.improved_relaxations,
                seconds=seconds,
            )

        records.append(record)
        devices.append(location)
        frontier = updated
        iteration += 1

    if location == "gpu":
        _final_transfers(graph, timeline, device)

    traversal = TraversalResult(
        algorithm=f"hybrid_{algorithm}",
        source=source,
        values=state,
        iterations=records,
        timeline=timeline,
        device=device,
        policy_name="hybrid",
    )
    return HybridResult(traversal=traversal, devices=devices, transitions=transitions)
