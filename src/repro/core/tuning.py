"""Experimental tuning of the runtime thresholds (Section VII.B).

The analytical values (T1 = warp size, T2 = threads-per-block x #SMs)
are :func:`~repro.core.config.derive_t1` and
:func:`~repro.core.config.derive_t2`, the defaults
:class:`~repro.core.config.RuntimeConfig` resolves to.

- :func:`measure_t2_crossover` — the paper's empirical confirmation:
  measure per-kernel time of ``T_QU`` vs ``B_QU`` across working-set
  sizes and find where thread mapping starts winning ("B_QU outperforms
  T_QU for working set sizes smaller than ~3000");
- :func:`sweep_t3` — Figure 13: total execution time of the adaptive
  runtime as T3 sweeps over fractions of the node count;
- :func:`tune_t3` — pick the best fraction from a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import RuntimeConfig
from repro.core.runtime import adaptive_run
from repro.errors import TuningError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.gpusim.kernel import CostModel
from repro.kernels import costs
from repro.kernels.mapping import computation_tally
from repro.kernels.multisource import RowRelaxation, launch_shape
from repro.kernels.variants import (
    Mapping,
    THREAD_MAPPING_TPB,
    WorksetRepr,
    block_mapping_tpb,
)

__all__ = [
    "measure_t2_crossover",
    "T3SweepPoint",
    "sweep_t3",
    "tune_t3",
]


def measure_t2_crossover(
    graph: CSRGraph,
    *,
    device: DeviceSpec = TESLA_C2070,
    sizes: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> Tuple[int, List[Tuple[int, float, float]]]:
    """Empirical T2: smallest working-set size where ``T_QU``'s kernel is
    at least as fast as ``B_QU``'s.

    Returns ``(crossover_size, [(size, t_qu_seconds, b_qu_seconds), ...])``.
    Working sets are random node samples of each requested size, priced
    through the same tally machinery the traversals use.
    """
    if graph.num_nodes < 2:
        raise TuningError("graph too small to measure a crossover")
    rng = np.random.default_rng(seed)
    if sizes is None:
        sizes = [2**k for k in range(4, 18) if 2**k <= graph.num_nodes]
    model = CostModel(device)
    rows: List[Tuple[int, float, float]] = []
    crossover = graph.num_nodes
    for size in sizes:
        nodes = np.sort(rng.choice(graph.num_nodes, size=size, replace=False))
        degrees = graph.out_degrees[nodes]
        t_qu = _price_queue_kernel(graph, nodes, degrees, Mapping.THREAD, model, device)
        b_qu = _price_queue_kernel(graph, nodes, degrees, Mapping.BLOCK, model, device)
        rows.append((int(size), t_qu, b_qu))
    # Smallest size from which thread mapping stays ahead: scan downward
    # so sub-warp noise at tiny sizes does not fake an early crossover.
    crossover = graph.num_nodes
    for size, t_qu, b_qu in reversed(rows):
        if t_qu <= b_qu:
            crossover = size
        else:
            break
    return crossover, rows


def _price_queue_kernel(
    graph: CSRGraph,
    nodes: np.ndarray,
    degrees: np.ndarray,
    mapping: Mapping,
    model: CostModel,
    device: DeviceSpec,
) -> float:
    tpb = (
        THREAD_MAPPING_TPB
        if mapping is Mapping.THREAD
        else block_mapping_tpb(graph.avg_out_degree, device)
    )
    row = RowRelaxation(
        nodes, degrees, int(degrees.sum() // 2), max(1, int(degrees.sum() // 4))
    )
    shape = launch_shape(
        [row], graph.num_nodes, edge_cost=costs.C_EDGE, weight_streams=0,
        name="t2_probe",
    )
    tally = computation_tally(shape, mapping, WorksetRepr.QUEUE, tpb, device)
    return model.price(tally).seconds


@dataclass(frozen=True)
class T3SweepPoint:
    """One Figure-13 data point."""

    t3_fraction: float
    seconds: float
    num_switches: int


def sweep_t3(
    graph: CSRGraph,
    source: int,
    algorithm: str = "sssp",
    *,
    fractions: Sequence[float] = tuple(f / 100 for f in range(1, 14)),
    base_config: Optional[RuntimeConfig] = None,
    device: DeviceSpec = TESLA_C2070,
) -> List[T3SweepPoint]:
    """Adaptive-runtime execution time as T3 sweeps 1 %..13 % of |V|
    (the x-axis of Figure 13)."""
    base = base_config or RuntimeConfig()
    points: List[T3SweepPoint] = []
    for fraction in fractions:
        config = base.with_overrides(t3_fraction=float(fraction))
        result = adaptive_run(
            graph, algorithm, source, config=config, device=device
        )
        points.append(
            T3SweepPoint(
                t3_fraction=float(fraction),
                seconds=result.total_seconds,
                num_switches=result.trace.num_switches,
            )
        )
    return points


def tune_t3(points: Sequence[T3SweepPoint]) -> float:
    """The best T3 fraction from a sweep (minimum execution time)."""
    if not points:
        raise TuningError("cannot tune T3 from an empty sweep")
    best = min(points, key=lambda p: p.seconds)
    return best.t3_fraction
