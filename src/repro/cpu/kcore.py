"""Serial k-core decomposition baseline.

The *coreness* (core number) of a node is the largest k such that the
node belongs to a subgraph in which every node has degree >= k.  The
serial baseline peels by increasing k: repeatedly delete nodes whose
remaining degree is below k, then advance k — operation counts price
the run on the CPU cost model.  Direction is ignored (degree = degree
in the symmetrized graph), matching the GPU kernels and
``networkx.core_number``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.costmodel import EDGE_SCAN_S, INIT_PER_NODE_S, NODE_VISIT_S, UPDATE_S
from repro.graph.csr import CSRGraph
from repro.graph.properties import _ragged_gather_indices, is_symmetric
from repro.graph.transforms import symmetrize

__all__ = ["CpuKCoreResult", "cpu_kcore"]


@dataclass(frozen=True)
class CpuKCoreResult:
    """Core numbers plus the operation counts that priced the run."""

    coreness: np.ndarray
    max_core: int
    nodes_peeled: int
    edges_scanned: int
    seconds: float


def cpu_kcore(graph: CSRGraph) -> CpuKCoreResult:
    """Peeling k-core decomposition; returns per-node core numbers."""
    work = graph if is_symmetric(graph) else symmetrize(graph)
    n = work.num_nodes
    if n == 0:
        return CpuKCoreResult(np.empty(0, dtype=np.int64), 0, 0, 0, 0.0)
    offsets, cols = work.row_offsets, work.col_indices
    degree = work.out_degrees.copy()
    alive = np.ones(n, dtype=bool)
    coreness = np.zeros(n, dtype=np.int64)

    peeled = 0
    edges = 0
    k = 1
    while alive.any():
        frontier = np.flatnonzero(alive & (degree < k))
        while frontier.size:
            peeled += int(frontier.size)
            coreness[frontier] = k - 1
            alive[frontier] = False
            idx = _ragged_gather_indices(offsets[frontier], offsets[frontier + 1])
            edges += int(idx.size)
            if idx.size:
                neigh = cols[idx]
                np.subtract.at(degree, neigh, 1)
            frontier = np.flatnonzero(alive & (degree < k))
        k += 1

    seconds = (
        n * INIT_PER_NODE_S
        + peeled * (NODE_VISIT_S + UPDATE_S)
        + edges * EDGE_SCAN_S
    )
    return CpuKCoreResult(
        coreness=coreness,
        max_core=int(coreness.max()) if n else 0,
        nodes_peeled=peeled,
        edges_scanned=edges,
        seconds=seconds,
    )
