"""Serial triangle-counting baseline (rank-oriented merge-path).

The reference walks the same degree-rank orientation the GPU spec uses
(:func:`repro.graph.transforms.rank_oriented_adjacency`): each triangle
is found exactly once as a wedge ``u -> v, u -> w`` whose closing edge
``v -> w`` exists in the oriented lists, and is attributed to its
lowest-ranked corner *u*.  Counts are exact integers, so GPU and CPU
values are bit-identical (``cpu_exact``).  Operation counts price the
run on the CPU cost model: one sorted-list intersection per oriented
edge, each costing the merge-path scan of both lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.costmodel import EDGE_SCAN_S, INIT_PER_NODE_S, NODE_VISIT_S, UPDATE_S
from repro.graph.csr import CSRGraph
from repro.graph.properties import is_symmetric
from repro.graph.transforms import rank_oriented_adjacency, symmetrize

__all__ = ["CpuTrianglesResult", "cpu_triangles"]


@dataclass(frozen=True)
class CpuTrianglesResult:
    """Per-node pivot counts plus the operation counts that priced the run."""

    #: triangles pivoted at each node (sum == total_triangles)
    counts: np.ndarray
    total_triangles: int
    #: merge-path comparisons performed across all intersections
    edges_scanned: int
    seconds: float


def cpu_triangles(graph: CSRGraph) -> CpuTrianglesResult:
    """Count triangles; ``counts[u]`` is the number pivoted at *u*."""
    work = graph if is_symmetric(graph) else symmetrize(graph)
    n = work.num_nodes
    counts = np.zeros(n, dtype=np.int64)
    if n == 0:
        return CpuTrianglesResult(counts, 0, 0, 0.0)
    indptr, indices = rank_oriented_adjacency(work)
    comparisons = 0
    for u in range(n):
        nbrs = indices[indptr[u] : indptr[u + 1]]
        if nbrs.size < 2:
            comparisons += int(nbrs.size)
            continue
        found = 0
        for v in nbrs:
            closing = indices[indptr[v] : indptr[v + 1]]
            comparisons += int(nbrs.size + closing.size)
            if closing.size:
                found += int(
                    np.intersect1d(nbrs, closing, assume_unique=True).size
                )
        counts[u] = found
    total = int(counts.sum())
    seconds = (
        n * (INIT_PER_NODE_S + NODE_VISIT_S)
        + comparisons * EDGE_SCAN_S
        + total * UPDATE_S
    )
    return CpuTrianglesResult(
        counts=counts,
        total_triangles=total,
        edges_scanned=comparisons,
        seconds=seconds,
    )
