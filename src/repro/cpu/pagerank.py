"""Serial push-based PageRank baseline.

The residual ("push") formulation of PageRank is the canonical
*unordered* algorithm of the Galois line of work the paper builds on:
maintain a residual per node; repeatedly pick any node whose residual
exceeds the tolerance, absorb the residual into its rank, and push
``damping * residual / outdegree`` to each neighbor's residual.  The
result is independent of processing order — exactly the amorphous
pattern of Section II — and equals power-iteration PageRank up to the
tolerance.

Dangling nodes (outdegree 0) absorb their residual: their rank is
correct but the lost mass slightly deflates other ranks relative to the
redistributing formulation; both the CPU and GPU implementations use
the same convention, and tests compare against networkx on
dangling-free graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.cpu.costmodel import EDGE_SCAN_S, INIT_PER_NODE_S, NODE_VISIT_S, UPDATE_S
from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = ["CpuPageRankResult", "cpu_pagerank"]


@dataclass(frozen=True)
class CpuPageRankResult:
    """Ranks plus the operation counts that priced the run."""

    ranks: np.ndarray
    pushes: int
    edges_pushed: int
    seconds: float

    @property
    def total_mass(self) -> float:
        return float(self.ranks.sum())


#: above this edge count the pure-Python FIFO engine is too slow
_FAST_THRESHOLD_EDGES = 100_000


def cpu_pagerank(
    graph: CSRGraph,
    *,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_pushes: int = 50_000_000,
    method: str = "auto",
) -> CpuPageRankResult:
    """Serial residual-push PageRank.

    ``method="fifo"`` is the exact FIFO-queue engine (pure Python);
    ``method="fast"`` processes whole above-tolerance sweeps with
    vectorized scatter-adds — same fixpoint, same operation counts up
    to processing order.  ``"auto"`` picks by graph size.
    """
    if not 0 < damping < 1:
        raise GraphError(f"damping must be in (0, 1), got {damping}")
    if tolerance <= 0:
        raise GraphError(f"tolerance must be > 0, got {tolerance}")
    if method == "auto":
        method = "fifo" if graph.num_edges <= _FAST_THRESHOLD_EDGES else "fast"
    if method == "fast":
        return _pagerank_fast(graph, damping, tolerance, max_pushes)
    if method != "fifo":
        raise ValueError(f"unknown method {method!r}")
    n = graph.num_nodes
    if n == 0:
        return CpuPageRankResult(np.empty(0), 0, 0, 0.0)
    offsets, cols = graph.row_offsets, graph.col_indices
    rank = np.zeros(n, dtype=np.float64)
    residual = np.full(n, (1.0 - damping) / n, dtype=np.float64)
    in_queue = np.ones(n, dtype=bool)
    queue = deque(range(n))

    pushes = 0
    edges = 0
    while queue:
        if pushes >= max_pushes:
            raise GraphError(f"pagerank exceeded {max_pushes} pushes")
        u = queue.popleft()
        in_queue[u] = False
        r = residual[u]
        if r < tolerance:
            continue
        pushes += 1
        rank[u] += r
        residual[u] = 0.0
        lo, hi = offsets[u], offsets[u + 1]
        deg = hi - lo
        if deg == 0:
            continue
        share = damping * r / deg
        for i in range(lo, hi):
            v = int(cols[i])
            edges += 1
            residual[v] += share
            if residual[v] >= tolerance and not in_queue[v]:
                in_queue[v] = True
                queue.append(v)

    seconds = (
        n * INIT_PER_NODE_S
        + pushes * (NODE_VISIT_S + UPDATE_S)
        + edges * EDGE_SCAN_S
    )
    return CpuPageRankResult(
        ranks=rank, pushes=pushes, edges_pushed=edges, seconds=seconds
    )


def _pagerank_fast(
    graph: CSRGraph,
    damping: float,
    tolerance: float,
    max_pushes: int,
) -> CpuPageRankResult:
    """Sweep-synchronous push PageRank with vectorized scatter-adds."""
    from repro.graph.properties import _ragged_gather_indices

    n = graph.num_nodes
    if n == 0:
        return CpuPageRankResult(np.empty(0), 0, 0, 0.0)
    offsets, cols = graph.row_offsets, graph.col_indices
    degrees = graph.out_degrees
    rank = np.zeros(n, dtype=np.float64)
    residual = np.full(n, (1.0 - damping) / n, dtype=np.float64)
    pushes = 0
    edges = 0
    while True:
        frontier = np.flatnonzero(residual >= tolerance)
        if frontier.size == 0:
            break
        if pushes >= max_pushes:
            raise GraphError(f"pagerank exceeded {max_pushes} pushes")
        pushes += int(frontier.size)
        r = residual[frontier]
        rank[frontier] += r
        residual[frontier] = 0.0
        deg = degrees[frontier]
        has_out = deg > 0
        src = frontier[has_out]
        if src.size:
            idx = _ragged_gather_indices(offsets[src], offsets[src + 1])
            edges += int(idx.size)
            share = np.repeat(damping * r[has_out] / deg[has_out], deg[has_out])
            np.add.at(residual, cols[idx], share)
    seconds = (
        n * INIT_PER_NODE_S
        + pushes * (NODE_VISIT_S + UPDATE_S)
        + edges * EDGE_SCAN_S
    )
    return CpuPageRankResult(
        ranks=rank, pushes=pushes, edges_pushed=edges, seconds=seconds
    )
