"""Serial single-source-shortest-path baselines.

The paper's CPU baseline for SSSP is Dijkstra's algorithm with a binary
heap (Table 3's caption: "serial CPU baseline - Dijkstra's algorithm").
:func:`cpu_dijkstra` offers two engines:

- ``method="heap"`` — a faithful lazy-deletion binary-heap Dijkstra with
  exact operation counts (pushes, pops, max heap size).  Pure Python, so
  it is reserved for small and mid-size graphs.
- ``method="fast"`` — distances via a vectorized settle-order sweep, with
  heap-operation counts reproduced from the relaxation sequence.  Used
  automatically above a size threshold; the counts match the heap engine
  closely (tested) while running orders of magnitude faster.

:func:`cpu_bellman_ford` is the unordered serial counterpart (frontier
Bellman-Ford), used by tests as a second oracle and by the ablation
benches.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.cpu.costmodel import dijkstra_seconds, traversal_seconds
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.properties import _ragged_gather_indices, sorted_unique

__all__ = ["CpuSsspResult", "cpu_dijkstra", "cpu_bellman_ford"]

INF = np.float64(np.inf)

#: above this edge count the pure-Python heap engine is too slow
_FAST_THRESHOLD_EDGES = 200_000


@dataclass(frozen=True)
class CpuSsspResult:
    """Distances plus the operation counts that priced the run."""

    distances: np.ndarray
    nodes_visited: int
    edges_scanned: int
    heap_pushes: int
    heap_pops: int
    max_heap_size: int
    seconds: float

    @property
    def reached(self) -> int:
        return int(np.isfinite(self.distances).sum())


def _require_weights(graph: CSRGraph) -> np.ndarray:
    if graph.weights is None:
        raise GraphError(
            f"SSSP requires edge weights; graph {graph.name!r} has none "
            "(use attach_uniform_weights or with_weights)"
        )
    return graph.weights


def cpu_dijkstra(
    graph: CSRGraph,
    source: int,
    *,
    method: Literal["auto", "heap", "fast"] = "auto",
) -> CpuSsspResult:
    """Serial Dijkstra from *source*; unreachable nodes get ``inf``."""
    weights = _require_weights(graph)
    graph._check_node(source)
    if method == "auto":
        method = "heap" if graph.num_edges <= _FAST_THRESHOLD_EDGES else "fast"
    if method == "heap":
        return _dijkstra_heap(graph, weights, source)
    if method == "fast":
        return _dijkstra_fast(graph, weights, source)
    raise ValueError(f"unknown method {method!r}")


def _dijkstra_heap(
    graph: CSRGraph, weights: np.ndarray, source: int
) -> CpuSsspResult:
    n = graph.num_nodes
    offsets = graph.row_offsets
    cols = graph.col_indices
    dist = np.full(n, INF, dtype=np.float64)
    dist[source] = 0.0
    settled = np.zeros(n, dtype=bool)
    heap = [(0.0, source)]
    pushes = pops = visited = edges = 0
    max_heap = 1
    while heap:
        d, u = heapq.heappop(heap)
        pops += 1
        if settled[u]:
            continue
        settled[u] = True
        visited += 1
        lo, hi = offsets[u], offsets[u + 1]
        for i in range(lo, hi):
            edges += 1
            v = int(cols[i])
            nd = d + float(weights[i])
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
                pushes += 1
                max_heap = max(max_heap, len(heap))
    seconds = dijkstra_seconds(visited, edges, pushes, pops, max_heap, n)
    return CpuSsspResult(
        distances=dist,
        nodes_visited=visited,
        edges_scanned=edges,
        heap_pushes=pushes + 1,  # initial push of the source
        heap_pops=pops,
        max_heap_size=max_heap,
        seconds=seconds,
    )


def _dijkstra_fast(
    graph: CSRGraph, weights: np.ndarray, source: int
) -> CpuSsspResult:
    """Vectorized settle-order Dijkstra.

    Phase 1 computes exact distances with a frontier Bellman-Ford (cheap
    in NumPy).  Phase 2 replays the relaxations in settle (distance)
    order, batched, to count how many would have improved the tentative
    distance — i.e. how many heap pushes lazy Dijkstra performs.
    """
    n = graph.num_nodes
    offsets, cols = graph.row_offsets, graph.col_indices
    final = _bellman_distances(graph, weights, source)

    reached = np.flatnonzero(np.isfinite(final))
    order = reached[np.argsort(final[reached], kind="stable")]
    visited = int(order.size)
    starts, ends = offsets[order], offsets[order + 1]
    edges = int((ends - starts).sum())

    cur = np.full(n, INF, dtype=np.float64)
    cur[source] = 0.0
    pushes = 1
    # Batched replay: nodes settled in distance order relax their edges
    # against the tentative array.  Batches are small enough that
    # intra-batch double-counting is negligible, and every batch applies
    # its updates before the next (preserving the sequential semantics
    # between batches).
    num_batches = max(1, min(visited, 256))
    for chunk in np.array_split(order, num_batches):
        if chunk.size == 0:
            continue
        s, e = offsets[chunk], offsets[chunk + 1]
        idx = _ragged_gather_indices(s, e)
        if idx.size == 0:
            continue
        dsts = cols[idx]
        cand = np.repeat(final[chunk], (e - s)) + weights[idx]
        improves = cand < cur[dsts]
        pushes += int(improves.sum())
        np.minimum.at(cur, dsts[improves], cand[improves])
    pops = pushes
    max_heap = max(1, pushes - visited + 1)
    seconds = dijkstra_seconds(visited, edges, pushes, pops, max_heap, n)
    return CpuSsspResult(
        distances=final,
        nodes_visited=visited,
        edges_scanned=edges,
        heap_pushes=pushes,
        heap_pops=pops,
        max_heap_size=max_heap,
        seconds=seconds,
    )


def _bellman_distances(
    graph: CSRGraph, weights: np.ndarray, source: int
) -> np.ndarray:
    """Exact distances via vectorized frontier Bellman-Ford."""
    n = graph.num_nodes
    offsets, cols = graph.row_offsets, graph.col_indices
    dist = np.full(n, INF, dtype=np.float64)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        starts, ends = offsets[frontier], offsets[frontier + 1]
        idx = _ragged_gather_indices(starts, ends)
        if idx.size == 0:
            break
        dsts = cols[idx]
        cand = np.repeat(dist[frontier], (ends - starts)) + weights[idx]
        before = dist[dsts].copy()
        np.minimum.at(dist, dsts, cand)
        improved = dist[dsts] < before
        frontier = sorted_unique(dsts[improved])
    return dist


def cpu_bellman_ford(graph: CSRGraph, source: int) -> CpuSsspResult:
    """Serial frontier Bellman-Ford (the unordered CPU counterpart)."""
    weights = _require_weights(graph)
    graph._check_node(source)
    n = graph.num_nodes
    offsets, cols = graph.row_offsets, graph.col_indices
    dist = np.full(n, INF, dtype=np.float64)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    relaxations = 0
    node_visits = 0
    while frontier.size:
        node_visits += int(frontier.size)
        starts, ends = offsets[frontier], offsets[frontier + 1]
        idx = _ragged_gather_indices(starts, ends)
        relaxations += int(idx.size)
        if idx.size == 0:
            break
        dsts = cols[idx]
        cand = np.repeat(dist[frontier], (ends - starts)) + weights[idx]
        before = dist[dsts].copy()
        np.minimum.at(dist, dsts, cand)
        improved = dist[dsts] < before
        frontier = sorted_unique(dsts[improved])
    seconds = traversal_seconds(node_visits, relaxations, n)
    return CpuSsspResult(
        distances=dist,
        nodes_visited=node_visits,
        edges_scanned=relaxations,
        heap_pushes=0,
        heap_pops=0,
        max_heap_size=0,
        seconds=seconds,
    )
