"""Serial breadth-first search baseline.

Level-synchronous frontier BFS — algorithmically identical to the FIFO
formulation (every node is settled at its minimum hop count) but
vectorized per level so multi-million-node oracles stay fast in Python.
Operation counts feed :func:`repro.cpu.costmodel.traversal_seconds` to
produce the baseline's simulated runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.costmodel import traversal_seconds
from repro.graph.csr import CSRGraph
from repro.graph.properties import _ragged_gather_indices, sorted_unique

__all__ = ["CpuBfsResult", "cpu_bfs"]

UNREACHED = np.int64(-1)


@dataclass(frozen=True)
class CpuBfsResult:
    """Levels plus the operation counts that priced the run."""

    levels: np.ndarray
    nodes_visited: int
    edges_scanned: int
    seconds: float

    @property
    def reached(self) -> int:
        return int((self.levels >= 0).sum())


def cpu_bfs(graph: CSRGraph, source: int) -> CpuBfsResult:
    """Serial BFS from *source*; levels are -1 for unreachable nodes."""
    graph._check_node(source)
    n = graph.num_nodes
    offsets, cols = graph.row_offsets, graph.col_indices
    levels = np.full(n, UNREACHED, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)

    nodes_visited = 0
    edges_scanned = 0
    level = 0
    while frontier.size:
        level += 1
        nodes_visited += int(frontier.size)
        starts = offsets[frontier]
        ends = offsets[frontier + 1]
        edges_scanned += int((ends - starts).sum())
        idx = _ragged_gather_indices(starts, ends)
        if idx.size == 0:
            break
        neigh = cols[idx]
        fresh = sorted_unique(neigh[levels[neigh] == UNREACHED])
        if fresh.size == 0:
            break
        levels[fresh] = level
        frontier = fresh

    seconds = traversal_seconds(nodes_visited, edges_scanned, n)
    return CpuBfsResult(
        levels=levels,
        nodes_visited=nodes_visited,
        edges_scanned=edges_scanned,
        seconds=seconds,
    )
