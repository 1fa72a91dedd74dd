"""Calibrated serial-CPU cost model.

The paper's baseline is a serial C++ implementation compiled with
``gcc -O3`` on an Intel Core i7 (Section VII).  We model its runtime
from operation counts: a cache-resident graph traversal on that class of
machine sustains on the order of 10^8 edge relaxations per second, and
binary-heap operations cost a few tens of nanoseconds each.  The paper
measures one host, so the per-operation costs are the module constants
below, and :data:`DEFAULT_CPU` is the one :class:`CpuModel` that
combines them.
"""

from __future__ import annotations

import math

__all__ = [
    "CpuModel",
    "DEFAULT_CPU",
    "NODE_VISIT_S",
    "EDGE_SCAN_S",
    "UPDATE_S",
    "HEAP_STEP_S",
    "INIT_PER_NODE_S",
]

#: visiting a node: pop from queue, read offsets
NODE_VISIT_S = 8.0e-9

#: scanning one edge: load neighbor id + its state, compare
EDGE_SCAN_S = 5.0e-9

#: updating a node's level/distance + pushing to the FIFO
UPDATE_S = 6.0e-9

#: one binary-heap push or pop-fixup step (per comparison/swap)
HEAP_STEP_S = 9.0e-9

#: one-time setup per traversal (allocations, initialization) per node
INIT_PER_NODE_S = 1.2e-9


class CpuModel:
    """Aggregate formulas of the serial baseline (Core i7, gcc -O3),
    in seconds, over the per-operation constants of this module."""

    def bfs_seconds(self, nodes_visited: int, edges_scanned: int, num_nodes: int) -> float:
        """FIFO BFS: every reached node visited once, every out-edge scanned."""
        return (
            num_nodes * INIT_PER_NODE_S
            + nodes_visited * (NODE_VISIT_S + UPDATE_S)
            + edges_scanned * EDGE_SCAN_S
        )

    def dijkstra_seconds(
        self,
        nodes_visited: int,
        edges_scanned: int,
        heap_pushes: int,
        heap_pops: int,
        max_heap_size: int,
        num_nodes: int,
    ) -> float:
        """Binary-heap Dijkstra: pushes/pops cost log2(heap size) steps."""
        log_h = math.log2(max(2, max_heap_size))
        return (
            num_nodes * INIT_PER_NODE_S
            + nodes_visited * NODE_VISIT_S
            + edges_scanned * EDGE_SCAN_S
            + (heap_pushes + heap_pops) * log_h * HEAP_STEP_S
        )

    def bellman_ford_seconds(
        self, total_relaxations: int, total_node_visits: int, num_nodes: int
    ) -> float:
        """Frontier Bellman-Ford: cost proportional to total work done."""
        return (
            num_nodes * INIT_PER_NODE_S
            + total_node_visits * (NODE_VISIT_S + UPDATE_S)
            + total_relaxations * EDGE_SCAN_S
        )


DEFAULT_CPU = CpuModel()
