"""Calibrated serial-CPU cost model.

The paper's baseline is a serial C++ implementation compiled with
``gcc -O3`` on an Intel Core i7 (Section VII).  We model its runtime
from operation counts: a cache-resident graph traversal on that class of
machine sustains on the order of 10^8 edge relaxations per second, and
binary-heap operations cost a few tens of nanoseconds each.  The paper
measures one host, so the per-operation costs are the module constants
below, and the two formulas that combine them are module functions:
:func:`traversal_seconds` for FIFO BFS and frontier Bellman-Ford, and
:func:`dijkstra_seconds` for the binary-heap Dijkstra.
"""

from __future__ import annotations

import math

__all__ = [
    "traversal_seconds",
    "dijkstra_seconds",
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


def traversal_seconds(nodes_visited: int, edges_scanned: int, num_nodes: int) -> float:
    """A FIFO or frontier sweep, in seconds on the serial baseline (Core
    i7, gcc -O3): every visit updates its node, every scan reads one
    edge.  FIFO BFS visits each reached node once; frontier Bellman-Ford
    counts every re-visit and relaxation."""
    return (
        num_nodes * INIT_PER_NODE_S
        + nodes_visited * (NODE_VISIT_S + UPDATE_S)
        + edges_scanned * EDGE_SCAN_S
    )


def dijkstra_seconds(
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
