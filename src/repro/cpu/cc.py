"""Serial connected-components baseline (union-find).

Weighted-union with path compression over the edge list — the textbook
serial baseline a GPU label-propagation implementation is measured
against.  Labels are normalized to the minimum node id per component so
results compare directly with the GPU kernels and with
:func:`repro.graph.transforms.weakly_connected_components`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.costmodel import EDGE_SCAN_S, INIT_PER_NODE_S, NODE_VISIT_S, UPDATE_S
from repro.graph.csr import CSRGraph
from repro.graph.properties import sorted_unique
from repro.graph.transforms import edge_arrays

__all__ = ["CpuCcResult", "cpu_connected_components"]


@dataclass(frozen=True)
class CpuCcResult:
    """Component labels plus the operation counts that priced the run."""

    labels: np.ndarray
    num_components: int
    find_operations: int
    union_operations: int
    seconds: float


def cpu_connected_components(graph: CSRGraph) -> CpuCcResult:
    """Weakly connected components via union-find.

    Edge direction is ignored (weak connectivity), matching what the
    GPU label-propagation kernels compute over the symmetrized edges.
    """
    n = graph.num_nodes
    parent = np.arange(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    finds = 0
    unions = 0

    def find(x: int) -> int:
        nonlocal finds
        root = x
        while parent[root] != root:
            root = parent[root]
            finds += 1
        # Path compression.
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    src, dst, _ = edge_arrays(graph)
    for u, v in zip(src.tolist(), dst.tolist()):
        ru, rv = find(u), find(v)
        finds += 2
        if ru != rv:
            unions += 1
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]

    # Normalize labels to the minimum node id per component.
    roots = np.array([find(i) for i in range(n)], dtype=np.int64)
    if n:
        comp_min = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(comp_min, roots, np.arange(n, dtype=np.int64))
        labels = comp_min[roots]
    else:
        labels = np.empty(0, dtype=np.int64)
    num_components = int(sorted_unique(labels).size) if n else 0

    # Pricing: a find chain step costs about an edge scan (pointer chase);
    # unions are node updates.
    seconds = (
        n * INIT_PER_NODE_S
        + finds * EDGE_SCAN_S
        + unions * UPDATE_S
        + n * NODE_VISIT_S
    )
    return CpuCcResult(
        labels=labels,
        num_components=num_components,
        find_operations=finds,
        union_operations=unions,
        seconds=seconds,
    )
