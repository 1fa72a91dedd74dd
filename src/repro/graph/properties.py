"""Graph characterization: the statistics the paper's Table 1 reports and
the topology attributes the adaptive runtime's graph inspector consumes.

Includes degree summaries, outdegree histograms (Figure 1), a BFS-based
pseudo-diameter estimate, and reachability/component helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, make_rng
from repro.utils.stats import Histogram, degree_histogram_bins, histogram

__all__ = [
    "GraphCharacterization",
    "characterize",
    "out_degree_histogram",
    "bfs_levels",
    "reachable_count",
    "pseudo_diameter",
    "is_symmetric",
    "largest_out_component_node",
]


@dataclass(frozen=True)
class GraphCharacterization:
    """One row of the paper's Table 1 plus derived attributes."""

    name: str
    num_nodes: int
    num_edges: int
    min_out_degree: int
    max_out_degree: int
    avg_out_degree: float
    out_degree_std: float
    pseudo_diameter: Optional[int] = None

    def table_row(self) -> Tuple:
        """Cells in the order of Table 1: network, #nodes, #edges, min/max/avg."""
        return (
            self.name,
            self.num_nodes,
            self.num_edges,
            self.min_out_degree,
            self.max_out_degree,
            round(self.avg_out_degree, 1),
        )


def characterize(
    graph: CSRGraph, *, estimate_diameter: bool = False, seed: SeedLike = 0
) -> GraphCharacterization:
    """Compute the Table-1 statistics for *graph*.

    The pseudo-diameter (expensive: a few BFS sweeps) is only computed
    when *estimate_diameter* is set.
    """
    deg = graph.out_degrees
    if graph.num_nodes == 0:
        return GraphCharacterization(graph.name, 0, 0, 0, 0, 0.0, 0.0)
    diam = pseudo_diameter(graph, seed=seed) if estimate_diameter else None
    return GraphCharacterization(
        name=graph.name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        min_out_degree=int(deg.min()),
        max_out_degree=int(deg.max()),
        avg_out_degree=float(deg.mean()),
        out_degree_std=float(deg.std()),
        pseudo_diameter=diam,
    )


def out_degree_histogram(graph: CSRGraph, n_bins: int = 16) -> Histogram:
    """Histogram of outdegrees with geometric bins (Figure 1 series)."""
    deg = graph.out_degrees
    max_deg = int(deg.max()) if deg.size else 0
    edges = degree_histogram_bins(max_deg, n_bins=n_bins)
    return histogram(deg, edges)


# ----------------------------------------------------------------------
# Lightweight traversal utilities (independent of the simulator; these are
# plain host-side analyses used by the inspector and by tests as oracles).
# ----------------------------------------------------------------------

def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Level-synchronous BFS; returns int64 levels, -1 for unreachable."""
    graph._check_node(source)
    n = graph.num_nodes
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    offsets, cols = graph.row_offsets, graph.col_indices
    level = 0
    while frontier.size:
        level += 1
        # Gather all neighbors of the frontier in one vectorized sweep.
        starts = offsets[frontier]
        ends = offsets[frontier + 1]
        total = int((ends - starts).sum())
        if total == 0:
            break
        idx = _ragged_gather_indices(starts, ends)
        neigh = cols[idx]
        fresh = sorted_unique(neigh[levels[neigh] == -1])
        if fresh.size == 0:
            break
        levels[fresh] = level
        frontier = fresh
    return levels


def _ragged_gather_indices(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Indices covering ``[starts[i], ends[i])`` for all i, concatenated.

    Vectorized replacement for ``np.concatenate([np.arange(s, e) ...])``.
    Slot ``j`` of segment ``i`` holds ``starts[i] + j``: each segment's
    start, less the output position where the segment begins, repeated
    over the segment and added to the output position.  Empty (and
    inverted) segments repeat zero times.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.maximum(np.asarray(ends, dtype=np.int64) - starts, 0)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    first_slot = np.cumsum(lengths) - lengths
    out = np.repeat(starts - first_slot, lengths)
    out += np.arange(total, dtype=np.int64)
    return out


def sorted_unique(values) -> np.ndarray:
    """``np.unique(values)`` for integer arrays, by sort and compare.

    Recent NumPy releases hash integer input in ``np.unique``.  On the
    id arrays this package dedupes (frontiers, ghost sets, touched
    destinations, most of them already sorted or nearly so) that is an
    order of magnitude slower than one sort plus a neighbour compare.
    The result is sorted, flat and keeps the input dtype.
    """
    arr = np.sort(np.asarray(values).ravel())
    if arr.size > 1:
        keep = np.empty(arr.size, dtype=bool)
        keep[0] = True
        np.not_equal(arr[1:], arr[:-1], out=keep[1:])
        arr = arr[keep]
    return arr


def reachable_count(graph: CSRGraph, source: int) -> int:
    """Number of nodes reachable from *source* (including itself)."""
    return int((bfs_levels(graph, source) >= 0).sum())


def pseudo_diameter(graph: CSRGraph, *, sweeps: int = 4, seed: SeedLike = 0) -> int:
    """Lower bound on the diameter via repeated double-sweep BFS.

    Starts from a random node, repeatedly jumps to the farthest node found
    and re-runs BFS; the largest eccentricity observed is returned.  Exact
    on trees; a good lower bound in general, sufficient for classifying
    'large-diameter' road networks vs. 'small-world' social graphs.
    """
    if graph.num_nodes == 0:
        return 0
    rng = make_rng(seed)
    node = int(rng.integers(0, graph.num_nodes))
    best = 0
    for _ in range(max(1, sweeps)):
        levels = bfs_levels(graph, node)
        reached = levels >= 0
        if not reached.any():
            break
        ecc = int(levels[reached].max())
        best = max(best, ecc)
        farthest = int(np.argmax(np.where(reached, levels, -1)))
        if farthest == node:
            break
        node = farthest
    return best


def is_symmetric(graph: CSRGraph) -> bool:
    """True when for every edge u->v the edge v->u also exists."""
    n = graph.num_nodes
    src = np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees)
    dst = graph.col_indices.astype(np.int64)
    fwd = sorted_unique(src * n + dst)
    bwd = sorted_unique(dst * n + src)
    return fwd.size == bwd.size and bool(np.array_equal(fwd, bwd))


def largest_out_component_node(graph: CSRGraph, *, samples: int = 8, seed: SeedLike = 0) -> int:
    """A node whose BFS reaches the most nodes among *samples* random tries.

    Used to pick traversal sources that exercise a large fraction of the
    graph, the way the paper's experiments traverse from well-connected
    sources.
    """
    if graph.num_nodes == 0:
        raise ValueError("empty graph has no nodes")
    rng = make_rng(seed)
    candidates = rng.integers(0, graph.num_nodes, size=max(1, samples))
    # Always consider the max-outdegree node: in heavy-tailed graphs it is
    # almost surely inside the giant component.
    candidates = np.append(candidates, int(np.argmax(graph.out_degrees)))
    best_node, best_count = int(candidates[0]), -1
    for cand in sorted_unique(candidates):
        count = reachable_count(graph, int(cand))
        if count > best_count:
            best_node, best_count = int(cand), count
    return best_node
