"""The ``CUDA_computation`` kernels of BFS and SSSP: their relaxations.

Each relaxation processes the working set's neighborhood exactly as the
paper's kernels do (Figure 9): read the working set, process each active
node (compute its level/distance), visit its neighbors, and mark
improved neighbors in the update vector.  The *results* come from
vectorized NumPy and return the structural profile (the update vector,
the active nodes' outdegrees, how many relaxations improved, how many
edges were scanned); the specs of :mod:`repro.kernels.frame` hand that
profile to the one launch pricing
(:meth:`repro.engine.spec.AlgorithmSpec.compute`).  Ordered SSSP's
step (:func:`sssp_ordered_step`) selects its own subset and prices
itself.

BFS levels use ``int64`` with ``-1`` as "unset"; SSSP distances use
``float64`` with ``inf`` as "unset".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.graph.properties import _ragged_gather_indices, sorted_unique
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelTally
from repro.kernels import costs
from repro.kernels.mapping import computation_tally
from repro.kernels.multisource import RowRelaxation, launch_shape
from repro.kernels.variants import Variant

__all__ = [
    "bfs_relax",
    "sssp_relax",
    "OrderedSsspState",
    "sssp_ordered_step",
]

UNSET_LEVEL = np.int64(-1)
INF = np.float64(np.inf)
#: UNSET_LEVEL seen through a uint64 view of the levels: the largest value
_UNSET_UNSIGNED = np.iinfo(np.uint64).max


def _gather_edges(graph: CSRGraph, nodes: np.ndarray):
    """Edge indices, destinations and per-node degrees for *nodes*.

    Destinations are widened to int64 once: NumPy indexes with int32
    ids through a casting path that costs more than the copy, and every
    relaxation indexes the value array with them.
    """
    starts = graph.row_offsets[nodes]
    ends = graph.row_offsets[nodes + 1]
    degrees = ends - starts
    idx = _ragged_gather_indices(starts, ends)
    return idx, graph.col_indices[idx].astype(np.int64), degrees


def _scatter_min(values: np.ndarray, dst: np.ndarray, improving: np.ndarray, cand):
    """Lower ``values`` at the improving edges' destinations to their
    candidates (the minimum per destination).

    Returns ``(updated, improved_count)``.  Every improving candidate
    lies strictly below its destination's value, so the distinct touched
    destinations are exactly the nodes that changed: the update vector,
    found without a |V|-wide copy and compare.  A scalar *cand* (one
    candidate for every edge) is a plain store.
    """
    # Positions, then takes: boolean-mask indexing is several times
    # slower on the mixed masks a relaxation produces.
    hit = np.flatnonzero(improving)
    if hit.size == 0:
        return np.empty(0, dtype=np.int64), 0
    touched = dst[hit]
    if np.ndim(cand):
        np.minimum.at(values, touched, cand[hit])
    else:
        values[touched] = cand
    return sorted_unique(touched), int(hit.size)


# ----------------------------------------------------------------------
# BFS (ordered and unordered share the level-synchronous flow; the
# ordered version visits a node only while its level is unset, the
# unordered one whenever the level would decrease — Figure 4)
# ----------------------------------------------------------------------

def bfs_relax(
    graph: CSRGraph,
    frontier: np.ndarray,
    levels: np.ndarray,
    *,
    ordered: bool = False,
):
    """The BFS relaxation itself, independent of the execution substrate.

    Mutates *levels* (int64, ``-1`` unset) in place and returns
    ``(updated_ids, degrees, improved_count, edges_scanned)``.  BFS's
    :meth:`~repro.kernels.frame.BfsSpec.relax`, so every schedule runs
    it: the simulated GPU kernels, batch rows, shards and the hybrid
    runtime's CPU iterations.

    Levels are compared as uint64, where unset (-1) is the largest
    value, so "unset or worse" is one compare.  A level-synchronous
    frontier (every node on one level, the only kind a from-scratch BFS
    produces) offers a single candidate level; a mixed one (incremental
    seeding) offers one per edge and keeps the minimum per destination.

    The frontier *pushes*: every frontier node scans its out-edges.  A
    wide level-synchronous level on a graph that already holds its
    transpose may be *pulled* instead (:func:`_pull_level`), with the
    same results; ``edges_scanned`` still counts the push's edges, which
    is what the simulated kernel prices.
    """
    if levels.dtype != np.int64:
        raise KernelError(f"BFS levels must be int64, got {levels.dtype}")
    if graph._reverse is not None:
        pulled = _pull_level(graph, frontier, levels, ordered)
        if pulled is not None:
            return pulled
    idx, dst, degrees = _gather_edges(graph, frontier)
    base = levels[frontier]
    if base.size and (base != base[0]).any():
        cand = np.repeat(base + 1, degrees).view(np.uint64)
    else:
        cand = int(base[0]) + 1 if base.size else 0
    unsigned = levels.view(np.uint64)
    old = unsigned[dst]
    improving = old == _UNSET_UNSIGNED if ordered else old > cand
    updated, improved = _scatter_min(unsigned, dst, improving, cand)
    return updated, degrees, improved, int(idx.size)


def _pull_level(graph, frontier, levels, ordered):
    """Relax one BFS level by pull over the transpose *graph* holds, or
    return ``None`` when push is the one to run.

    Pull scans the in-edges of U, the nodes that have an in-edge and
    whose level the candidate would lower, for a frontier parent.  It
    runs only when that is exact and touches fewer edges than push:

    - the frontier is non-empty and strictly ascending, since push
      counts a duplicated node's edges twice;
    - the frontier's E_f out-edges number at least |V|, so the
      |V|-wide passes below cost no more than the push scan;
    - every frontier node is on one level, so there is one candidate;
    - U's in-edges number fewer than E_f.

    The cheapest checks run first.  An ascending frontier's out-edges
    lie between its first node's row start and its last node's row
    end, so a level whose span holds fewer than |V| edges (most levels
    on a road graph) is rejected before any per-node work.

    Every improving push edge is an in-edge of U from the frontier, so
    the hits are push's improving edges and the nodes hit are its
    ``updated``, already sorted.  The relax never builds a transpose.
    A fresh whole-graph run builds it once per graph
    (:meth:`~repro.kernels.frame.BfsSpec.prepare`), and so does a
    :class:`~repro.serve.session.GraphSession`.  A shard view holds
    none: it is |V| rows wide, so a pull pays its |V|-wide passes for
    about a quarter of the edges and measured slower than the push.  A
    warm start holds none either: its graph is new each epoch and its
    mixed-level frontiers never pull.
    """
    n = graph.num_nodes
    row_offsets = graph.row_offsets
    if frontier.size == 0 or (
        row_offsets[frontier[-1] + 1] - row_offsets[frontier[0]] < n
    ):
        return None
    degrees = row_offsets[frontier + 1] - row_offsets[frontier]
    frontier_edges = int(degrees.sum())
    if frontier_edges < n or (frontier[1:] <= frontier[:-1]).any():
        return None
    base = levels[frontier]
    if (base != base[0]).any():
        return None
    cand = int(base[0]) + 1
    unsigned = levels.view(np.uint64)
    improvable = unsigned == _UNSET_UNSIGNED if ordered else unsigned > cand
    reverse = graph._reverse
    lengths = reverse.out_degrees[improvable]
    if int(lengths.sum()) >= frontier_edges:
        return None
    reached = lengths > 0
    targets = np.flatnonzero(improvable)[reached]
    lengths = lengths[reached]
    # U's in-rows, gathered as in _ragged_gather_indices; every row is
    # non-empty, so each one's first slot starts a reduceat segment.
    row_ends = np.cumsum(lengths)
    first_slot = row_ends - lengths
    idx = np.repeat(reverse.row_offsets[targets] - first_slot, lengths)
    idx += np.arange(idx.size, dtype=np.int64)
    in_frontier = np.zeros(n, dtype=bool)
    in_frontier[frontier] = True
    hits = np.take(in_frontier, np.take(reverse.col_indices, idx))
    updated = targets[np.logical_or.reduceat(hits, first_slot)]
    if updated.size:
        unsigned[updated] = cand
    return updated, degrees, int(np.count_nonzero(hits)), frontier_edges


# ----------------------------------------------------------------------
# Unordered SSSP (Bellman-Ford sweeps over the working set — Figure 5)
# ----------------------------------------------------------------------

#: out-edges per slice of a wide SSSP relaxation (see :func:`sssp_relax`)
_SLICE_EDGES = 1 << 16


def _edge_slices(graph: CSRGraph, frontier: np.ndarray):
    """*frontier* cut into runs of about ``_SLICE_EDGES`` out-edges (a
    node with more gets a run of its own), or whole when its row span
    holds no more than that."""
    row_offsets = graph.row_offsets
    if frontier.size == 0 or (
        row_offsets[frontier[-1] + 1] - row_offsets[frontier[0]] <= _SLICE_EDGES
    ):
        return [frontier]
    ends = np.cumsum(row_offsets[frontier + 1] - row_offsets[frontier])
    marks = np.arange(_SLICE_EDGES, int(ends[-1]), _SLICE_EDGES)
    cuts = sorted_unique(np.searchsorted(ends, marks) + 1)
    return np.split(frontier, cuts[cuts < frontier.size])


def _joined(parts):
    """One array from per-slice parts (the part itself when only one)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def sssp_relax(graph: CSRGraph, frontier: np.ndarray, dist: np.ndarray):
    """The SSSP relaxation itself, independent of the execution substrate.

    Mutates *dist* in place and returns
    ``(updated_ids, degrees, improved_count, edges_scanned)``.

    A wide frontier is relaxed in slices of about ``_SLICE_EDGES``
    out-edges.  Every slice reads the distances as they were on entry,
    and the improving edges' candidates are min-scattered in edge order
    after the last slice, so the result is the one-pass result.  In one
    pass, a wide iteration's temporaries took about 25 MB at once:
    glibc grew its heap past the trim threshold and gave the pages back
    at every free, so whenever the heap held no block that large, each
    wide iteration faulted them in again (7-13k minor faults per query
    on sns @ 0.02).
    """
    touched, cands, degrees, edges = [], [], [], 0
    for nodes in _edge_slices(graph, frontier):
        idx, dst, part_degrees = _gather_edges(graph, nodes)
        cand = np.repeat(dist[nodes], part_degrees)
        cand += graph.weights[idx]
        hit = np.flatnonzero(cand < dist[dst])
        touched.append(dst[hit])
        cands.append(cand[hit])
        degrees.append(part_degrees)
        edges += idx.size
    touched, degrees = _joined(touched), _joined(degrees)
    if touched.size == 0:
        return np.empty(0, dtype=np.int64), degrees, 0, edges
    np.minimum.at(dist, touched, _joined(cands))
    return sorted_unique(touched), degrees, int(touched.size), edges


# ----------------------------------------------------------------------
# Ordered SSSP (GPU Dijkstra: findmin by reduction + selective process)
# ----------------------------------------------------------------------

@dataclass
class OrderedSsspState:
    """Device state of the ordered SSSP traversal.

    The ordered working set of Figure 5 is a multiset of
    ``(node, distance)`` pairs — "the same node can appear multiple times
    in the working set with different weight values".  How the pairs are
    stored depends on the representation:

    - **queue**: the pairs live verbatim in the queue, duplicates and
      all (``dedupe=False``) — the working set can grow toward O(m);
    - **bitmap**: a bitmap cannot hold a multiset, so insertions
      ``atomicMin`` into a per-node key slot (``dedupe=True``), and the
      working set stays bounded by n.
    """

    dist: np.ndarray
    ws_nodes: np.ndarray
    ws_keys: np.ndarray
    dedupe: bool

    @classmethod
    def initial(cls, num_nodes: int, source: int, *, dedupe: bool) -> "OrderedSsspState":
        return cls(
            dist=np.full(num_nodes, INF, dtype=np.float64),
            ws_nodes=np.array([source], dtype=np.int64),
            ws_keys=np.array([0.0], dtype=np.float64),
            dedupe=dedupe,
        )

    @property
    def workset_size(self) -> int:
        return int(self.ws_nodes.size)


def sssp_ordered_step(
    graph: CSRGraph,
    state: OrderedSsspState,
    min_key: float,
    variant: Variant,
    threads_per_block: int,
    device: DeviceSpec,
    *,
    name: str = "sssp_ordered_comp",
) -> Tuple[KernelTally, int, int, int]:
    """Process the minimum-key subset of the working set (Dijkstra order).

    Every working-set element pays the key-comparison guard; only the
    elements at the minimum key settle and expand (Section IV.A:
    "ordered algorithms effectively process only a subset of the working
    set" each iteration).  Mutates *state* in place and returns the
    launch's ``(tally, settled, improved_relaxations, edges_scanned)``.
    """
    if graph.weights is None:
        raise KernelError("SSSP requires a weighted graph")
    active = state.ws_nodes
    keys = state.ws_keys
    if active.size == 0:
        raise KernelError("ordered step called with an empty working set")
    ws_size = int(active.size)
    at_min = keys <= min_key
    selected = active[at_min]
    rem_nodes = active[~at_min]
    rem_keys = keys[~at_min]

    # Settle: nodes whose distance is still unset take the min key; stale
    # pairs (node already settled via a shorter path) are dropped.
    fresh = sorted_unique(selected[~np.isfinite(state.dist[selected])])
    state.dist[fresh] = min_key

    improved_count = 0
    edges = 0
    ins_nodes = np.empty(0, dtype=np.int64)
    ins_keys = np.empty(0, dtype=np.float64)
    degrees_all = np.zeros(ws_size, dtype=np.int64)
    if fresh.size:
        idx, dst, degrees = _gather_edges(graph, fresh)
        edges = int(idx.size)
        cand = np.repeat(state.dist[fresh], degrees) + graph.weights[idx]
        open_dst = ~np.isfinite(state.dist[dst])
        improved_count = int(open_dst.sum())
        ins_nodes = dst[open_dst]
        ins_keys = cand[open_dst]
        # Attribute edge work to working-set slots for the warp profile.
        if state.dedupe:
            # Sorted-unique working set: exact slot per fresh node.
            degrees_all[np.searchsorted(active, fresh)] = degrees
        else:
            # Pair multiset: one arbitrary selected slot per fresh node
            # (slot choice only shifts which warp carries the work).
            sel_pos = np.flatnonzero(at_min)
            degrees_all[sel_pos[: fresh.size]] = degrees

    if state.dedupe:
        # Bitmap: atomicMin into per-node slots, one entry per node.
        merged_nodes = np.concatenate([rem_nodes, ins_nodes])
        merged_keys = np.concatenate([rem_keys, ins_keys])
        if merged_nodes.size:
            order = np.lexsort((merged_keys, merged_nodes))
            merged_nodes = merged_nodes[order]
            merged_keys = merged_keys[order]
            first = np.ones(merged_nodes.size, dtype=bool)
            first[1:] = merged_nodes[1:] != merged_nodes[:-1]
            merged_nodes = merged_nodes[first]
            merged_keys = merged_keys[first]
        state.ws_nodes, state.ws_keys = merged_nodes, merged_keys
    else:
        # Queue: pairs pile up verbatim.
        state.ws_nodes = np.concatenate([rem_nodes, ins_nodes])
        state.ws_keys = np.concatenate([rem_keys, ins_keys])

    # A bitmap's slots are the node ids; a queue's are the pair positions.
    row = RowRelaxation(
        active if state.dedupe else np.arange(ws_size, dtype=np.int64),
        degrees_all,
        improved_count,
        max(1, int(sorted_unique(ins_nodes).size)) if ins_nodes.size else 0,
    )
    shape = launch_shape(
        [row], graph.num_nodes, edge_cost=costs.C_EDGE_WEIGHTED,
        weight_streams=1, name=name, guard_cost=costs.C_PAIR_CHECK,
    )
    tally = computation_tally(
        shape, variant.mapping, variant.workset, threads_per_block, device
    )
    return tally, int(fresh.size), improved_count, edges
