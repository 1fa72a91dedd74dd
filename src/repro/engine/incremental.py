"""Incremental recompute: warm-start traversals after graph mutations.

"Exploring the Design Space of Static and Incremental Graph
Connectivity Algorithms on GPUs" (see ``docs/paper-map.md``) shows that
re-running connectivity from scratch after a small update batch wastes
orders of magnitude of work.  :func:`run_incremental` is that idea on
this codebase's engine: instead of re-initializing the traversal state,
it *seeds* the frame with the previous run's values and a frontier
covering only the vertices a :class:`~repro.graph.dynamic.MutationDelta`
could have affected, then lets the ordinary
:func:`~repro.engine.driver.run_frame` loop converge — watchdog,
checkpoints, memory budget, fault hooks and observers all apply
unchanged, and the fixed point the warm frame reaches is *bit-identical*
to a from-scratch run on the compacted graph.

Seeding rules per algorithm:

- **cc** — inserted edges can only merge components, so min-label
  propagation restarted from the old labels with the inserted
  endpoints as the frontier reaches the same fixed point.  A deletion
  can split a component, so every old component touched by a deleted
  edge is reset to identity labels and fully re-seeded (the scoped
  recompute: old components are vertex-disjoint, so the blast radius
  never leaks past them).
- **bfs / sssp** — inserted edges only shorten distances, so the old
  values are valid upper bounds and the relaxation is min-based: the
  frontier re-seeds from the inserted edges' source endpoints.  A
  deletion can lengthen distances, so the *tight-edge closure* of the
  deleted edges (every vertex whose old distance could have been
  derived through one) is reset to unreached, and the frontier re-seeds
  from the boundary: still-valid vertices with an edge into the reset
  region.

Because the base graph is already device-resident from the previous
run, the warm frame's spec sets
:attr:`~repro.engine.spec.AlgorithmSpec.graph_resident`: the initial
h2d transfer ships only the traversal state (the delta itself was
priced by :meth:`~repro.graph.dynamic.DeltaOverlayGraph.compact`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.engine.driver import run_frame
from repro.engine.spec import FrameState
from repro.engine.types import TraversalResult
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import MutationDelta
from repro.graph.properties import _ragged_gather_indices, sorted_unique
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.kernels.cc import CcSpec
from repro.kernels.computation import INF, UNSET_LEVEL
from repro.kernels.frame import BfsSpec, SsspSpec
from repro.obs.context import current_observer

__all__ = [
    "IncrementalResult",
    "IncrementalCcSpec",
    "IncrementalBfsSpec",
    "IncrementalSsspSpec",
    "run_incremental",
]

#: host-side cost of one edge scanned by the seeding passes (same
#: per-edge constant as the builder/symmetrize passes)
SEED_SECONDS_PER_EDGE = 12e-9

INCREMENTAL_ALGORITHMS = ("cc", "bfs", "sssp")


# ----------------------------------------------------------------------
# Warm-start specs: ordinary specs whose initial state is seeded
# ----------------------------------------------------------------------

class _Seeded:
    """A spec warm-started from a seed: the prior values and an
    affected-vertex frontier, plus the host seconds the seeding pass
    took."""

    graph_resident = True

    def __init__(
        self,
        seed_values: np.ndarray,
        seed_frontier: np.ndarray,
        *,
        seed_host_seconds: float = 0.0,
        **params,
    ):
        super().__init__(**params)
        self._seed_values = seed_values
        self._seed_frontier = seed_frontier
        self._seed_host_seconds = seed_host_seconds

    def prepare(self, graph: CSRGraph):
        work_graph, host_seconds = super().prepare(graph)
        return work_graph, host_seconds + self._seed_host_seconds

    def init_state(self, ctx) -> FrameState:
        return FrameState(
            self._seed_values.copy(), self._seed_frontier.copy()
        )


class IncrementalCcSpec(_Seeded, CcSpec):
    """CC warm-started from prior labels and an affected-vertex frontier."""

    def first_choose_size(self, state: FrameState) -> int:
        # The warm frontier can legitimately be empty (a mutation batch
        # that moved nothing): 0 must skip the policy entirely.
        return int(state.frontier.size)


class IncrementalBfsSpec(_Seeded, BfsSpec):
    """BFS warm-started from prior levels and a re-seeded frontier."""


class IncrementalSsspSpec(_Seeded, SsspSpec):
    """Unordered SSSP warm-started from prior distances."""


# ----------------------------------------------------------------------
# Seeding passes (host-side, vectorized)
# ----------------------------------------------------------------------

def _unique_concat(parts) -> np.ndarray:
    parts = [np.asarray(p, dtype=np.int64) for p in parts if len(p)]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return sorted_unique(np.concatenate(parts))


def _cc_seed(prev: np.ndarray, delta: MutationDelta, num_nodes: int):
    """Seed labels/frontier for incremental CC.

    Returns ``(labels, frontier, affected_count, host_edges_scanned)``.
    """
    labels = np.arange(num_nodes, dtype=np.int64)
    labels[: prev.size] = prev
    parts = []
    affected = 0
    if delta.num_deletes:
        # Scoped recompute: reset every old component a deleted edge
        # touched to identity labels and re-seed all of its vertices.
        touched = _unique_concat(
            [labels[delta.del_src], labels[delta.del_dst]]
        )
        nodes = np.flatnonzero(np.isin(labels, touched))
        labels[nodes] = nodes
        parts.append(nodes)
        affected = int(nodes.size)
    if delta.num_inserts:
        # Re-union only inserted edges that actually bridge two labels:
        # an intra-component insert cannot move the fixed point, and a
        # reset component already has every vertex in the frontier, so
        # dropping its (identity-labelled) coincidences is sound too.
        bridges = labels[delta.ins_src] != labels[delta.ins_dst]
        parts.append(delta.ins_src[bridges])
        parts.append(delta.ins_dst[bridges])
    frontier = _unique_concat(parts)
    return labels, frontier, affected, 0


def _distance_seed(
    graph: CSRGraph,
    prev: np.ndarray,
    delta: MutationDelta,
    *,
    unset,
    source: int,
    unit_weight: bool,
):
    """Seed values/frontier for incremental BFS (unit weights) or SSSP.

    Returns ``(values, frontier, affected_count, host_edges_scanned)``.
    """
    n = graph.num_nodes
    values = np.full(n, unset, dtype=prev.dtype)
    values[: prev.size] = prev
    offsets, cols = graph.row_offsets, graph.col_indices
    weights = graph.weights
    host_edges = 0
    affected = np.zeros(n, dtype=bool)

    if delta.num_deletes:
        # Tight-edge closure: a deleted edge (u, v) invalidates v when
        # v's old value was derived through it; invalidation then flows
        # along every still-tight edge of the new graph.  Conservative
        # (a vertex with an alternative tight path is reset too) but
        # sound — the relaxation below restores it to the same value.
        du, dv = delta.del_src, delta.del_dst
        if unit_weight:
            tight = (values[du] != unset) & (values[dv] == values[du] + 1)
        else:
            dw = delta.del_weight
            tight = np.isfinite(values[du]) & (values[dv] == values[du] + dw)
        wave = sorted_unique(dv[tight])
        wave = wave[wave != source]
        while wave.size:
            affected[wave] = True
            starts, ends = offsets[wave], offsets[wave + 1]
            idx = _ragged_gather_indices(starts, ends)
            host_edges += int(idx.size)
            if idx.size == 0:
                break
            dst = cols[idx].astype(np.int64)
            src_vals = np.repeat(values[wave], (ends - starts))
            if unit_weight:
                step_tight = (src_vals != unset) & (values[dst] == src_vals + 1)
            else:
                step_tight = np.isfinite(src_vals) & (
                    values[dst] == src_vals + weights[idx]
                )
            nxt = dst[step_tight]
            nxt = nxt[(~affected[nxt]) & (nxt != source)]
            wave = sorted_unique(nxt)
        reset_nodes = np.flatnonzero(affected)
        values[reset_nodes] = unset

    parts = []
    if affected.any():
        # Boundary re-seed: still-valid vertices with an edge into the
        # reset region push their values back in.
        src_all = np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees)
        host_edges += int(cols.size)
        pick = affected[cols] & ~affected[src_all] & (values[src_all] != unset)
        parts.append(sorted_unique(src_all[pick]))
    if delta.num_inserts:
        # Inserted edges only shorten paths, and (u, v) can only move
        # the fixed point through the one new relaxation u -> v: seed u
        # only when that relaxation actually improves v.  (An unset u
        # is re-derived by the delete frontier first; once its value
        # lands it re-enters the frontier and pushes the new edge.)
        iu, iv = delta.ins_src, delta.ins_dst
        if unit_weight:
            improves = (values[iu] != unset) & (
                (values[iv] == unset) | (values[iv] > values[iu] + 1)
            )
        else:
            # Compare with the weight the kernel will see (float32
            # storage), not the raw op value, so marginal improvements
            # are judged with the traversal's own arithmetic.
            iw = delta.ins_weight.astype(np.float32)
            improves = np.isfinite(values[iu]) & (values[iv] > values[iu] + iw)
        parts.append(sorted_unique(iu[improves]))
    frontier = _unique_concat(parts)
    return values, frontier, int(affected.sum()), host_edges


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

@dataclass(kw_only=True)
class IncrementalResult(TraversalResult):
    """An incremental traversal plus what the warm start reused."""

    delta: MutationDelta
    #: vertices the seeding pass invalidated (0 for insert-only deltas)
    affected_nodes: int
    #: size of the warm frontier the frame started from
    seed_frontier_size: int


def _previous_values(previous) -> np.ndarray:
    if isinstance(previous, np.ndarray):
        return previous
    values = getattr(previous, "values", None)
    if values is None:
        raise KernelError(
            "previous must be a values array or a result with a .values "
            f"attribute, got {type(previous).__name__}"
        )
    return np.asarray(values)


def run_incremental(
    graph: CSRGraph,
    algorithm: str,
    previous,
    delta: MutationDelta,
    *,
    source: Optional[int] = None,
    config=None,
    device: DeviceSpec = TESLA_C2070,
    max_iterations: Optional[int] = None,
    watchdog=None,
    checkpoint_keeper=None,
    fault_hook=None,
    memory=None,
    policy=None,
    assume_symmetric: bool = False,
) -> IncrementalResult:
    """Recompute *algorithm* after *delta*, warm-starting from *previous*.

    *graph* is the post-mutation graph, compacted to a
    :class:`~repro.graph.csr.CSRGraph`
    (:meth:`~repro.graph.dynamic.DeltaOverlayGraph.compact` prices that
    step).  *previous* is the previous run's values (array, or any
    result object with ``.values``) on the pre-mutation graph; *delta*
    is what :meth:`~repro.graph.dynamic.DeltaOverlayGraph.apply`
    returned.

    The run goes through the ordinary adaptive machinery —
    :class:`~repro.core.policies.AdaptivePolicy` (or a learned policy
    artifact via *policy*, as in :func:`~repro.core.runtime.adaptive_run`)
    over :func:`~repro.engine.driver.run_frame` — so every reliability
    and observability seam applies.  The returned values are
    bit-identical to a from-scratch run on the same graph.
    """
    if algorithm not in INCREMENTAL_ALGORITHMS:
        raise KernelError(
            f"incremental recompute supports {INCREMENTAL_ALGORITHMS}, "
            f"got {algorithm!r}"
        )
    if not isinstance(graph, CSRGraph):
        raise KernelError(
            f"graph must be a compacted CSRGraph, got {type(graph).__name__}"
        )
    prev = _previous_values(previous)
    n = graph.num_nodes
    if prev.size > n:
        raise KernelError(
            f"previous values cover {prev.size} nodes but the mutated "
            f"graph has only {n}"
        )

    if algorithm == "cc":
        seed_values, frontier, affected, host_edges = _cc_seed(
            prev.astype(np.int64, copy=False), delta, n
        )
        run_source = -1
        spec = IncrementalCcSpec(
            seed_values,
            frontier,
            assume_symmetric=assume_symmetric,
            seed_host_seconds=host_edges * SEED_SECONDS_PER_EDGE,
        )
    else:
        if source is None:
            raise KernelError(f"incremental {algorithm} requires a source node")
        graph._check_node(source)
        if algorithm == "sssp" and graph.weights is None:
            raise KernelError(
                f"SSSP requires edge weights; graph {graph.name!r} has none"
            )
        unset = UNSET_LEVEL if algorithm == "bfs" else INF
        dtype = np.int64 if algorithm == "bfs" else np.float64
        prev = prev.astype(dtype, copy=False)
        if source >= prev.size or prev[source] != 0:
            raise KernelError(
                f"previous values are not a {algorithm} run from source "
                f"{source} (previous[source] must be 0)"
            )
        seed_values, frontier, affected, host_edges = _distance_seed(
            graph,
            prev,
            delta,
            unset=unset,
            source=source,
            unit_weight=algorithm == "bfs",
        )
        run_source = source
        spec_cls = IncrementalBfsSpec if algorithm == "bfs" else IncrementalSsspSpec
        spec = spec_cls(
            seed_values,
            frontier,
            seed_host_seconds=host_edges * SEED_SECONDS_PER_EDGE,
        )

    # The adaptive policy layer lives above the engine; import lazily to
    # keep repro.engine importable on its own (same pattern as sharding).
    from repro.core.policies import make_policy

    driver = make_policy(graph, policy, config, device=device, memory=memory)

    observer = current_observer()
    span = contextlib.nullcontext()
    if observer is not None:
        observer.metrics.counter("dynamic.incremental_runs").inc()
        observer.metrics.histogram("dynamic.affected_nodes").observe(affected)
        observer.metrics.histogram("dynamic.seed_frontier").observe(
            int(frontier.size)
        )
        span = observer.span(
            f"incremental_{algorithm}",
            affected=affected,
            seed_frontier=int(frontier.size),
        )
    with span:
        traversal = run_frame(
            graph,
            run_source,
            driver,
            spec,
            device=device,
            max_iterations=max_iterations,
            queue_gen=driver.config.queue_gen,
            watchdog=watchdog,
            checkpoint_keeper=checkpoint_keeper,
            fault_hook=fault_hook,
            memory=memory,
        )

    return IncrementalResult(
        **vars(traversal),
        delta=delta,
        affected_nodes=affected,
        seed_frontier_size=int(frontier.size),
    )
