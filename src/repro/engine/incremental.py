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

The door is generic over the registry: every algorithm whose spec sets
the ``incremental`` capability flag seeds its own warm start
(:meth:`~repro.engine.spec.AlgorithmSpec.warm_start`) with one of the
two seeding passes below, passing its own unset value and edge weights:

- :func:`label_seed` (CC) — inserted edges can only merge components,
  so min-label propagation restarted from the old labels with the
  inserted endpoints as the frontier reaches the same fixed point.  A
  deletion can split a component, so every old component touched by a
  deleted edge is reset to identity labels and fully re-seeded (the
  scoped recompute: old components are vertex-disjoint, so the blast
  radius never leaks past them).
- :func:`distance_seed` (BFS, SSSP) — inserted edges only shorten
  distances, so the old values are valid upper bounds and the
  relaxation is min-based: the frontier re-seeds from the inserted
  edges' source endpoints.  A deletion can lengthen distances, so the
  *tight-edge closure* of the deleted edges (every vertex whose old
  distance could have been derived through one) is reset to unreached,
  and the frontier re-seeds from the boundary: still-valid vertices
  with an edge into the reset region.

The row core starts a warm-started spec from its seeded state.  The
base graph is already device-resident from the previous run, so the
opening h2d transfer ships only the traversal state (the delta itself
was priced by :meth:`~repro.graph.dynamic.DeltaOverlayGraph.compact`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.engine.driver import run_frame
from repro.engine.registry import get_algorithm, registered_algorithms
from repro.engine.spec import WarmStart
from repro.engine.types import TraversalResult
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import MutationDelta
from repro.graph.properties import _ragged_gather_indices, sorted_unique
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.obs.context import current_observer

__all__ = [
    "IncrementalResult",
    "distance_seed",
    "label_seed",
    "run_incremental",
]

#: host-side cost of one edge scanned by the seeding passes (same
#: per-edge constant as the builder/symmetrize passes)
SEED_SECONDS_PER_EDGE = 12e-9


# ----------------------------------------------------------------------
# Seeding passes (host-side, vectorized)
# ----------------------------------------------------------------------

def _unique_concat(parts) -> np.ndarray:
    parts = [np.asarray(p, dtype=np.int64) for p in parts if len(p)]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return sorted_unique(np.concatenate(parts))


def label_seed(prev: np.ndarray, delta: MutationDelta, num_nodes: int) -> WarmStart:
    """CC's warm start: labels and frontier seeded from the previous
    labels *prev* (int64) after *delta*."""
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
    return WarmStart(labels, frontier, affected, 0.0)


def distance_seed(
    graph: CSRGraph,
    prev: np.ndarray,
    delta: MutationDelta,
    source: int,
    *,
    name: str,
    unset,
    unit_weight: bool,
) -> WarmStart:
    """BFS's (*unit_weight*) or SSSP's warm start: values and frontier
    seeded from the previous values *prev* of the *name* run from
    *source*, whose unreached vertices hold *unset*."""
    if source >= prev.size or prev[source] != 0:
        raise KernelError(
            f"previous values are not a {name} run from source "
            f"{source} (previous[source] must be 0)"
        )
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
    return WarmStart(
        values, frontier, int(affected.sum()), host_edges * SEED_SECONDS_PER_EDGE
    )


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
    **params,
) -> IncrementalResult:
    """Recompute *algorithm* after *delta*, warm-starting from *previous*.

    *algorithm* is any registered algorithm with the ``incremental``
    capability flag.  *graph* is the post-mutation graph, compacted to a
    :class:`~repro.graph.csr.CSRGraph`
    (:meth:`~repro.graph.dynamic.DeltaOverlayGraph.compact` prices that
    step).  *previous* is the previous run's values (array, or any
    result object with ``.values``) on the pre-mutation graph; *delta*
    is what :meth:`~repro.graph.dynamic.DeltaOverlayGraph.apply`
    returned.  Extra keyword arguments (*params*) build the algorithm's
    spec, as at every other door (CC's ``assume_symmetric``).

    The run goes through the ordinary adaptive machinery —
    :class:`~repro.core.policies.AdaptivePolicy` (or a learned policy
    artifact via *policy*, as in :func:`~repro.core.runtime.adaptive_run`)
    over :func:`~repro.engine.driver.run_frame` — so every reliability
    and observability seam applies, and an observed run reports the
    same ``runtime.*`` decision counts as :func:`adaptive_run`.  The
    returned values are bit-identical to a from-scratch run on the same
    graph.
    """
    info = get_algorithm(algorithm)
    if not info.incremental:
        supported = ", ".join(i.name for i in registered_algorithms() if i.incremental)
        raise KernelError(
            f"{algorithm!r} has no incremental recompute "
            f"(incremental algorithms: {supported})"
        )
    if not isinstance(graph, CSRGraph):
        raise KernelError(
            f"graph must be a compacted CSRGraph, got {type(graph).__name__}"
        )
    source = info.resolve_source(graph, source)
    spec = info.make_spec(**params)
    spec.validate(graph, source)
    prev = _previous_values(previous)
    if prev.size > graph.num_nodes:
        raise KernelError(
            f"previous values cover {prev.size} nodes but the mutated "
            f"graph has only {graph.num_nodes}"
        )
    warm = spec.warm = spec.warm_start(graph, prev, delta, source)

    # The adaptive policy layer lives above the engine; import lazily to
    # keep repro.engine importable on its own (same pattern as sharding).
    from repro.core.policies import make_policy, observed_run

    driver = make_policy(graph, policy, config, device=device, memory=memory)
    seed_frontier = int(warm.frontier.size)
    observer = current_observer()
    if observer is not None:
        observer.metrics.counter("dynamic.incremental_runs").inc()
        observer.metrics.histogram("dynamic.affected_nodes").observe(warm.affected)
        observer.metrics.histogram("dynamic.seed_frontier").observe(seed_frontier)
    traversal = observed_run(
        f"incremental_{algorithm}",
        lambda: run_frame(
            graph,
            source,
            driver,
            spec,
            device=device,
            max_iterations=max_iterations,
            queue_gen=driver.config.queue_gen,
            watchdog=watchdog,
            checkpoint_keeper=checkpoint_keeper,
            fault_hook=fault_hook,
            memory=memory,
        ),
        driver,
        affected=warm.affected,
        seed_frontier=seed_frontier,
    )
    return IncrementalResult(
        **vars(traversal),
        delta=delta,
        affected_nodes=warm.affected,
        seed_frontier_size=seed_frontier,
    )
