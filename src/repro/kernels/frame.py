"""BFS and SSSP on the generic traversal frame (the paper's Figure 8).

The host loop itself lives in :mod:`repro.engine.driver` — one driver
for every algorithm, generic over a *variant policy* (the paper's
static implementations and the adaptive runtime) and an
:class:`~repro.engine.spec.AlgorithmSpec`.  This module expresses the
paper's two core algorithms as specs and registers them:

- :class:`BfsSpec` — level-synchronous BFS; ordered and unordered
  policies share the frame (their relaxation differs only in the
  visit-once rule);
- :class:`SsspSpec` — unordered (Bellman-Ford-style) SSSP;
- :class:`OrderedSsspSpec` — ordered SSSP (GPU Dijkstra with a findmin
  reduction each iteration, choosing its variant at the loop top);
  :meth:`SsspSpec.for_policy` names it as the frame an ordered variant
  runs.

BFS and SSSP warm-start incremental recompute from the shared distance
seed (:func:`repro.engine.incremental.distance_seed`) with their own
unset value and weights.

Run them through the run modes: ``run_static(graph, source, "bfs",
"U_B_QU")``, ``adaptive_run(graph, "sssp", source)`` and
``resilient_run(graph, "bfs", source)``.  The unordered specs inherit
the engine's reliability seams (watchdog, checkpoint keeper, resume,
fault hooks) and memory-budget charging; ordered SSSP is not
checkpointable.
"""

from __future__ import annotations

import numpy as np

from repro.engine.driver import FrameContext
from repro.engine.incremental import distance_seed
from repro.engine.registry import AlgorithmInfo, register_algorithm
from repro.engine.spec import AlgorithmSpec, FrameState, StepOutcome, relaxed
from repro.engine.types import VariantPolicy
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.kernels import costs
from repro.kernels.computation import (
    INF,
    OrderedSsspState,
    UNSET_LEVEL,
    bfs_relax,
    sssp_ordered_step,
    sssp_relax,
)
from repro.kernels.findmin import findmin, findmin_tallies
from repro.kernels.variants import WorksetRepr

__all__ = ["BfsSpec", "SsspSpec", "OrderedSsspSpec"]


class BfsSpec(AlgorithmSpec):
    """Level-synchronous BFS: ``values`` are levels (int64, -1 unreached)."""

    name = "bfs"
    ordered_support = True
    batchable = True
    incremental = True

    def prepare(self, graph: CSRGraph):
        """A fresh run keeps *graph*'s transpose, so its relax can pull
        the wide levels (:func:`~repro.kernels.computation.bfs_relax`).

        The build is host-side bookkeeping, not a simulated cost: no
        transfer, no budget charge and no host seconds, since the
        simulated kernels still price the push.  A warm start builds
        nothing: its graph is new each epoch and its mixed-level
        frontiers never pull.
        """
        if self.warm is None:
            graph.reverse()
        return graph, 0.0

    def init_state(self, ctx: FrameContext) -> FrameState:
        levels = np.full(ctx.graph.num_nodes, UNSET_LEVEL, dtype=np.int64)
        levels[ctx.source] = 0
        frontier = np.array([ctx.source], dtype=np.int64)
        return FrameState(levels, frontier)

    def default_cap(self, graph: CSRGraph) -> int:
        return 4 * graph.num_nodes + 64

    def cap_message(self, cap: int) -> str:
        return (
            f"BFS exceeded its iteration budget of {cap} iterations "
            "(non-convergence)"
        )

    def relax(self, graph, state, *, ordered=False):
        return relaxed(state.frontier, bfs_relax(
            graph, state.frontier, state.values, ordered=ordered
        ))

    def warm_start(self, graph, previous, delta, source):
        return distance_seed(
            graph, previous.astype(np.int64, copy=False), delta, source,
            name=self.name, unset=UNSET_LEVEL, unit_weight=True,
        )

    def result_algorithm(self, policy: VariantPolicy) -> str:
        return "bfs_ordered" if policy.is_ordered() else "bfs"


class SsspSpec(AlgorithmSpec):
    """Unordered SSSP: ``values`` are distances (float64, inf unreached)."""

    name = "sssp"
    weighted = True
    ordered_support = True
    batchable = True
    incremental = True
    edge_cost = costs.C_EDGE_WEIGHTED
    weight_streams = 1

    def validate(self, graph: CSRGraph, source: int) -> None:
        super().validate(graph, source)
        if graph.weights is None:
            raise KernelError(
                f"SSSP requires edge weights; graph {graph.name!r} has none"
            )

    def init_state(self, ctx: FrameContext) -> FrameState:
        dist = np.full(ctx.graph.num_nodes, INF, dtype=np.float64)
        dist[ctx.source] = 0.0
        frontier = np.array([ctx.source], dtype=np.int64)
        return FrameState(dist, frontier)

    def default_cap(self, graph: CSRGraph) -> int:
        return 16 * graph.num_nodes + 64

    def cap_message(self, cap: int) -> str:
        return (
            f"SSSP exceeded its iteration budget of {cap} iterations "
            "(non-convergence)"
        )

    def relax(self, graph, state, *, ordered=False):
        return relaxed(state.frontier, sssp_relax(graph, state.frontier, state.values))

    def for_policy(self, policy: VariantPolicy) -> AlgorithmSpec:
        """An ordered policy runs GPU Dijkstra (:class:`OrderedSsspSpec`)."""
        return OrderedSsspSpec() if policy.is_ordered() else self

    def warm_start(self, graph, previous, delta, source):
        return distance_seed(
            graph, previous.astype(np.float64, copy=False), delta, source,
            name=self.name, unset=INF, unit_weight=False,
        )


class OrderedSsspSpec(SsspSpec):
    """Ordered SSSP (GPU Dijkstra): a findmin reduction each iteration
    retires every (node, key) pair at the current minimum key.

    Not batchable: the findmin reduction and the pair multiset are
    per-query structures the multi-source frame does not stack.

    The working-set structure depends on the representation: a queue
    holds the pair multiset verbatim; a bitmap dedupes via per-node
    atomicMin slots.  The representation is fixed by the policy's first
    choice (ordered traversals are static in the paper), and the policy
    is consulted at the loop top each iteration.
    """

    checkpointable = False
    adaptive_eligible = False
    chooses_at_top = True
    batchable = False
    #: ordered queues hold (node, key) pairs: 8 B per element
    workset_entry_bytes = 8

    def init_state(self, ctx: FrameContext) -> FrameState:
        first_variant = ctx.policy.choose(0, 1)
        dedupe = first_variant.workset is WorksetRepr.BITMAP
        ordered = OrderedSsspState.initial(
            ctx.graph.num_nodes, ctx.source, dedupe=dedupe
        )
        return FrameState(
            ordered.dist, np.empty(0, dtype=np.int64), ordered=ordered
        )

    def default_cap(self, graph: CSRGraph) -> int:
        # Each iteration retires every pair at the current minimum key,
        # so iterations are bounded by the number of pair insertions <= m.
        return 16 * graph.num_edges + 64

    def cap_message(self, cap: int) -> str:
        return (
            f"ordered SSSP exceeded its iteration budget of {cap} "
            "iterations (non-convergence)"
        )

    def work_remaining(self, state: FrameState) -> int:
        return int(state.ordered.workset_size)

    def compute(self, ctx, state, variant, tpb) -> StepOutcome:
        ordered = state.ordered
        ws_size = ordered.workset_size
        # findmin reduction over the working-set keys.
        min_key = findmin(ordered.ws_keys)
        for tally in findmin_tallies(
            ws_size, ctx.graph.num_nodes, variant.workset, ctx.device,
            entry_bytes=self.workset_entry_bytes,
        ):
            ctx.price(tally)
        if not np.isfinite(min_key):
            # Every remaining slot is +inf: only stale entries for nodes
            # settled via shorter paths remain, so the traversal has
            # converged — terminate cleanly (the reduction above still
            # ran and is priced).
            return None
        tally, settled, improved, edges = sssp_ordered_step(
            ctx.graph, ordered, min_key, variant, tpb, ctx.device
        )
        ctx.price(tally)
        return StepOutcome(
            next_frontier=None,
            updated_count=int(ordered.workset_size),
            processed=settled,
            edges_scanned=edges,
            improved_relaxations=improved,
            gen_count=min(ordered.workset_size, ctx.graph.num_nodes),
        )

    def result_algorithm(self, policy: VariantPolicy) -> str:
        return "sssp_ordered"


# ----------------------------------------------------------------------
# Registry entries
# ----------------------------------------------------------------------

def _cpu_bfs_reference(graph, source, **params):
    from repro.cpu import cpu_bfs

    result = cpu_bfs(graph, source)
    return result.levels, result


def _cpu_sssp_reference(graph, source, **params):
    from repro.cpu import cpu_dijkstra

    result = cpu_dijkstra(graph, source)
    return result.distances, result


register_algorithm(
    AlgorithmInfo(
        name="bfs",
        summary="breadth-first search: levels from a source node",
        make_spec=BfsSpec,
        cpu_run=_cpu_bfs_reference,
    )
)

register_algorithm(
    AlgorithmInfo(
        name="sssp",
        summary="single-source shortest paths over weighted edges",
        make_spec=SsspSpec,
        cpu_run=_cpu_sssp_reference,
    )
)
