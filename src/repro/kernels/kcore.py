"""k-core decomposition on the GPU frame — the third extension algorithm.

Iterative peeling is another amorphous working-set computation: for
each k, the working set holds the still-alive nodes whose remaining
degree dropped below k; processing a node removes it (coreness = k-1)
and atomically decrements its neighbors' degrees, which may push *them*
into the working set.  When a k-stage drains, a filter kernel over the
alive set seeds the next stage.

The working-set trajectory is a sawtooth: each k-stage starts with a
burst (all sub-k nodes at once), cascades briefly, and drains —
repeating up to the maximum coreness.  It is the most switch-intensive
trajectory in the repository and a stress test for cheap switching.

On the generic engine (:mod:`repro.engine`) the multi-phase structure
maps onto the :meth:`~repro.engine.spec.AlgorithmSpec.refill` hook: when
a k-stage drains, :class:`KcoreSpec` prices the filter kernel and seeds
the next stage, or reports convergence when nothing is left alive.  The
checkpoint payload carries the remaining-degree array, the alive mask
and the current k, so a faulted decomposition resumes mid-sawtooth.
"""

from __future__ import annotations

import numpy as np

from repro.engine.driver import FrameContext
from repro.engine.registry import AlgorithmInfo, register_algorithm
from repro.engine.spec import AlgorithmSpec, FrameState, StepOutcome
from repro.graph.csr import CSRGraph
from repro.graph.properties import (
    _ragged_gather_indices,
    is_symmetric,
    sorted_unique,
)
from repro.graph.transforms import symmetrize
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelTally
from repro.gpusim.launch import LaunchConfig
from repro.kernels import costs
from repro.kernels.multisource import RowRelaxation
from repro.kernels.workset import GEN_TPB

__all__ = ["KcoreSpec"]


def _filter_tally(num_nodes: int, device: DeviceSpec) -> KernelTally:
    """The per-stage filter kernel: scan the alive set for degree < k."""
    launch = LaunchConfig.for_elements(max(1, num_nodes), GEN_TPB, device)
    warps = launch.total_warps(device)
    return KernelTally(
        name="kcore_filter",
        launch=launch,
        issue_cycles=float(warps * costs.C_CHECK * 2),
        useful_lane_cycles=float(num_nodes * costs.C_CHECK),
        max_block_cycles=float(launch.warps_per_block(device) * costs.C_CHECK * 2),
        mem_transactions=float(np.ceil(num_nodes * 5 / device.transaction_bytes)),
        active_threads=num_nodes,
    )


class KcoreSpec(AlgorithmSpec):
    """Iterative peeling: ``values`` are the per-node core numbers.

    Multi-phase: the engine's :meth:`refill` hook runs the per-stage
    filter kernel; ``state.k`` starts at 0 so the first refill seeds the
    k=1 stage."""

    name = "kcore"
    source_based = False
    default_variant = "U_B_QU"

    def init_state(self, ctx: FrameContext) -> FrameState:
        n = ctx.graph.num_nodes
        return FrameState(
            np.zeros(n, dtype=np.int64),  # coreness
            np.empty(0, dtype=np.int64),  # filled by the first refill
            degree=ctx.graph.out_degrees.copy().astype(np.int64),
            alive=np.ones(n, dtype=bool),
            k=0,
        )

    def prepare(self, graph: CSRGraph):
        work = graph if is_symmetric(graph) else symmetrize(graph)
        return work, (0.0 if work is graph else work.num_edges * 12e-9)

    def default_cap(self, graph: CSRGraph) -> int:
        return 8 * graph.num_nodes + 64

    def cap_message(self, cap: int) -> str:
        return f"k-core exceeded {cap} iterations"

    def first_choose_size(self, state: FrameState) -> int:
        # Every node enters the k=1 stage; 0 only for an empty graph,
        # where the policy must not be consulted at all.
        return int(state.values.size)

    def refill(self, ctx: FrameContext, state: FrameState):
        if not state.alive.any():
            return None
        state.k += 1
        # Stage seed: a filter kernel over the alive set.  On the
        # timeline (at the current iteration, under the current variant
        # label) but outside any iteration record, like the original
        # outer-loop seed.
        ctx.price_unattributed(_filter_tally(ctx.graph.num_nodes, ctx.device))
        ctx.readback()
        return np.flatnonzero(state.alive & (state.degree < state.k)).astype(np.int64)

    def relax(self, graph, state, *, ordered=False):
        """Peel one batch of sub-k nodes; mutates the state arrays in place.

        The next working set is the alive nodes whose degree dropped
        below k this sweep.  Every neighbor load is followed by an
        atomicSub and a compare; the launch prices one atomic per
        decrement and emits at least one element.
        """
        frontier, degree, alive, k = state.frontier, state.degree, state.alive, state.k
        offsets, cols = graph.row_offsets, graph.col_indices
        degrees_now = graph.out_degrees[frontier]

        state.values[frontier] = k - 1
        alive[frontier] = False
        idx = _ragged_gather_indices(offsets[frontier], offsets[frontier + 1])
        edges = int(idx.size)
        improved = 0
        if edges:
            neigh = cols[idx]
            before = degree[neigh] >= k
            np.subtract.at(degree, neigh, 1)
            crossed = before & (degree[neigh] < k)
            improved = int(crossed.sum())
            candidates = sorted_unique(neigh[(degree[neigh] < k)])
            updated = candidates[alive[candidates]].astype(np.int64)
        else:
            updated = np.empty(0, dtype=np.int64)
        count = int(updated.size)
        return (
            StepOutcome(updated, count, int(frontier.size), edges, improved),
            RowRelaxation(frontier, degrees_now, edges, max(1, count)),
        )

    def checkpoint_extra(self, state: FrameState) -> dict:
        return {"degree": state.degree, "alive": state.alive, "k": state.k}

    def resume_state(self, values, frontier, checkpoint) -> FrameState:
        return FrameState(
            values,
            frontier,
            degree=self._checkpoint_scalar(checkpoint, "degree"),
            alive=self._checkpoint_scalar(checkpoint, "alive"),
            k=self._checkpoint_scalar(checkpoint, "k"),
        )


def _cpu_kcore_reference(graph, source, **params):
    from repro.cpu import cpu_kcore

    result = cpu_kcore(graph)
    return result.coreness, result


register_algorithm(
    AlgorithmInfo(
        name="kcore",
        summary="iterative-peeling k-core decomposition (core numbers)",
        make_spec=KcoreSpec,
        cpu_run=_cpu_kcore_reference,
    )
)
