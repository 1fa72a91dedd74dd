"""Push-based PageRank on the GPU frame — the second extension algorithm.

Residual-push PageRank is the textbook *unordered* amorphous algorithm
(Galois's running example, Section II's lineage): each sweep processes
every node whose residual exceeds the tolerance, absorbs the residual
into its rank, and scatter-adds ``damping * residual / outdegree`` to
its neighbors' residuals via ``atomicAdd`` — the same
working-set / update-vector structure as unordered BFS/SSSP, so the
variants and the adaptive runtime apply unchanged.

PageRank's working-set trajectory is distinctive: it *starts at all
nodes* (everyone holds initial residual), collapses quickly as
low-degree regions converge, then trickles for many iterations around
hubs — a mid-traversal mix that exercises every region of the decision
space in one run.

Expressed as :class:`PagerankSpec` on the generic engine
(:mod:`repro.engine`), the traversal inherits the reliability seams
(watchdog, checkpoint/resume — the checkpoint payload carries the
residual array — and fault hooks), memory-budget charging and observer
metrics that used to be BFS/SSSP-only.
"""

from __future__ import annotations

import numpy as np

from repro.engine.driver import FrameContext
from repro.engine.registry import AlgorithmInfo, register_algorithm
from repro.engine.spec import AlgorithmSpec, FrameState, StepOutcome
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.graph.properties import _ragged_gather_indices, sorted_unique
from repro.kernels import costs
from repro.kernels.multisource import RowRelaxation

__all__ = ["PagerankSpec"]


class PagerankSpec(AlgorithmSpec):
    """Residual-push PageRank: ``values`` are the ranks (float64)."""

    name = "pagerank"
    source_based = False
    #: the serial reference accumulates float pushes in a different
    #: order, so CPU ranks match GPU ranks only to tolerance
    cpu_exact = False
    #: each push is a neighbor load + float divide share + atomicAdd
    edge_cost = costs.C_EDGE_WEIGHTED

    def __init__(self, damping: float = 0.85, tolerance: float = 1e-6):
        if not 0 < damping < 1:
            raise KernelError(f"damping must be in (0, 1), got {damping}")
        if tolerance <= 0:
            raise KernelError(f"tolerance must be > 0, got {tolerance}")
        self.damping = damping
        self.tolerance = tolerance

    def init_state(self, ctx: FrameContext) -> FrameState:
        n = ctx.graph.num_nodes
        rank = np.zeros(n, dtype=np.float64)
        residual = np.full(n, (1.0 - self.damping) / max(1, n), dtype=np.float64)
        frontier = np.flatnonzero(residual >= self.tolerance).astype(np.int64)
        return FrameState(rank, frontier, residual=residual)

    def default_cap(self, graph: CSRGraph) -> int:
        return 1000 * max(1, int(np.log2(max(2, graph.num_nodes))))

    def cap_message(self, cap: int) -> str:
        return f"pagerank exceeded {cap} iterations; lower the tolerance"

    def first_choose_size(self, state: FrameState) -> int:
        # The true initial workset size: 0 (every node already under
        # tolerance) must skip the policy — the loop exits immediately.
        return int(state.frontier.size)

    def relax(self, graph, state, *, ordered=False):
        """One push sweep; mutates the ranks and residuals in place.

        The next working set is the nodes whose residual is at or above
        the tolerance after the sweep; the outcome counts the pushes
        that crossed it, while the launch prices one atomic per push
        and emits at least one element.
        """
        frontier, rank, residual = state.frontier, state.values, state.residual
        offsets, cols = graph.row_offsets, graph.col_indices
        degrees = graph.out_degrees[frontier]

        r = residual[frontier]
        rank[frontier] += r
        residual[frontier] = 0.0

        has_out = degrees > 0
        src = frontier[has_out]
        edges = 0
        improved = 0
        if src.size:
            idx = _ragged_gather_indices(offsets[src], offsets[src + 1])
            edges = int(idx.size)
            dst = cols[idx]
            share = np.repeat(
                self.damping * r[has_out] / degrees[has_out], degrees[has_out]
            )
            before = residual[dst] < self.tolerance
            np.add.at(residual, dst, share)
            crossed = before & (residual[dst] >= self.tolerance)
            improved = int(crossed.sum())
            updated = sorted_unique(dst[residual[dst] >= self.tolerance])
        else:
            updated = np.empty(0, dtype=np.int64)
        # Frontier members whose residual was re-raised above tolerance by
        # their own neighbors within this sweep stay in the working set.
        updated = np.union1d(
            updated, frontier[residual[frontier] >= self.tolerance]
        ).astype(np.int64)
        count = int(updated.size)
        return (
            StepOutcome(updated, count, int(frontier.size), edges, improved),
            RowRelaxation(frontier, degrees, edges, max(1, count)),
        )

    def checkpoint_extra(self, state: FrameState) -> dict:
        return {"residual": state.residual}

    def resume_state(self, values, frontier, checkpoint) -> FrameState:
        return FrameState(
            values, frontier,
            residual=self._checkpoint_scalar(checkpoint, "residual"),
        )


def _cpu_pagerank_reference(graph, source, *, damping=0.85, tolerance=1e-6, **params):
    from repro.cpu import cpu_pagerank

    # The "fast" engine processes whole above-tolerance sweeps, mirroring
    # the GPU kernel's iteration structure, so its fixpoint tracks the
    # GPU ranks far tighter than the FIFO engine's push ordering does.
    result = cpu_pagerank(graph, damping=damping, tolerance=tolerance, method="fast")
    return result.ranks, result


register_algorithm(
    AlgorithmInfo(
        name="pagerank",
        summary="residual-push PageRank: ranks to a tolerance",
        make_spec=PagerankSpec,
        cpu_run=_cpu_pagerank_reference,
        param_names=("damping", "tolerance"),
    )
)
