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
from repro.gpusim.device import DeviceSpec
from repro.kernels import costs
from repro.kernels.computation import StepResult
from repro.kernels.mapping import ComputationShape, computation_tally
from repro.kernels.variants import Variant
from repro.kernels.workset import Workset

__all__ = ["pagerank_step", "PagerankSpec"]


def pagerank_step(
    graph: CSRGraph,
    workset: Workset,
    rank: np.ndarray,
    residual: np.ndarray,
    damping: float,
    tolerance: float,
    variant: Variant,
    threads_per_block: int,
    device: DeviceSpec,
    *,
    name: str = "pagerank_comp",
) -> StepResult:
    """One push sweep; mutates *rank* and *residual* in place.

    Returns the nodes whose residual crossed the tolerance during this
    sweep (the next working set).
    """
    frontier = workset.nodes
    if frontier.size == 0:
        raise KernelError("pagerank_step called with an empty working set")
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
            damping * r[has_out] / degrees[has_out], degrees[has_out]
        )
        before = residual[dst] < tolerance
        np.add.at(residual, dst, share)
        crossed = before & (residual[dst] >= tolerance)
        improved = int(crossed.sum())
        updated = sorted_unique(dst[residual[dst] >= tolerance])
    else:
        updated = np.empty(0, dtype=np.int64)
    # Frontier members whose residual was re-raised above tolerance by
    # their own neighbors within this sweep stay in the working set.
    updated = np.union1d(
        updated, frontier[residual[frontier] >= tolerance]
    ).astype(np.int64)

    shape = ComputationShape(
        name=name,
        num_nodes=graph.num_nodes,
        active_ids=frontier,
        degrees=degrees,
        # Each push is a neighbor load + float divide share + atomicAdd.
        edge_cost=costs.C_EDGE_WEIGHTED,
        improved=edges,  # every push is an atomic residual update
        updated_count=max(1, int(updated.size)),
        weight_streams=0,
    )
    tally = computation_tally(
        shape, variant.mapping, variant.workset, threads_per_block, device
    )
    return StepResult(
        updated=updated,
        tally=tally,
        improved_relaxations=improved,
        edges_scanned=edges,
        processed=int(frontier.size),
    )


class PagerankSpec(AlgorithmSpec):
    """Residual-push PageRank: ``values`` are the ranks (float64)."""

    name = "pagerank"
    source_based = False
    #: the serial reference accumulates float pushes in a different
    #: order, so CPU ranks match GPU ranks only to tolerance
    cpu_exact = False

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

    def compute(self, ctx, state, variant, tpb) -> StepOutcome:
        workset = Workset.from_update_ids(state.frontier, variant.workset)
        step = pagerank_step(
            ctx.graph, workset, state.values, state.residual,
            self.damping, self.tolerance, variant, tpb, ctx.device,
        )
        ctx.price(step.tally)
        return StepOutcome(
            next_frontier=step.updated,
            updated_count=int(step.updated.size),
            processed=step.processed,
            edges_scanned=step.edges_scanned,
            improved_relaxations=step.improved_relaxations,
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
