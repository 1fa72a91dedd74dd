"""Triangle counting on the GPU frame — the fusion pass's showcase workload.

Exact triangle counting over the degree-rank orientation
(:func:`repro.graph.transforms.rank_oriented_adjacency`): every
triangle survives as one wedge ``u -> v, u -> w`` closed by an oriented
edge ``v -> w`` and is attributed to its lowest-ranked corner, so
``result.values[u]`` is the number of triangles pivoted at *u* — exact
integers, identical under every variant and bit-identical to the CPU
reference (``cpu_exact``).

The step is the classic two-phase shape the spec-fusion pass
(:mod:`repro.engine.fusion`) exists for: a heavy intersection kernel
over the scheduled chunk, then a trivial generation kernel that
materializes the next chunk of the precomputed schedule.  Because the
schedule is loop-invariant, the per-iteration chunk descriptor the host
ships before each launch (:attr:`~repro.engine.spec.AlgorithmSpec.\
iteration_h2d_bytes`) is hoistable, and the generation kernel is always
a single launch — a fused plan merges every iteration, which is what
``benchmarks/bench_fusion_savings.py`` measures.

The graph is symmetrized on the host first (triangles live in the
undirected graph), and the oriented CSR rides the initial transfer as
an extra H2D payload, like DOBFS's reverse CSR.
"""

from __future__ import annotations

import numpy as np

from repro.engine.driver import FrameContext
from repro.engine.registry import AlgorithmInfo, register_algorithm
from repro.engine.spec import AlgorithmSpec, FrameState, StepOutcome
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.graph.properties import is_symmetric
from repro.graph.transforms import rank_oriented_adjacency, symmetrize
from repro.gpusim.transfer import record_transfer
from repro.kernels import costs
from repro.kernels.multisource import RowRelaxation

__all__ = ["TrianglesSpec"]

#: default nodes per scheduled chunk (one frame iteration)
DEFAULT_CHUNK = 256


class TrianglesSpec(AlgorithmSpec):
    """Chunked rank-oriented triangle counting as an engine spec."""

    name = "triangles"
    source_based = False
    checkpointable = False
    default_variant = "U_T_QU"
    #: the per-iteration chunk descriptor (bounds + schedule cursor +
    #: launch params) the host uploads before each computation launch;
    #: loop-invariant, so a fused plan hoists it
    iteration_h2d_bytes = 64
    #: a merge-path intersection step is one bounds-and-compare check
    edge_cost = costs.C_CHECK

    def __init__(self, chunk: int = DEFAULT_CHUNK, assume_symmetric: bool = False):
        if int(chunk) < 1:
            raise KernelError(f"chunk must be >= 1, got {chunk}")
        self.chunk = int(chunk)
        self.assume_symmetric = bool(assume_symmetric)

    def prepare(self, graph: CSRGraph):
        if not self.assume_symmetric and not is_symmetric(graph):
            work_graph = symmetrize(graph)
            return work_graph, work_graph.num_edges * 12e-9
        return graph, 0.0

    def extra_transfers(self, ctx: FrameContext) -> None:
        # The oriented CSR rides the initial transfer; keep it for
        # init_state so the orientation is built exactly once.
        indptr, indices = rank_oriented_adjacency(ctx.graph)
        self._oriented = (indptr, indices)
        ctx.timeline.add_transfer(
            record_transfer("h2d", indptr.nbytes + indices.nbytes, ctx.device)
        )

    def init_state(self, ctx: FrameContext) -> FrameState:
        n = ctx.graph.num_nodes
        indptr, indices = self._oriented
        first = np.arange(min(self.chunk, n), dtype=np.int64)
        return FrameState(
            np.zeros(n, dtype=np.int64),
            first,
            tri_indptr=indptr,
            tri_indices=indices,
            cursor=int(first.size),
        )

    def default_cap(self, graph: CSRGraph) -> int:
        return -(-graph.num_nodes // self.chunk) + 2

    def cap_message(self, cap: int) -> str:
        return f"triangle counting exceeded {cap} iterations (schedule bug)"

    def relax(self, graph, state, *, ordered=False):
        """Count the triangles pivoted at each node of the chunk and
        schedule the next chunk.  A node's work units (the launch's
        per-node "degree") are its wedge scan plus every merge-path
        intersection it runs."""
        indptr, indices = state.tri_indptr, state.tri_indices
        chunk_nodes = state.frontier
        n = graph.num_nodes
        work_units = np.zeros(chunk_nodes.size, dtype=np.int64)
        triangles = 0
        comparisons = 0
        for i, u in enumerate(chunk_nodes):
            nbrs = indices[indptr[u] : indptr[u + 1]]
            work = int(nbrs.size)
            found = 0
            for v in nbrs:
                closing = indices[indptr[v] : indptr[v + 1]]
                # Merge-path intersection: scan both sorted lists once.
                work += int(nbrs.size + closing.size)
                if closing.size:
                    found += int(
                        np.intersect1d(nbrs, closing, assume_unique=True).size
                    )
            state.values[u] = found
            triangles += found
            work_units[i] = work
            comparisons += work
        next_chunk = np.arange(
            state.cursor, min(state.cursor + self.chunk, n), dtype=np.int64
        )
        state.cursor += int(next_chunk.size)
        count = int(next_chunk.size)
        return (
            StepOutcome(
                next_chunk, count, int(chunk_nodes.size), comparisons, triangles
            ),
            RowRelaxation(chunk_nodes, work_units, triangles, count),
        )


def _cpu_triangles_reference(graph, source, **params):
    from repro.cpu import cpu_triangles

    result = cpu_triangles(graph)
    return result.counts, result


register_algorithm(
    AlgorithmInfo(
        name="triangles",
        summary="exact rank-oriented triangle counting (chunked schedule)",
        make_spec=TrianglesSpec,
        cpu_run=_cpu_triangles_reference,
        param_names=("chunk", "assume_symmetric"),
    )
)
