"""Direction-optimizing BFS (push/pull) — a forward-looking extension.

The paper's adaptive runtime switches *implementations* of the same
top-down sweep.  The next idea in this line of work (Beamer et al.,
later Enterprise and Gunrock) switches the sweep's *direction*: when the
frontier is a large fraction of the graph, it is cheaper for every
**unvisited** node to scan its in-neighbors and stop at the first one in
the frontier ("pull" / bottom-up) than for every frontier node to push
to all its out-neighbors.  This module adds that axis on top of the same
substrates, with Beamer's two-threshold heuristic:

- switch push -> pull when the frontier's outgoing edge count exceeds
  ``m / alpha`` (the push sweep would touch more edges than a pull sweep
  is likely to);
- switch pull -> push when the frontier shrinks below ``n / beta``.

Pull sweeps need the reverse adjacency (CSC); like real
direction-optimizing implementations, both CSR and CSC are resident on
the device (the initial transfer pays for both).  The CSC is the
transpose the graph keeps (:meth:`~repro.graph.csr.CSRGraph.reverse`
builds it once per graph), the one a
:class:`~repro.serve.session.GraphSession` already holds and the BFS
relax pulls its wide levels over; an undirected graph's CSR is its own
transpose and ships once.

The pull kernel's cost profile differs structurally from push: every
unvisited node is scanned, but each stops at its *first* frontier
in-neighbor — the tally charges exactly the edges examined before the
hit, which the functional sweep computes precisely.

On the generic engine (:mod:`repro.engine`) the direction switch lives
inside :meth:`DobfsSpec.compute` (it needs the hysteresis state); a push
sweep is BFS's own relaxation and ``bfs_comp`` launch
(:class:`~repro.kernels.frame.BfsSpec`) under the label ``push``, while
a fixed :class:`_DirectionPolicy` satisfies the engine's policy seam —
DOBFS chooses directions, not ``{mapping} x {workset}`` variants, so
``supports_variants`` is False and the spec names that policy as its
default (:meth:`DobfsSpec.default_policy`).  Run it through the default
door, ``run_default(graph, source, "dobfs")``
(:func:`repro.core.runtime.run_default`).  The checkpoint payload
carries the current direction so a resumed traversal keeps the
hysteresis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.engine.driver import FrameContext
from repro.engine.registry import AlgorithmInfo, register_algorithm
from repro.engine.spec import AlgorithmSpec, FrameState, StepOutcome
from repro.engine.types import VariantPolicy
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.graph.properties import _ragged_gather_indices, is_symmetric
from repro.gpusim.device import DeviceSpec
from repro.gpusim.transfer import record_transfer
from repro.kernels import costs
from repro.kernels.computation import UNSET_LEVEL
from repro.kernels.frame import BfsSpec
from repro.kernels.mapping import computation_tally
from repro.kernels.multisource import RowRelaxation, launch_shape
from repro.kernels.variants import Mapping, Ordering, Variant, WorksetRepr

__all__ = ["DirectionConfig", "pull_step", "DobfsSpec"]


@dataclass(frozen=True)
class DirectionConfig:
    """Beamer-style direction-switch thresholds."""

    #: push -> pull when frontier out-edges > m / alpha
    alpha: float = 14.0
    #: pull -> push when frontier size < n / beta
    beta: float = 24.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise KernelError("alpha and beta must be > 0")


def pull_step(
    graph: CSRGraph,
    reverse: CSRGraph,
    frontier_mask: np.ndarray,
    levels: np.ndarray,
    level: int,
    threads_per_block: int,
    device: DeviceSpec,
):
    """One bottom-up sweep: every unvisited node scans its in-neighbors
    and joins the next frontier at the first hit.

    Returns ``(new_frontier_ids, tally, edges_examined)``.
    """
    unvisited = np.flatnonzero(levels == UNSET_LEVEL).astype(np.int64)
    if unvisited.size == 0:
        return np.empty(0, dtype=np.int64), None, 0
    offsets, cols = reverse.row_offsets, reverse.col_indices

    starts = offsets[unvisited]
    ends = offsets[unvisited + 1]
    seg_len = (ends - starts).astype(np.int64)
    idx = _ragged_gather_indices(starts, ends)
    hits = frontier_mask[cols[idx]]

    # Edges examined per node: position of the first hit + 1, or the full
    # in-degree when no in-neighbor is in the frontier (early exit).
    boundaries = np.zeros(idx.size, dtype=np.int64)
    if seg_len.size:
        nz = seg_len > 0
        seg_starts = np.concatenate([[0], np.cumsum(seg_len)[:-1]])
        # within-segment position of each edge
        pos = np.arange(idx.size, dtype=np.int64) - np.repeat(seg_starts[nz], seg_len[nz])
        big = np.iinfo(np.int64).max
        first_hit = np.full(unvisited.size, big, dtype=np.int64)
        if hits.any():
            hit_pos = pos[hits]
            seg_of_hit = np.repeat(np.arange(unvisited.size)[nz], seg_len[nz])[hits]
            np.minimum.at(first_hit, seg_of_hit, hit_pos)
        found = first_hit < big
        examined = np.where(found, first_hit + 1, seg_len)
    else:
        found = np.zeros(0, dtype=bool)
        examined = np.zeros(0, dtype=np.int64)

    new_frontier = unvisited[found]
    levels[new_frontier] = level

    joined = int(new_frontier.size)
    shape = launch_shape(
        [RowRelaxation(unvisited, examined, joined, max(1, joined))],
        graph.num_nodes, edge_cost=costs.C_EDGE, weight_streams=0,
        name="bfs_pull",
    )
    # Pull is thread-mapped over the unvisited set with a bitmap of the
    # frontier (the standard formulation: the frontier is tested by
    # membership, not iterated).
    tally = computation_tally(
        shape, Mapping.THREAD, WorksetRepr.BITMAP, threads_per_block, device
    )
    return new_frontier, tally, int(examined.sum())


_PUSH_VARIANT = Variant(Ordering.UNORDERED, Mapping.THREAD, WorksetRepr.BITMAP)

#: the push half's relaxation and launch profile: BFS's own
_PUSH = BfsSpec()


class _DirectionPolicy(VariantPolicy):
    """DOBFS chooses sweep directions, not paper variants; the engine's
    policy seam gets the push kernel's variant and the run's name."""

    name = "direction-optimizing"

    def choose(self, iteration: int, workset_size: int) -> Variant:
        return _PUSH_VARIANT


class DobfsSpec(AlgorithmSpec):
    """Beamer-style push/pull BFS; ``values`` are the levels."""

    name = "dobfs"
    supports_variants = False
    adaptive_eligible = False
    default_variant = "U_T_BM"

    def __init__(self, config: Optional[DirectionConfig] = None):
        self.config = config or DirectionConfig()
        self._reverse: Optional[CSRGraph] = None

    def default_policy(self) -> VariantPolicy:
        return _DirectionPolicy()

    def extra_transfers(self, ctx: FrameContext) -> None:
        if is_symmetric(ctx.graph):
            # Undirected graph: the CSR already is its own transpose.
            self._reverse = ctx.graph
        else:
            self._reverse = ctx.graph.reverse()
            # The CSC copy also rides the initial transfer.
            ctx.timeline.add_transfer(
                record_transfer("h2d", self._reverse.device_bytes(), ctx.device)
            )

    def init_state(self, ctx: FrameContext) -> FrameState:
        levels = np.full(ctx.graph.num_nodes, UNSET_LEVEL, dtype=np.int64)
        levels[ctx.source] = 0
        return FrameState(
            levels, np.array([ctx.source], dtype=np.int64), direction="push"
        )

    def default_cap(self, graph: CSRGraph) -> int:
        return 4 * graph.num_nodes + 64

    def cap_message(self, cap: int) -> str:
        return f"DO-BFS exceeded {cap} iterations"

    def tpb(self, variant: Variant, graph: CSRGraph, device: DeviceSpec) -> int:
        return 192

    def compute(self, ctx, state, variant, tpb) -> Optional[StepOutcome]:
        graph, config = ctx.graph, self.config
        n, m = graph.num_nodes, graph.num_edges
        frontier = state.frontier
        frontier_edges = int(graph.out_degrees[frontier].sum())
        if state.direction == "push" and frontier_edges > m / config.alpha:
            state.direction = "pull"
        elif state.direction == "pull" and frontier.size < n / config.beta:
            state.direction = "push"

        level = int(state.values[frontier[0]]) + 1
        if state.direction == "pull":
            frontier_mask = np.zeros(n, dtype=bool)
            frontier_mask[frontier] = True
            new_frontier, tally, edges = pull_step(
                graph, self._reverse, frontier_mask, state.values, level,
                tpb, ctx.device,
            )
            if tally is None:
                # Nothing left to visit: terminate with no generation,
                # readback or record, like the bespoke loop did.
                return None
            ctx.price(tally, "pull")
            processed = int((state.values == UNSET_LEVEL).sum()) + new_frontier.size
            improved = int(new_frontier.size)
        else:
            outcome, row = _PUSH.relax(graph, state)
            ctx.price(computation_tally(
                _PUSH.launch_shape(row, n), _PUSH_VARIANT.mapping,
                _PUSH_VARIANT.workset, tpb, ctx.device,
            ), "push")
            new_frontier, edges = outcome.next_frontier, outcome.edges_scanned
            processed = outcome.processed
            improved = outcome.improved_relaxations

        return StepOutcome(
            next_frontier=new_frontier,
            updated_count=int(new_frontier.size),
            processed=processed,
            edges_scanned=edges,
            improved_relaxations=improved,
            label=state.direction,
        )

    def checkpoint_extra(self, state: FrameState) -> dict:
        return {"direction": state.direction}

    def resume_state(self, values, frontier, checkpoint) -> FrameState:
        return FrameState(
            values, frontier,
            direction=self._checkpoint_scalar(checkpoint, "direction"),
        )


def _cpu_dobfs_reference(graph, source, **params):
    from repro.cpu import cpu_bfs

    result = cpu_bfs(graph, source)
    return result.levels, result


register_algorithm(
    AlgorithmInfo(
        name="dobfs",
        summary="direction-optimizing BFS (Beamer push/pull switching)",
        make_spec=DobfsSpec,
        cpu_run=_cpu_dobfs_reference,
        param_names=("config",),
    )
)
