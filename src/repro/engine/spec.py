"""The ``AlgorithmSpec`` protocol: what an algorithm tells the engine.

The paper's Figure 8 host loop is algorithm-agnostic: create state,
loop while the working set is non-empty, run the computation kernel,
run the working-set generation kernel, read the new size back.  An
:class:`AlgorithmSpec` supplies exactly the algorithm-specific pieces —
initial state, its one relaxation (:meth:`AlgorithmSpec.relax`) and the
launch profile it is priced with (:attr:`AlgorithmSpec.edge_cost`,
:attr:`AlgorithmSpec.weight_streams`), convergence bookkeeping, the
checkpoint payload and a CPU reference — while the engine's row core
(:mod:`repro.engine.driver`) owns everything cross-cutting:
variant policy dispatch, per-iteration readback, watchdog, checkpoints,
resume, fault hooks, memory charging and observer metrics/spans.

Every schedule runs the same relaxation: the single-source frame
through the default :meth:`AlgorithmSpec.compute`, batch rows, shards
and hybrid host sweeps by calling :meth:`AlgorithmSpec.relax` directly.
Every computation launch's shape comes from
:func:`repro.kernels.multisource.launch_shape`.

The spec also carries every per-algorithm fact a run mode's door would
otherwise restate, so the doors read specs and capability flags only:
the policy a spec without variants runs under
(:meth:`AlgorithmSpec.default_policy`), the frame an ordered policy
runs (:meth:`AlgorithmSpec.for_policy`) and the warm start of
incremental recompute (:attr:`AlgorithmSpec.incremental`,
:meth:`AlgorithmSpec.warm_start`).

A new algorithm is one subclass (typically < 50 lines; see
``docs/engine.md``) plus a registry entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import DeviceSpec
from repro.kernels import costs, multisource
from repro.kernels.mapping import ComputationShape, computation_tally
from repro.kernels.multisource import RowRelaxation
from repro.kernels.variants import Ordering

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.driver import FrameContext
    from repro.engine.types import VariantPolicy
    from repro.graph.dynamic import MutationDelta
    from repro.kernels.variants import Variant
    from repro.reliability.checkpoint import TraversalCheckpoint

__all__ = ["AlgorithmSpec", "FrameState", "StepOutcome", "WarmStart", "relaxed"]


class FrameState:
    """Mutable per-run state the engine threads through the loop.

    ``values`` is the algorithm's answer array (what fault injection
    corrupts and checkpoints snapshot); ``frontier`` is the current
    working set's node ids.  Specs attach whatever else they need as
    extra attributes (PageRank's residuals, k-core's degrees, ...).
    """

    def __init__(self, values: np.ndarray, frontier: np.ndarray, **extra):
        self.values = values
        self.frontier = frontier
        for key, val in extra.items():
            setattr(self, key, val)


@dataclass(frozen=True)
class WarmStart:
    """What :meth:`AlgorithmSpec.warm_start` seeds a run with: the
    previous run's values patched for a mutation delta, the frontier of
    vertices the delta could have affected, how many vertices the
    seeding pass reset, and the host seconds that pass took."""

    values: np.ndarray
    frontier: np.ndarray
    affected: int
    host_seconds: float


@dataclass
class StepOutcome:
    """What one computation step tells the driver.

    :meth:`AlgorithmSpec.relax` returns it beside the row's
    :class:`~repro.kernels.multisource.RowRelaxation`; the default
    :meth:`AlgorithmSpec.compute` prices that row as one launch (ordered
    SSSP's findmin and DOBFS's pull kernel price their own), and the
    driver prices the policy-overhead and workset-generation kernels
    afterwards.
    """

    #: the next working set's node ids (None when the spec tracks the
    #: working set internally, e.g. the ordered SSSP pair multiset)
    next_frontier: Optional[np.ndarray]
    #: size of the next working set (drives the policy's next choice
    #: and the generation kernel)
    updated_count: int
    processed: int
    edges_scanned: int
    improved_relaxations: int
    #: record/kernel label override (DOBFS's "push"/"pull"); defaults
    #: to the variant code
    label: Optional[str] = None
    #: element count the generation kernel emits when it differs from
    #: ``updated_count`` (ordered SSSP caps it at ``num_nodes``)
    gen_count: Optional[int] = None


def relaxed(frontier: np.ndarray, result) -> Tuple[StepOutcome, RowRelaxation]:
    """:meth:`AlgorithmSpec.relax`'s answer for a min-combine relaxation
    (BFS, SSSP, CC) from its ``(updated_ids, degrees, improved_count,
    edges_scanned)``: the launch prices one atomic per improving
    relaxation and emits the update vector."""
    updated, degrees, improved, edges = result
    count = int(updated.size)
    return (
        StepOutcome(updated, count, int(frontier.size), int(edges), int(improved)),
        RowRelaxation(frontier, degrees, int(improved), count),
    )


class AlgorithmSpec:
    """Base class for algorithm specifications.

    Class attributes are the registry's capability flags and the
    computation launch's profile; methods are the hooks
    :func:`~repro.engine.driver.run_frame` calls.  Defaults implement
    the common unordered BFS-like shape, so simple algorithms implement
    only :meth:`init_state`, :meth:`relax` and a cap.
    """

    #: registry key; also tags checkpoints and (by default) results
    name: str = "algorithm"
    #: takes a source node (False: whole-graph algorithms use source -1)
    source_based: bool = True
    #: requires edge weights
    weighted: bool = False
    #: has an ordered (priority-driven) frame variant
    ordered_support: bool = False
    #: supports checkpoint/resume and fault hooks
    checkpointable: bool = True
    #: can run under the adaptive policy (unordered working-set shape)
    adaptive_eligible: bool = True
    #: static {mapping} x {workset} variant codes apply
    supports_variants: bool = True
    #: default static variant code
    default_variant: str = "U_T_BM"
    #: bytes per materialized working-set entry (ordered queues hold
    #: (node, key) pairs: 8 B)
    workset_entry_bytes: int = 4
    #: the policy is consulted at the top of each iteration with the
    #: current size (ordered frames) instead of after the computation
    #: kernel with the next size (the paper's unordered decision point)
    chooses_at_top: bool = False
    #: supports the batched multi-source frame
    #: (:func:`repro.engine.batch.run_batch_frame`) and sharding: rows'
    #: :meth:`relax` results are min-combinable and share one fused
    #: multi-source computation launch
    batchable: bool = False
    #: the CPU reference reproduces GPU values bit-identically (floats
    #: accumulated in a different order are only close, e.g. PageRank)
    cpu_exact: bool = True
    #: supports incremental recompute
    #: (:func:`~repro.engine.incremental.run_incremental`): its
    #: :meth:`warm_start` seeds a run from a previous run's values
    incremental: bool = False
    #: the seeded state a warm-started run begins from instead of
    #: :meth:`init_state` (the incremental door sets it).  The graph is
    #: then already resident on the device, so the opening h2d copy
    #: ships only the traversal state (the delta's upload was priced by
    #: the compaction).
    warm: Optional[WarmStart] = None
    #: loop-invariant per-iteration H2D payload (bytes) the host ships
    #: before every computation launch (e.g. a chunk-schedule
    #: descriptor).  The driver prices it each iteration; a fused
    #: :class:`~repro.engine.fusion.LaunchPlan` hoists it out of the
    #: loop and ships it once.  0 = no such payload.
    iteration_h2d_bytes: int = 0
    #: the computation launch's per-edge cost (a :mod:`repro.kernels.costs`
    #: constant: each unit of a row's ``degrees`` costs this much)
    edge_cost: float = costs.C_EDGE
    #: weight-array streams the computation launch reads (1 for SSSP)
    weight_streams: int = 0

    # -- setup ---------------------------------------------------------

    def validate(self, graph: CSRGraph, source: int) -> None:
        """Reject impossible runs before any simulated cost accrues."""
        if self.source_based:
            graph._check_node(source)

    def default_policy(self) -> "VariantPolicy":
        """The policy every run of a spec without variants uses
        (``supports_variants`` False: DOBFS's direction switch)."""
        raise KernelError(
            f"{self.name!r} has no default driver; run one of its variants "
            "or the adaptive runtime"
        )

    def for_policy(self, policy: "VariantPolicy") -> "AlgorithmSpec":
        """The spec that runs under *policy*: this one, unless an
        ordered policy runs another frame (SSSP's GPU Dijkstra)."""
        return self

    def warm_start(
        self,
        graph: CSRGraph,
        previous: np.ndarray,
        delta: "MutationDelta",
        source: int,
    ) -> WarmStart:
        """Seed a run on the mutated *graph* from *previous*, the values
        of a run from *source* on the graph before *delta*.  Specs with
        the :attr:`incremental` flag implement it."""
        raise NotImplementedError  # pragma: no cover

    def prepare(self, graph: CSRGraph):
        """Return ``(work_graph, host_prep_seconds)`` — e.g. CC and
        k-core symmetrize directed inputs on the host first."""
        return graph, 0.0

    def extra_transfers(self, ctx: "FrameContext") -> None:
        """Extra h2d payload riding the initial transfer (DOBFS's
        reverse CSR)."""

    def init_state(self, ctx: "FrameContext") -> FrameState:
        raise NotImplementedError  # pragma: no cover

    def default_cap(self, graph: CSRGraph) -> int:
        raise NotImplementedError  # pragma: no cover

    def cap_message(self, cap: int) -> str:
        return (
            f"{self.name} exceeded its iteration budget of {cap} iterations "
            "(non-convergence)"
        )

    def first_choose_size(self, state: FrameState) -> Optional[int]:
        """Working-set size for the pre-loop variant choice; None means
        gate on the frontier size (BFS-style: no choice when empty)."""
        return None

    # -- per-iteration -------------------------------------------------

    def work_remaining(self, state: FrameState) -> int:
        return int(state.frontier.size)

    def refill(self, ctx: "FrameContext", state: FrameState):
        """Re-seed an empty working set (k-core's next-k filter kernel).
        Return the new frontier array, or None when the run converged.
        The default single-phase behaviour is to stop."""
        return None

    def tpb(self, variant: "Variant", graph: CSRGraph, device: DeviceSpec) -> int:
        return variant.threads_per_block(graph.avg_out_degree, device)

    def relax(
        self, graph: CSRGraph, state: FrameState, *, ordered: bool = False
    ) -> Tuple[StepOutcome, RowRelaxation]:
        """The algorithm's one relaxation: process ``state.frontier``
        on *graph*, mutating *state* exactly as the computation kernel
        does, and return the engine's outcome plus the row the launch
        is priced from (:meth:`launch_shape`).

        Precondition: ``state.frontier`` is strictly ascending (every
        relaxation's update vector is, and so is every seeded working
        set).  *ordered* is ordered BFS's visit-once rule, the only
        thing a relaxation reads from the variant.
        """
        raise NotImplementedError  # pragma: no cover

    def launch_shape(
        self, row: RowRelaxation, num_nodes: int, *, ordered: bool = False
    ) -> ComputationShape:
        """The single-source computation launch ``{name}_comp`` of one
        relaxed row; an ordered variant pays the key-check guard."""
        return multisource.launch_shape(
            [row],
            num_nodes,
            edge_cost=self.edge_cost,
            weight_streams=self.weight_streams,
            name=f"{self.name}_comp",
            guard_cost=costs.C_PAIR_CHECK if ordered else 0.0,
        )

    def compute(
        self, ctx: "FrameContext", state: FrameState, variant: "Variant", tpb: int
    ) -> Optional[StepOutcome]:
        """One computation step: :meth:`relax`, then price the row as one
        launch through *ctx*.  Specs that launch other kernels (ordered
        SSSP's findmin, DOBFS's pull sweep) override it; returning None
        terminates the loop immediately (DOBFS's drained pull sweep)."""
        ordered = variant.ordering is Ordering.ORDERED
        outcome, row = self.relax(ctx.graph, state, ordered=ordered)
        ctx.price(computation_tally(
            self.launch_shape(row, ctx.graph.num_nodes, ordered=ordered),
            variant.mapping, variant.workset, tpb, ctx.device,
        ))
        return outcome

    # -- results & reliability -----------------------------------------

    def result_algorithm(self, policy: "VariantPolicy") -> str:
        return self.name

    def final_values(self, state: FrameState) -> np.ndarray:
        return state.values

    def checkpoint_extra(self, state: FrameState) -> Optional[dict]:
        """Algorithm-private arrays/scalars a checkpoint must carry on
        top of (values, frontier) — PageRank's residuals, k-core's
        degrees.  None when (values, frontier) suffice."""
        return None

    def resume_state(
        self,
        values: np.ndarray,
        frontier: np.ndarray,
        checkpoint: "TraversalCheckpoint",
    ) -> FrameState:
        """Rebuild run state from a restored checkpoint's private
        copies (the inverse of :meth:`checkpoint_extra`)."""
        return FrameState(values, frontier)

    def _checkpoint_scalar(self, checkpoint, key: str):
        extra = checkpoint.extra or {}
        if key not in extra:
            raise KernelError(
                f"checkpoint for {self.name!r} is missing payload field {key!r}"
            )
        value = extra[key]
        return value.copy() if isinstance(value, np.ndarray) else value
