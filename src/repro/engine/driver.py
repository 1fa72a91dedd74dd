"""The one host-side iteration core (the paper's Figure 8).

::

    1: Create data structures on CPU and GPU
    2: Initialize working set on CPU
    3: Transfer working set and support data from CPU to GPU
    4: while working set is not empty do
    5:   Invoke CUDA_computation kernel
    6:   Invoke CUDA_workingset_generation kernel
    7: end while

A *row* (:class:`_Row`) is one query's loop state over an
:class:`~repro.engine.spec.AlgorithmSpec` and a
:class:`~repro.engine.types.VariantPolicy`.  This module owns the loop
body once, as plain functions over a row: the row start, the gate
(cap, watchdog, fault hook), the decision point (pre-loop, top of
iteration or after the computation kernel), pricing (policy overhead,
working-set generation, the computation-plus-generation merge, the
4-byte size readback) and bookkeeping (record, ``policy.notify``,
observer metrics, checkpoint offer, frontier advance).

Four schedules iterate rows through it, each deciding which rows
advance together, where a row's relaxation
(:meth:`~repro.engine.spec.AlgorithmSpec.relax`, the same function on
every schedule) runs and where its kernels are priced: :func:`run_frame`
(one row through ``spec.compute``, priced into its timeline, with
resume, refill, fusion plans and memory charging),
:class:`~repro.engine.batch.BatchFrame` (N rows fused per variant),
:func:`~repro.engine.shard.run_sharded` (one row per shard, priced
into device seconds) and :func:`~repro.core.hybrid.hybrid_run` (one
row with a host/device placement step).

A resumed traversal's :class:`~repro.engine.types.TraversalResult`
carries the full iteration history (prior records come from the
checkpoint) but its timeline covers only the work executed by this
attempt — the guarded runner accounts for time across attempts.
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.engine.fusion import FusionStats, LaunchPlan, fuse_tallies, lower
from repro.engine.spec import AlgorithmSpec, FrameState, StepOutcome
from repro.engine.types import (
    HOST_INIT_PER_NODE_S,
    IterationRecord,
    TraversalResult,
    VariantPolicy,
)
from repro.errors import KernelError, NonConvergenceError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.gpusim.kernel import CostModel, KernelTally
from repro.gpusim.memory import traversal_state_bytes
from repro.gpusim.timeline import Timeline
from repro.gpusim.transfer import record_transfer
from repro.kernels.multisource import fused_readback_bytes
from repro.kernels.variants import Variant, WorksetRepr
from repro.kernels.workset import workset_gen_tallies
from repro.obs.context import current_observer

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpusim.allocator import MemoryBudget
    from repro.reliability.checkpoint import CheckpointKeeper, TraversalCheckpoint
    from repro.reliability.watchdog import Watchdog

__all__ = ["FrameContext", "run_frame"]


class FrameContext:
    """What a spec's hooks may touch mid-iteration: the work graph, the
    device/cost model, and kernel pricing against the shared timeline.

    A shard prices with no timeline, into :attr:`seconds` only."""

    def __init__(
        self,
        graph: CSRGraph,
        device: DeviceSpec,
        model: CostModel,
        timeline: Optional[Timeline],
        queue_gen: str,
        source: int,
    ):
        self.graph = graph
        self.device = device
        self.model = model
        self.timeline = timeline
        self.queue_gen = queue_gen
        self.source = source
        #: the run's variant policy (ordered SSSP derives its working-set
        #: structure from the policy's first choice)
        self.policy: Optional[VariantPolicy] = None
        self.iteration = 0
        self.label = ""
        #: simulated seconds accumulated into the current iteration's
        #: record (reset by the schedule at each iteration start)
        self.seconds = 0.0
        #: when set (by the driver, around ``spec.compute`` under a
        #: fusible :class:`~repro.engine.fusion.LaunchPlan`), ``price``
        #: defers ``(tally, label)`` pairs here instead of pricing, so
        #: the computation kernel can merge with the generation kernel
        #: into one fused launch
        self.collect: Optional[List] = None

    def price(self, tally: KernelTally, label: Optional[str] = None) -> None:
        """Price a kernel into the current iteration's record."""
        if self.collect is not None:
            self.collect.append((tally, label or self.label))
            return
        cost = self.model.price(tally)
        if self.timeline is not None:
            self.timeline.add_kernel(self.iteration, tally, cost, label or self.label)
        self.seconds += cost.seconds

    def price_unattributed(self, tally: KernelTally) -> None:
        """Price a kernel outside any iteration record (stage-seeding
        kernels like k-core's filter: on the timeline, but not part of
        an iteration's seconds)."""
        cost = self.model.price(tally)
        self.timeline.add_kernel(self.iteration, tally, cost, self.label)

    def readback(self) -> None:
        _readback(self.timeline, self.device)


# ----------------------------------------------------------------------
# Transfers
# ----------------------------------------------------------------------

def _state_payload(num_nodes: int) -> int:
    """Opening h2d payload of one row's traversal state: the state
    array (4 B/node), update flags (1 B/node), queue capacity
    (4 B/node) and the bitmap (1 bit/node)."""
    return 4 * num_nodes + num_nodes + 4 * num_nodes + num_nodes // 8


def _initial_transfers(
    graph: CSRGraph,
    timeline: Timeline,
    device: DeviceSpec,
    memory: Optional["MemoryBudget"] = None,
    *,
    resident: bool = False,
) -> None:
    """Price the opening host-to-device copies.

    *resident* is a warm-started run: the CSR arrays are already on the
    device (the compaction shipped the delta), so only the traversal
    state crosses PCIe — the graph is still *allocated* against the
    budget (it occupies device memory either way), it just isn't
    re-transferred.
    """
    n = graph.num_nodes
    graph_bytes = graph.device_bytes()
    state_bytes = _state_payload(n)
    if memory is not None:
        # The CSR arrays and traversal state are charged as resident
        # (never-spillable) allocations; the per-iteration working set
        # is charged separately by the loop.  An overflow raises
        # DeviceOOMError — survivable by the guard's OOM ladder, unlike
        # the hard KernelError below.
        memory.allocate(graph_bytes, "graph", label=f"CSR arrays of {graph.name!r}")
        memory.allocate(
            traversal_state_bytes(n), "state", label="traversal state arrays"
        )
    elif graph_bytes + state_bytes > device.global_mem_bytes:
        raise KernelError(
            f"graph {graph.name!r} needs {(graph_bytes + state_bytes) / 2**30:.2f} "
            f"GiB of device memory but {device.name} has "
            f"{device.global_mem_bytes / 2**30:.2f} GiB "
            "(the paper's system keeps the whole CSR resident)"
        )
    timeline.add_transfer(
        record_transfer(
            "h2d", state_bytes if resident else graph_bytes + state_bytes, device
        )
    )
    timeline.add_host_seconds(n * HOST_INIT_PER_NODE_S)


def _readback(timeline: Timeline, device: DeviceSpec, rows: int = 1) -> None:
    """The working-set-size readback (loop condition): one 4-byte size
    per row behind a single PCIe latency."""
    timeline.add_transfer(record_transfer("d2h", fused_readback_bytes(rows), device))


# ----------------------------------------------------------------------
# The row core
# ----------------------------------------------------------------------

class _Row:
    """One query's loop state: the unit every schedule advances."""

    def __init__(self, spec: AlgorithmSpec, policy: Optional[VariantPolicy],
                 *, top: bool = False):
        self.spec = spec
        self.policy = policy
        #: consult the policy at the top of each iteration, not after the
        #: computation kernel (the paper's unordered decision point)
        self.top = top or spec.chooses_at_top
        self.state: Optional[FrameState] = None
        self.cap = 0
        self.records: List[IterationRecord] = []
        self.iteration = 0
        self.variant: Optional[Variant] = None
        #: simulated seconds of this row's records (the watchdog's clock)
        self.elapsed = 0.0

    def start(self, ctx: FrameContext, max_iterations: Optional[int],
              resume_from: Optional["TraversalCheckpoint"] = None) -> "_Row":
        """The row start: initial (resumed or warm-started) state, the
        iteration cap and the pre-loop variant choice."""
        spec = self.spec
        if resume_from is not None:
            if not resume_from.matches(spec.name, ctx.source):
                raise KernelError(
                    f"checkpoint holds a {resume_from.algorithm!r} query from "
                    f"source {resume_from.source}; cannot resume {spec.name!r} "
                    f"from {ctx.source}"
                )
            self.state = spec.resume_state(
                resume_from.values.copy(), resume_from.frontier.copy(), resume_from
            )
            self.records = list(resume_from.records)
            self.iteration = resume_from.next_iteration
        elif spec.warm is not None:
            warm = spec.warm
            self.state = FrameState(warm.values.copy(), warm.frontier.copy())
        else:
            self.state = spec.init_state(ctx)
        self.cap = (
            max_iterations if max_iterations is not None
            else spec.default_cap(ctx.graph)
        )
        if not self.top:
            # The pre-loop choice covers the first iteration only.  At
            # size 0 the loop exits before any kernel launches, so
            # neither the policy nor its priced overhead may run.
            size = spec.first_choose_size(self.state)
            if size is None:
                size = spec.work_remaining(self.state)
            if size:
                self.variant = self.policy.choose(self.iteration, size)
        return self


def _gate(row: _Row, watchdog, fault_hook, elapsed: float) -> None:
    """The row gate: iteration cap, watchdog, fault hook.  It raises;
    a batch turns the raise into an ejection of that row."""
    if row.iteration >= row.cap:
        raise NonConvergenceError(row.spec.cap_message(row.cap))
    if watchdog is not None:
        watchdog.check(row.iteration, elapsed)
    if fault_hook is not None:
        fault_hook.on_iteration(row.iteration, row.state.values, row.state.frontier)


def _choose_top(row: _Row, size: int) -> Variant:
    """The decision point at the top of an iteration, for rows that
    choose there."""
    if row.top:
        row.variant = row.policy.choose(row.iteration, size)
    return row.variant


def _choose_next(row: _Row, next_size: int) -> Variant:
    """The paper's decision point, after the computation kernel: the
    generation kernel then materializes whichever representation the
    next iteration reads.  A drained row keeps its variant."""
    if row.top or not next_size:
        return row.variant
    return row.policy.choose(row.iteration + 1, next_size)


def _overhead(ctx: FrameContext, row: _Row, size: int, label: str) -> None:
    """Price the policy's monitoring kernels for this iteration."""
    for tally in row.policy.overhead_tallies(
        row.iteration, size, ctx.graph.num_nodes, ctx.device
    ):
        ctx.price(tally, label)


def _fuse(stats: FusionStats, comp: KernelTally, gen: KernelTally,
          device: DeviceSpec) -> KernelTally:
    """Merge a computation launch with the single generation launch
    after it into one fused launch, and count the saving.  The
    readback survives: the host still needs the next size."""
    fused = fuse_tallies([comp, gen])
    stats.fused_iterations += 1
    stats.launches_eliminated += 1
    stats.overhead_saved_s += device.kernel_launch_overhead_s
    return fused


def _commit(ctx: FrameContext, row: _Row, size: int, outcome: StepOutcome,
            next_variant: Optional[Variant], seconds: float, *,
            keeper: Optional["CheckpointKeeper"] = None,
            memory: Optional["MemoryBudget"] = None,
            notify: bool = True, span: bool = False) -> None:
    """Bookkeeping: the record, ``policy.notify``, observer metrics
    (*span*: on the row's own simulated clock), the checkpoint offer and
    the frontier advance."""
    record = IterationRecord(
        iteration=row.iteration,
        variant=outcome.label or row.variant.code,
        workset_size=size,
        processed=outcome.processed,
        updated=outcome.updated_count,
        edges_scanned=outcome.edges_scanned,
        improved_relaxations=outcome.improved_relaxations,
        seconds=seconds,
    )
    row.records.append(record)
    if notify:
        row.policy.notify(record)
    observer = current_observer()
    if observer is not None:
        metrics = observer.metrics
        metrics.counter("frame.iterations").inc()
        metrics.counter("frame.processed_nodes").inc(record.processed)
        metrics.counter("frame.edges_scanned").inc(record.edges_scanned)
        metrics.histogram("frame.workset_size").observe(record.workset_size)
        if span:
            # Keeps the profiler's simulated clock aligned with the
            # kernel stream, so spans and kernels share one axis.
            observer.spans.add_span(
                "iteration",
                sim_seconds=record.seconds,
                iteration=record.iteration,
                variant=record.variant,
                workset_size=record.workset_size,
            )
    row.elapsed += seconds
    nbytes = keeper.offer(
        algorithm=row.spec.name,
        source=ctx.source,
        iteration=row.iteration,
        values=row.state.values,
        frontier=outcome.next_frontier,
        variant_code=next_variant.code,
        records=row.records,
        seconds=seconds,
        extra=row.spec.checkpoint_extra(row.state),
    ) if keeper is not None else 0
    if nbytes:
        if observer is not None:
            observer.metrics.counter("frame.checkpoint_bytes").inc(nbytes)
        # The staging buffer lives on the device only for the copy's
        # duration; under spill mode the part that does not fit stages
        # from host memory directly and costs nothing extra (the d2h
        # copy moves every byte off-device regardless).
        with (
            memory.transient(nbytes, "checkpoint", label="checkpoint staging")
            if memory is not None else contextlib.nullcontext()
        ):
            ctx.timeline.add_transfer(record_transfer("d2h", nbytes, ctx.device))
    if outcome.next_frontier is not None:
        row.state.frontier = outcome.next_frontier
    row.variant = next_variant
    row.iteration += 1


def _report_fusion(stats: FusionStats) -> None:
    """Add one run's fusion savings to the observer's counters."""
    observer = current_observer()
    if observer is None:
        return
    metrics = observer.metrics
    metrics.counter("fusion.fused_launches").inc(stats.fused_iterations)
    metrics.counter("fusion.launches_eliminated").inc(stats.launches_eliminated)
    metrics.counter("fusion.overhead_saved_s").inc(stats.overhead_saved_s)
    metrics.counter("fusion.hoisted_h2d_bytes").inc(stats.hoisted_h2d_bytes)
    metrics.counter("fusion.refused_iterations").inc(stats.refused_iterations)


# ----------------------------------------------------------------------
# The single-row schedule
# ----------------------------------------------------------------------

def run_frame(
    graph: CSRGraph,
    source: int,
    policy: VariantPolicy,
    spec: AlgorithmSpec,
    *,
    device: DeviceSpec = TESLA_C2070,
    max_iterations: Optional[int] = None,
    queue_gen: str = "atomic",
    watchdog: Optional["Watchdog"] = None,
    checkpoint_keeper: Optional["CheckpointKeeper"] = None,
    resume_from: Optional["TraversalCheckpoint"] = None,
    fault_hook=None,
    memory: Optional["MemoryBudget"] = None,
    fusion=None,
) -> TraversalResult:
    """Run *spec* from *source* under *policy* on the generic frame.

    *fusion* enables the spec-fusion lowering pass
    (:mod:`repro.engine.fusion`): ``True`` lowers *spec* + *policy*
    here, or pass a pre-lowered :class:`~repro.engine.fusion.LaunchPlan`.
    Fusion merges the computation and workset-generation launches when
    the plan permits, hoists loop-invariant H2D payloads, and records a
    :class:`~repro.engine.fusion.FusionStats` on the result — values
    and decision traces are bit-identical to the unfused run; only the
    priced launch stream changes.

    *queue_gen* selects the queue-generation scheme: ``"atomic"``
    (the paper's baseline), ``"scan"`` (Merrill-style prefix scan) or
    ``"hierarchical"`` (Luo-style shared-memory queues) — Section
    V.C's orthogonal optimizations.

    *memory* attaches a :class:`~repro.gpusim.MemoryBudget`: the CSR
    arrays, traversal state, per-iteration working sets and checkpoint
    staging copies are charged against it, raising
    :class:`~repro.errors.DeviceOOMError` on overflow (or pricing the
    spilled bytes as PCIe traffic in spill mode).

    The result carries the budget's memory report and *policy*'s
    decision trace, thresholds and provenance (each None where there is
    none), so every door's result has one shape.
    """
    return _drive(graph, source, policy, spec, device, max_iterations,
                  queue_gen, watchdog, checkpoint_keeper, resume_from,
                  fault_hook, memory, fusion)


def _drive(graph, source, policy, spec, device, max_iterations, queue_gen,
           watchdog=None, checkpoint_keeper=None, resume_from=None,
           fault_hook=None, memory=None, fusion=None,
           place: Optional[Callable] = None) -> TraversalResult:
    """:func:`run_frame`'s loop.  *place* (hybrid execution) runs before
    the policy: ``place(ctx, row, size)`` returns the outcome of an
    iteration it ran on the host, or None for the device, and
    ``place.on_device`` says whether the answer needs a final d2h."""
    spec.validate(graph, source)
    if not spec.checkpointable and (
        checkpoint_keeper is not None
        or resume_from is not None
        or fault_hook is not None
    ):
        raise KernelError(
            f"{spec.name} does not support checkpoint/resume or fault hooks"
        )
    model = CostModel(device)
    timeline = Timeline()
    work_graph, host_prep_seconds = spec.prepare(graph)
    if spec.warm is not None:
        host_prep_seconds += spec.warm.host_seconds
    _initial_transfers(
        work_graph, timeline, device, memory, resident=spec.warm is not None
    )
    if host_prep_seconds:
        timeline.add_host_seconds(host_prep_seconds)
    ctx = FrameContext(work_graph, device, model, timeline, queue_gen, source)
    ctx.policy = policy
    spec.extra_transfers(ctx)
    plan: Optional[LaunchPlan] = None
    fusion_stats: Optional[FusionStats] = None
    if fusion:
        plan = (
            fusion
            if isinstance(fusion, LaunchPlan)
            else lower(spec, policy, queue_gen=queue_gen)
        )
        fusion_stats = FusionStats(plan=plan)
    fusing = plan is not None and plan.fusible
    hoist_bytes = plan.hoist_h2d_bytes if fusing else 0
    hoisted_iterations = 0
    if hoist_bytes:
        # Invariant hoisting: the per-iteration H2D payload is
        # loop-invariant, so the plan ships it once ahead of the loop
        # instead of before every computation launch.
        timeline.add_transfer(record_transfer("h2d", hoist_bytes, device))
    observer = current_observer()
    if observer is not None:
        # Keep the profiler's simulated clock aligned with the Chrome
        # trace layout, which lays the opening h2d copies before kernels.
        observer.spans.advance_sim(timeline.transfer_seconds)

    row = _Row(spec, policy, top=place is not None).start(
        ctx, max_iterations, resume_from
    )
    state = row.state
    if row.variant is not None:
        ctx.label = row.variant.code

    while True:
        ctx.iteration = row.iteration
        size = spec.work_remaining(state)
        if not size:
            # Multi-phase algorithms re-seed here (k-core's next-k
            # filter); single-phase ones converge.
            refreshed = spec.refill(ctx, state)
            if refreshed is None:
                break
            state.frontier = refreshed
            continue
        _gate(row, watchdog, fault_hook, row.elapsed)
        ctx.seconds = 0.0
        outcome = place(ctx, row, size) if place is not None else None
        if outcome is not None:
            # A host iteration: no policy, generation or readback.
            _commit(ctx, row, size, outcome, row.variant, ctx.seconds,
                    notify=False, span=True)
            continue
        variant = _choose_top(row, size)
        ctx.label = variant.code
        tpb = spec.tpb(variant, work_graph, device)
        if memory is not None:
            # The materialized working set is charged against the budget;
            # in spill mode the overflow lives in host memory, priced as
            # one write-out plus one read-back over PCIe.
            spilled = memory.charge_workset(
                variant.workset, size, work_graph.num_nodes,
                entry_bytes=spec.workset_entry_bytes,
            )
            if spilled:
                timeline.add_transfer(record_transfer("d2h", spilled, device))
                timeline.add_transfer(record_transfer("h2d", spilled, device))
        if spec.iteration_h2d_bytes:
            if hoist_bytes:
                hoisted_iterations += 1
            else:
                timeline.add_transfer(
                    record_transfer("h2d", spec.iteration_h2d_bytes, device)
                )

        if fusing:
            ctx.collect = []
        outcome = spec.compute(ctx, state, variant, tpb)
        deferred, ctx.collect = ctx.collect, None
        if outcome is None:
            # The step itself detected termination (DOBFS's pull sweep
            # with nothing left to visit): no generation, no readback.
            for dtally, dlabel in deferred or ():
                ctx.price(dtally, dlabel)
            break

        next_variant = _choose_next(row, outcome.updated_count)
        label = outcome.label or variant.code
        _overhead(ctx, row, size, label)
        gen_tallies = workset_gen_tallies(
            work_graph.num_nodes,
            outcome.updated_count if outcome.gen_count is None else outcome.gen_count,
            next_variant.workset,
            device,
            scheme=queue_gen,
            entry_bytes=spec.workset_entry_bytes,
        )
        if (
            deferred is not None
            and len(deferred) == 1
            and len(gen_tallies) == 1
            and (plan.fuse_always or next_variant.workset is WorksetRepr.BITMAP)
        ):
            # One computation kernel, one generation kernel, and the
            # plan guarantees the representation: one fused launch.
            ctx.price(_fuse(fusion_stats, deferred[0][0], gen_tallies[0], device),
                      label)
        else:
            if deferred is not None:
                fusion_stats.refused_iterations += 1
                for dtally, dlabel in deferred:
                    ctx.price(dtally, dlabel)
            for tally in gen_tallies:
                ctx.price(tally, label)
        _readback(timeline, device)
        _commit(ctx, row, size, outcome, next_variant, ctx.seconds,
                keeper=checkpoint_keeper, memory=memory, span=True)
        ctx.label = row.variant.code

    if memory is not None:
        memory.release_workset()
    if place is None or place.on_device:
        timeline.add_transfer(record_transfer("d2h", 4 * work_graph.num_nodes, device))
    if fusion_stats is not None:
        if hoist_bytes:
            fusion_stats.hoisted_h2d_bytes = hoist_bytes * max(
                0, hoisted_iterations - 1
            )
        _report_fusion(fusion_stats)
    return TraversalResult(
        algorithm=spec.result_algorithm(policy),
        source=source,
        values=spec.final_values(state),
        iterations=row.records,
        timeline=timeline,
        device=device,
        policy_name=policy.name,
        fusion=fusion_stats,
        trace=policy.trace,
        thresholds=policy.thresholds,
        memory=memory.report() if memory is not None else None,
        policy=policy.policy_info(),
    )
