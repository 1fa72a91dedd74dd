"""The batched multi-source schedule: many queries, one Figure-8 loop.

:class:`BatchFrame` executes a batch of ``(spec, source, policy)``
queries over one device-resident graph by stacking the per-query
frontiers into rows of a single host loop.  Each *super-iteration*
(:meth:`BatchFrame.step`) advances every still-active query by exactly
one iteration:

- queries currently running the same variant share one **fused
  computation launch** (:func:`repro.kernels.multisource.fused_computation_tally`),
- queries generating the same next representation share one **fused
  workset-generation launch**, and
- the whole batch shares one **fused size readback** per super-iteration
  instead of one 4-byte PCIe round trip per query — the dominant saving
  on latency-bound traversals, where the paper's per-iteration readback
  is most of the wall clock.

Every row is a :mod:`repro.engine.driver` row — start, gate, decision
point, overhead pricing and bookkeeping are a single-source run's, and
its relaxation is the spec's own
(:meth:`~repro.engine.spec.AlgorithmSpec.relax`) — so a batched query's
values and decision trace are bit-identical to its single-source run.
Only admission, grouping, the fused pricing and ejection are the
batch's own.

**Continuous batching**: rows do not all have to arrive up front.
:meth:`BatchFrame.admit` can be called between super-iterations, so a
serving loop (:mod:`repro.serve.loop`) lets new queries join the fused
frame at the next super-iteration instead of waiting for the running
batch to drain.  :func:`run_batch_frame` is the one-shot wrapper —
admit everything, step until done — and prices exactly what it always
did.

**Fault isolation is per row.**  A fault attributable to one query — a
memory fault injected into its state arrays, a launch failure of a
fused group it rode in, a watchdog deadline armed at admission — *ejects*
that row (``BatchQueryResult.ejected``) while the rest of the slab
keeps running bit-identical results.  Ejected rows are the serving
layer's cue to re-run the query through the guarded single-source
fallback; they are never silently dropped.

Per-query :class:`~repro.engine.types.IterationRecord` entries carry
``seconds=0.0``: fused launches are shared, so simulated time lives on
the batch's single timeline rather than being attributed per query
(each row does accumulate its *share* of the passes it rode in
``BatchQueryResult.sim_seconds``, which is what SLO latency reporting
uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.engine.driver import (
    FrameContext,
    _Row,
    _choose_next,
    _commit,
    _fuse,
    _gate,
    _overhead,
    _readback,
    _report_fusion,
    _state_payload,
)
from repro.engine.fusion import FusionStats
from repro.engine.spec import AlgorithmSpec
from repro.engine.types import HOST_INIT_PER_NODE_S, IterationRecord, VariantPolicy
from repro.errors import KernelError, NonConvergenceError, ReproError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.gpusim.kernel import CostModel
from repro.gpusim.timeline import Timeline
from repro.gpusim.transfer import record_transfer
from repro.kernels.multisource import (
    fused_computation_tally,
    fused_workset_gen_tallies,
)
from repro.obs.context import current_observer

__all__ = [
    "QueryPlan",
    "BatchQueryResult",
    "BatchFrameResult",
    "BatchFrame",
    "run_batch_frame",
]


@dataclass(frozen=True)
class QueryPlan:
    """One query of a batch: the algorithm spec, its source node, and a
    private variant policy (policies are stateful — never share one
    across queries)."""

    spec: AlgorithmSpec
    source: int
    policy: VariantPolicy


@dataclass
class BatchQueryResult:
    """One query's outcome inside a batch."""

    index: int
    algorithm: str
    source: int
    policy_name: str
    #: the algorithm's answer array; None when the query failed
    values: Optional[np.ndarray]
    iterations: List[IterationRecord]
    #: why the query failed (validation, non-convergence, or the fault
    #: that ejected it); None = ok
    error: Optional[str] = None
    #: the policy's decision trace when it keeps one (AdaptivePolicy)
    trace: Optional[object] = None
    #: True when a per-row fault/deadline ejected this row mid-flight;
    #: the serving layer routes ejected queries to the single-source
    #: fallback instead of answering the error directly
    ejected: bool = False
    #: what ejected the row: "fault" (retryable via fallback) or
    #: "deadline" (the admission-armed watchdog expired); None otherwise
    eject_kind: Optional[str] = None
    #: the row's share of the simulated seconds of every super-iteration
    #: it was active in (SLO latency accounting; the batch's authoritative
    #: total stays on the shared timeline)
    sim_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)


@dataclass
class BatchFrameResult:
    """Everything one batched run produced."""

    queries: List[BatchQueryResult]
    timeline: Timeline
    device: DeviceSpec
    #: host-loop passes (== the longest surviving query's iterations)
    super_iterations: int
    #: fused kernel launches actually priced
    fused_launches: int
    #: launches a sequential run would have made minus the fused ones
    launches_saved: int
    #: per-iteration readbacks avoided by the fused size readback
    readbacks_saved: int
    #: rows ejected by per-row faults or admission deadlines
    rows_ejected: int = 0
    #: super-iterations whose computation+generation launches merged
    #: into one fused launch (spec-fusion pass; 0 when fusion is off)
    fused_supersteps: int = 0
    #: eliminated ``kernel_launch_overhead_s`` charges, in seconds
    fusion_overhead_saved_s: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.timeline.total_seconds

    @property
    def ok_count(self) -> int:
        return sum(1 for q in self.queries if q.ok)


class _BatchRow(_Row):
    """A row of the batch: the row core's loop state plus admission
    and ejection."""

    def __init__(self, index: int, plan: QueryPlan, watchdog=None):
        super().__init__(plan.spec, plan.policy)
        self.index = index
        self.source = plan.source
        self.watchdog = watchdog
        self.error: Optional[str] = None
        self.ejected = False
        self.eject_kind: Optional[str] = None
        self.sim_seconds = 0.0
        self.resident = False  # state block charged against device memory

    def result(self) -> BatchQueryResult:
        values = None
        if self.error is None and self.state is not None:
            values = self.spec.final_values(self.state)
        return BatchQueryResult(
            index=self.index,
            algorithm=self.spec.name,
            source=self.source,
            policy_name=self.policy.name,
            values=values,
            iterations=self.records,
            error=self.error,
            trace=self.policy.trace,
            ejected=self.ejected,
            eject_kind=self.eject_kind,
            sim_seconds=self.sim_seconds,
        )


class BatchFrame:
    """A running batched multi-source frame that rows can join and leave.

    The one-shot path is :func:`run_batch_frame`; a serving loop holds a
    ``BatchFrame`` open instead, calling :meth:`admit` between
    :meth:`step` calls so new queries join at the next super-iteration
    (continuous batching), and :meth:`take_finished` after each step to
    collect rows that completed or were ejected.

    *fault_hook* is the same per-iteration seam the single-source driver
    exposes (``on_iteration(iteration, values, frontier)``); here it is
    called once per active row per super-iteration, and a
    :class:`~repro.errors.ReproError` it raises ejects only that row.
    The caller owns installing any gpusim-side hook
    (``FaultInjector.installed()``) around :meth:`step`.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        device: DeviceSpec = TESLA_C2070,
        max_iterations: Optional[int] = None,
        queue_gen: str = "atomic",
        fault_hook=None,
        fusion: bool = False,
    ):
        self.graph = graph
        self.device = device
        self.model = CostModel(device)
        self.timeline = Timeline()
        self.max_iterations = max_iterations
        self.queue_gen = queue_gen
        self.fault_hook = fault_hook
        #: spec-fusion: merge the super-iteration's computation launch
        #: with its generation launch when the pass is uniform (one
        #: comp group, pinned policies, single-kernel generation)
        self.fusion = bool(fusion)
        self._fusion_stats = FusionStats(plan=None)
        self.rows: List[_BatchRow] = []
        self.super_iterations = 0
        self.fused_launches = 0
        self.launches_saved = 0
        self.readbacks_saved = 0
        self.rows_ejected = 0
        self._n = graph.num_nodes
        #: per-row device footprint: values + membership + frontier + bitmap
        self._state_bytes = _state_payload(graph.num_nodes)
        #: prices every launch of a pass into the batch's timeline (its
        #: ``source`` and ``policy`` point at the row being started)
        self._ctx = FrameContext(
            graph, device, self.model, self.timeline, queue_gen, -1
        )
        self._graph_resident = False
        self._resident_rows = 0
        #: rows that finished ok but whose value readback is not priced yet
        self._unpriced: List[_BatchRow] = []
        #: rows finished (ok, failed or ejected) not yet handed to the caller
        self._finished: List[_BatchRow] = []

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        graph_bytes = self.graph.device_bytes() if self._graph_resident else 0
        return graph_bytes + self._resident_rows * self._state_bytes

    def admit(
        self,
        plans: Sequence[QueryPlan],
        *,
        watchdogs: Optional[Sequence] = None,
        isolate_capacity: bool = False,
    ) -> List[_BatchRow]:
        """Add *plans* as new rows, joining at the next super-iteration.

        Non-batchable specs raise :class:`~repro.errors.KernelError` —
        that is a dispatch bug, not a query fault.  Per-query problems
        (bad source) mark the row failed without raising.  When the new
        rows' state blocks do not fit device memory the whole call
        raises, unless *isolate_capacity* is set — then overflowing rows
        are individually marked failed (the serving layer routes them to
        the fallback) and the rest are admitted.

        *watchdogs* (parallel to *plans*) attaches per-row deadline
        clocks; arm them at admission so queue wait counts.
        """
        for plan in plans:
            if not plan.spec.batchable:
                raise KernelError(
                    f"{plan.spec.name} does not support batched multi-source "
                    "execution (route it through the single-source fallback)"
                )
        new_rows: List[_BatchRow] = []
        for offset, plan in enumerate(plans):
            watchdog = watchdogs[offset] if watchdogs is not None else None
            row = _BatchRow(len(self.rows), plan, watchdog=watchdog)
            self.rows.append(row)
            new_rows.append(row)
            try:
                row.spec.validate(self.graph, row.source)
            except ReproError as exc:
                row.error = str(exc)
                self._finished.append(row)
        live = [r for r in new_rows if r.error is None]

        # One h2d for the admission wave: the graph (first wave only)
        # plus every new live row's state block, behind one PCIe latency.
        graph_bytes = 0 if self._graph_resident else self.graph.device_bytes()
        capacity = self.device.global_mem_bytes
        admitted: List[_BatchRow] = []
        for row in live:
            needed = graph_bytes + self.resident_bytes + (
                (len(admitted) + 1) * self._state_bytes
            )
            if needed > capacity:
                if not isolate_capacity:
                    raise KernelError(
                        f"batch of {len(live)} queries on {self.graph.name!r} "
                        f"needs {needed / 2**30:.2f} GiB of device memory but "
                        f"{self.device.name} has {capacity / 2**30:.2f} GiB "
                        "(shrink the batch)"
                    )
                row.error = (
                    f"admission refused: row state would exceed "
                    f"{self.device.name}'s device memory"
                )
                self._finished.append(row)
                continue
            admitted.append(row)
        if admitted:
            total_bytes = graph_bytes + len(admitted) * self._state_bytes
            self.timeline.add_transfer(
                record_transfer("h2d", total_bytes, self.device)
            )
            self.timeline.add_host_seconds(
                len(admitted) * self._n * HOST_INIT_PER_NODE_S
            )
            self._graph_resident = True
            self._resident_rows += len(admitted)
            for row in admitted:
                row.resident = True

        ctx = self._ctx
        for row in admitted:
            ctx.source, ctx.policy = row.source, row.policy
            row.start(ctx, self.max_iterations)
        return new_rows

    # ------------------------------------------------------------------
    # Row retirement
    # ------------------------------------------------------------------

    def _retire(self, row: _BatchRow) -> None:
        if row.resident:
            row.resident = False
            self._resident_rows -= 1
        self._finished.append(row)

    def _eject(self, row: _BatchRow, reason: str, kind: str) -> None:
        """Remove one faulting/expired row; the slab keeps running."""
        row.ejected = True
        row.eject_kind = kind
        row.error = reason
        self.rows_ejected += 1
        observer = current_observer()
        if observer is not None:
            observer.metrics.counter("batch.rows_ejected").inc()
        self._retire(row)

    def take_finished(self) -> List[BatchQueryResult]:
        """Results of rows that completed, failed or were ejected since
        the last call (continuous-serving interface).  Prices the fused
        value readback for the ok rows taken."""
        self._price_value_readbacks()
        out, self._finished = self._finished, []
        return [row.result() for row in out]

    def _price_value_readbacks(self) -> None:
        if self._unpriced:
            self.timeline.add_transfer(record_transfer(
                "d2h", len(self._unpriced) * 4 * self._n, self.device
            ))
        self._unpriced = []

    # ------------------------------------------------------------------
    # The super-iteration
    # ------------------------------------------------------------------

    @property
    def active_rows(self) -> List[_BatchRow]:
        return [
            r for r in self.rows
            if r.error is None and r.state is not None
            and r.spec.work_remaining(r.state)
        ]

    def step(self) -> bool:
        """Advance every active row by one iteration (one fused pass).

        Returns False — without stepping — when no row has work left.
        """
        active = self.active_rows
        if not active:
            # Rows that drained on a previous pass retire here (the
            # one-shot wrapper retires them in bulk at the end).
            return False

        pass_start = self.timeline.total_seconds
        ctx = self._ctx
        ctx.iteration = self.super_iterations

        survivors = []
        for row in active:
            try:
                _gate(row, row.watchdog, self.fault_hook, row.sim_seconds)
            except ReproError as exc:
                if row.iteration >= row.cap:
                    row.error = str(exc)
                    self._retire(row)
                else:
                    expired = isinstance(exc, NonConvergenceError)
                    self._eject(row, str(exc), "deadline" if expired else "fault")
                continue
            survivors.append(row)
        if not survivors:
            return False

        # --- fused computation: group rows by (algorithm, variant, tpb)
        groups: dict = {}
        for row in survivors:
            tpb = row.spec.tpb(row.variant, self.graph, self.device)
            groups.setdefault((row.spec.name, row.variant.code, tpb), []).append(row)

        # Spec-fusion precondition: one uniform computation group of
        # pinned (specialized) rows and a single-kernel generation
        # scheme — then the pass's generation launch merges into the
        # computation launch below.  Pricing of the held tally is
        # merely deferred; fault injection still fires at tally
        # construction inside the group loop.
        defer_fusion = (
            self.fusion
            and len(groups) == 1
            and self.queue_gen != "scan"
            and all(getattr(row.policy, "variant", None) is not None
                    for row in survivors)
        )
        held = None
        relaxed: dict = {}
        for (alg, code, tpb), members in groups.items():
            healthy: dict = {}
            relaxations = []
            for row in members:
                try:
                    outcome, relaxation = row.spec.relax(self.graph, row.state)
                except ReproError as exc:
                    self._eject(row, str(exc), kind="fault")
                    continue
                healthy[row] = outcome
                relaxations.append(relaxation)
            if not healthy:
                continue
            spec = members[0].spec
            try:
                tally = fused_computation_tally(
                    relaxations, members[0].variant, tpb, self._n, self.device,
                    edge_cost=spec.edge_cost, weight_streams=spec.weight_streams,
                    name=f"batch_{alg}_comp",
                )
            except ReproError as exc:
                # A launch failure hits the whole fused launch: every
                # rider is ejected (their relaxation already mutated
                # state, so only a from-scratch fallback rerun is
                # bit-safe); other groups keep running.
                for row in healthy:
                    self._eject(row, f"fused launch failed: {exc}", kind="fault")
                continue
            relaxed.update(healthy)
            if defer_fusion:
                held = (tally, code, list(healthy))
                continue
            ctx.price(tally, f"batch:{code}")
            self.fused_launches += 1
            self.launches_saved += len(healthy) - 1

        # --- the row core's decision point and bookkeeping, per row
        gen_groups: dict = {}
        for row in survivors:
            outcome = relaxed.get(row)
            if outcome is None:
                continue
            next_variant = _choose_next(row, outcome.updated_count)
            _overhead(ctx, row, outcome.processed, f"batch:{row.variant.code}")
            counts, members = gen_groups.setdefault(next_variant.workset, ([], []))
            counts.append(outcome.updated_count)
            members.append(row)
            _commit(ctx, row, outcome.processed, outcome, next_variant, 0.0)

        # --- fused workset generation: one launch per emitted
        # representation, covering every row headed there (rows that just
        # drained still sweep — discovering emptiness is the kernel's job,
        # exactly as in the single-source frame)
        for representation, (counts, members) in gen_groups.items():
            # Mixed-spec groups share one stride; every batchable spec
            # emits 4-byte ids today, but honor the declared width.
            entry_bytes = max(row.spec.workset_entry_bytes for row in members)
            try:
                gen_tallies = fused_workset_gen_tallies(
                    self._n, counts, representation, self.device,
                    scheme=self.queue_gen, entry_bytes=entry_bytes,
                )
                if held is not None and len(gen_groups) == 1 and len(gen_tallies) == 1:
                    comp, code, riders = held
                    held = None
                    ctx.price(
                        _fuse(self._fusion_stats, comp, gen_tallies[0], self.device),
                        f"batch:{code}",
                    )
                    self.fused_launches += 1
                    # The merged launch replaces one per surviving comp
                    # rider, one per gen rider, and the gen launch itself.
                    self.launches_saved += (len(riders) - 1) + (len(counts) - 1) + 1
                    continue
                for tally in gen_tallies:
                    ctx.price(tally, "batch:gen")
            except ReproError as exc:
                # A merged launch fails as a unit: its comp riders fall
                # with the gen riders.
                riders = held[2] if held is not None else []
                held = None
                for row in riders:
                    self._eject(row, f"fused launch failed: {exc}", kind="fault")
                for row in members:
                    if row.error is None:
                        self._eject(
                            row, f"fused generation launch failed: {exc}",
                            kind="fault",
                        )
                continue
            self.fused_launches += 1
            self.launches_saved += len(counts) - 1

        if held is not None:
            # Fusion armed but no generation launch to merge with (every
            # rider ejected mid-pass): price the held computation as-is.
            tally, code, riders = held
            ctx.price(tally, f"batch:{code}")
            self.fused_launches += 1
            self.launches_saved += len(riders) - 1
            self._fusion_stats.refused_iterations += 1

        # --- one fused readback for the whole batch: every surviving
        # row's 4-byte working-set size behind a single PCIe latency
        survivors = [r for r in survivors if r.error is None and r in relaxed]
        if survivors:
            _readback(self.timeline, self.device, len(survivors))
            self.readbacks_saved += len(survivors) - 1
        self.super_iterations += 1

        # Attribute this pass's simulated time to every row that rode it
        # (shared slab: each rider experiences the whole pass latency).
        pass_seconds = self.timeline.total_seconds - pass_start
        for row in survivors:
            row.sim_seconds += pass_seconds

        # Rows that just drained are complete: queue their value
        # readback and hand them to the caller.
        for row in survivors:
            if not row.spec.work_remaining(row.state):
                self._unpriced.append(row)
                self._retire(row)
        return True

    # ------------------------------------------------------------------

    def finish(self) -> BatchFrameResult:
        """Run to completion and assemble the batch result."""
        while self.step():
            pass
        self._price_value_readbacks()
        self._finished = []

        observer = current_observer()
        if observer is not None:
            metrics = observer.metrics
            metrics.counter("batch.queries").inc(len(self.rows))
            metrics.counter("batch.queries_failed").inc(
                sum(1 for r in self.rows if r.error is not None)
            )
            metrics.counter("batch.super_iterations").inc(self.super_iterations)
            metrics.counter("batch.fused_launches").inc(self.fused_launches)
            metrics.counter("batch.launches_saved").inc(self.launches_saved)
            metrics.counter("batch.readbacks_saved").inc(self.readbacks_saved)
            if self.fusion:
                _report_fusion(self._fusion_stats)
            observer.spans.add_span(
                "batch_frame",
                sim_seconds=self.timeline.total_seconds,
                queries=len(self.rows),
                super_iterations=self.super_iterations,
            )

        return BatchFrameResult(
            queries=[r.result() for r in self.rows],
            timeline=self.timeline,
            device=self.device,
            super_iterations=self.super_iterations,
            fused_launches=self.fused_launches,
            launches_saved=self.launches_saved,
            readbacks_saved=self.readbacks_saved,
            rows_ejected=self.rows_ejected,
            fused_supersteps=self._fusion_stats.fused_iterations,
            fusion_overhead_saved_s=self._fusion_stats.overhead_saved_s,
        )


def run_batch_frame(
    graph: CSRGraph,
    plans: Sequence[QueryPlan],
    *,
    device: DeviceSpec = TESLA_C2070,
    max_iterations: Optional[int] = None,
    queue_gen: str = "atomic",
    fault_hook=None,
    watchdogs: Optional[Sequence] = None,
    fusion: bool = False,
) -> BatchFrameResult:
    """Run every query of *plans* on the batched multi-source frame.

    Every spec must be :attr:`~repro.engine.spec.AlgorithmSpec.batchable`
    (callers route non-batchable algorithms through the single-source
    fallback instead — that is a dispatch decision, not a per-query
    fault, so it raises).  Mixed-algorithm batches are fine: only
    same-variant same-algorithm rows fuse into one launch.

    This is the one-shot form of :class:`BatchFrame` — all rows admitted
    up front, stepped until drained — and prices the same transfers and
    launches the pre-continuous driver did.
    """
    if not plans:
        raise KernelError("run_batch_frame needs at least one query")
    frame = BatchFrame(
        graph,
        device=device,
        max_iterations=max_iterations,
        queue_gen=queue_gen,
        fault_hook=fault_hook,
        fusion=fusion,
    )
    frame.admit(plans, watchdogs=watchdogs)
    return frame.finish()
