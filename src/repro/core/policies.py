"""Variant-selection policies for the traversal frame.

:class:`AdaptivePolicy` is the paper's runtime (Section VI): the
monitored attributes feeding a decision maker, with sampling to bound
monitoring overhead and a decision trace for telemetry.
:func:`make_policy` picks it, or its learned subclass, for one run;
:func:`observed_run` reports a run's decision counts.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, List, Optional

from repro.core.config import RuntimeConfig
from repro.core.decision import DecisionMaker, pressure_override
from repro.core.telemetry import Decision, DecisionTrace
from repro.engine.types import IterationRecord, VariantPolicy
from repro.graph.csr import CSRGraph
from repro.gpusim.allocator import MemoryBudget
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelTally
from repro.gpusim.memory import workset_device_bytes
from repro.gpusim.reduction import reduction_tallies
from repro.kernels.variants import Variant, WorksetRepr
from repro.kernels.workset import workset_gen_tallies
from repro.obs.context import current_observer

__all__ = ["AdaptivePolicy", "make_policy", "observed_run"]


class AdaptivePolicy(VariantPolicy):
    """The adaptive runtime's policy: the decision maker over the
    working-set size and the graph's average outdegree, a static
    attribute read once (Section VI.A).

    The decision is (re-)evaluated on iteration 0 and then every
    ``sampling_interval`` iterations; between samples the current variant
    is kept (Section VI.E's sampling trade-off) unless the memory
    fit-check would swap its representation, which takes a full decision
    there as a sample would.  In precise-monitoring
    mode the working set's own average outdegree replaces the whole-graph
    average, at the cost of one reduction kernel per sample.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[RuntimeConfig] = None,
        *,
        device: DeviceSpec,
        memory: Optional[MemoryBudget] = None,
    ):
        self.config = config or RuntimeConfig()
        self.device = device
        self.memory = memory
        self.thresholds = self.config.resolve_thresholds(device, graph.num_nodes)
        self.trace = DecisionTrace()
        self.name = "adaptive"
        self._num_nodes = graph.num_nodes
        self._current: Optional[Variant] = None
        #: the decision's degree input: the graph's average outdegree,
        #: read once (Section VI.E), or in precise mode the working
        #: set's own, measured at each sample
        self._avg_degree: float = graph.avg_out_degree
        self._pending: List[KernelTally] = []

    @cached_property
    def decision_maker(self) -> DecisionMaker:
        """The Figure-11 lookup, built at the threshold policy's first
        decision (a learned policy walks its tree instead)."""
        return DecisionMaker(
            self.thresholds, use_warp_mapping=self.config.use_warp_mapping
        )

    # ------------------------------------------------------------------
    # VariantPolicy interface
    # ------------------------------------------------------------------

    def choose(self, iteration: int, workset_size: int) -> Variant:
        # Between samples the held variant stays while the fit-check
        # keeps it; one it would swap takes a full decision, as a sample.
        if (
            self._current is not None
            and not self._samples(iteration)
            and self._apply_memory_constraints(self._current, workset_size)
            == self._current
        ):
            return self._current
        pressure = self.memory.pressure if self.memory is not None else 0.0
        unconstrained, variant, region = self._decide(
            iteration, workset_size, pressure
        )
        variant = self._apply_memory_constraints(variant, workset_size)
        forced = variant != unconstrained
        switched = self._current is not None and variant != self._current
        self.trace.record(
            Decision(
                iteration=iteration,
                workset_size=workset_size,
                avg_out_degree=self._avg_degree,
                variant=variant.code,
                region=region,
                switched=switched,
                memory_pressure=pressure,
                forced_by_memory=forced,
            )
        )
        if (
            switched
            and self.config.switch_mode == "rebuild"
            and self._current is not None
            and variant.workset is not self._current.workset
        ):
            # Naive runtime ablation: a representation change costs a full
            # re-materialization pass instead of riding the shared update
            # vector.
            self._pending.extend(
                workset_gen_tallies(
                    self._num_nodes,
                    min(workset_size, self._num_nodes),
                    variant.workset,
                    self.device,
                    name="switch_rebuild",
                )
            )
        self._current = variant
        return variant

    def _samples(self, iteration: int) -> bool:
        """Whether *iteration* re-evaluates the decision (every
        ``sampling_interval``-th, from 0)."""
        return iteration % self.config.sampling_interval == 0

    def _decide(self, iteration: int, workset_size: int, pressure: float):
        """One decision-maker lookup plus the shared pressure override:
        (unconstrained, pressured, region-label).  The learned policy
        overrides this seam — and only this seam — so sampling, tracing,
        the fit-check and the switch-cost ablation stay shared between
        the two runtimes."""
        unconstrained, region = self.decision_maker.decide(
            workset_size, self._avg_degree
        )
        variant, region = pressure_override(
            unconstrained, region, workset_size, self._num_nodes, pressure
        )
        return unconstrained, variant, region

    def _apply_memory_constraints(self, variant: Variant, workset_size: int) -> Variant:
        """Footprint fit-check and configured representation pin.

        A ``force_workset`` pin (the guard's OOM ladder sets ``"bitmap"``)
        wins outright.  Otherwise, if the chosen representation does not
        fit the budget's workset headroom but the alternative does, swap
        to the one that fits — the decision maker optimizes time, the
        budget decides feasibility.
        """
        if self.config.force_workset is not None:
            pinned = {
                "bitmap": WorksetRepr.BITMAP,
                "queue": WorksetRepr.QUEUE,
            }[self.config.force_workset]
            if variant.workset is not pinned:
                variant = Variant(variant.ordering, variant.mapping, pinned)
            return variant
        if self.memory is None:
            return variant
        headroom = self.memory.workset_headroom_bytes()
        chosen = workset_device_bytes(variant.workset, workset_size, self._num_nodes)
        if chosen <= headroom:
            return variant
        alt = (
            WorksetRepr.BITMAP
            if variant.workset is WorksetRepr.QUEUE
            else WorksetRepr.QUEUE
        )
        if workset_device_bytes(alt, workset_size, self._num_nodes) <= headroom:
            return Variant(variant.ordering, variant.mapping, alt)
        return variant

    def notify(self, record: IterationRecord) -> None:
        if not self.config.monitor_workset_degree:
            return
        if not self._samples(record.iteration):
            return
        # Precise mode: the working set's own average outdegree, measured
        # by a reduction over the active elements' degrees.
        if record.processed > 0:
            self._avg_degree = record.edges_scanned / record.processed
        self._pending.extend(
            reduction_tallies(
                max(1, record.workset_size), self.device, name="inspector_degree"
            )
        )

    def overhead_tallies(
        self, iteration: int, workset_size: int, num_nodes: int, device: DeviceSpec
    ) -> List[KernelTally]:
        out, self._pending = self._pending, []
        return out

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    @property
    def num_switches(self) -> int:
        return self.trace.num_switches


def make_policy(
    graph: CSRGraph,
    policy=None,
    config: Optional[RuntimeConfig] = None,
    *,
    device: DeviceSpec,
    memory: Optional[MemoryBudget] = None,
) -> AdaptivePolicy:
    """The adaptive runtime's policy for one run on *graph*: the
    threshold decision maker, or a
    :class:`~repro.core.learned.LearnedPolicy` when *policy* is a
    ``"learned:<policy.json>"`` spec or a loaded artifact."""
    if policy is None:
        return AdaptivePolicy(graph, config, device=device, memory=memory)
    from repro.core.learned import LearnedPolicy, resolve_policy

    return LearnedPolicy(
        graph, resolve_policy(policy), config, device=device, memory=memory
    )


def observed_run(span_name: str, run: Callable, policy: AdaptivePolicy, **span_args):
    """Run *run()* under the current observer's span (if any) and report
    *policy*'s decision counts into its metrics registry
    (``runtime.decisions``, ``runtime.switches``,
    ``runtime.memory_forced``; a learned policy also reports its own
    ``policy.*`` metrics as it decides)."""
    observer = current_observer()
    if observer is None:
        return run()
    with observer.span(span_name, **span_args):
        result = run()
    metrics = observer.metrics
    trace = policy.trace
    metrics.counter("runtime.decisions").inc(trace.num_decisions)
    metrics.counter("runtime.switches").inc(trace.num_switches)
    metrics.counter("runtime.memory_forced").inc(trace.num_memory_forced)
    return result
