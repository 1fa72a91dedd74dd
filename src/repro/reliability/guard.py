"""Guarded traversal execution: retry, fall back, degrade — but answer.

``resilient_run`` wraps any registered algorithm under the adaptive
runtime (:mod:`repro.core.runtime`) in a recovery ladder:

1. **retry** — a transient failure (injected or genuine launch error)
   re-runs the query at once, resuming from the last checkpoint;
2. **checkpoint restore** — a memory fault invalidates the live state,
   so the retry *must* restore the last known-good snapshot;
3. **variant fallback** — :data:`RETRIES_PER_STAGE` failures without
   forward progress abandon the current implementation (the adaptive
   policy first, then each unordered static variant in turn), the
   reliability counterpart of the paper's performance-motivated variant
   switching;
4. **CPU degradation** — when the simulated GPU cannot finish (ladder
   exhausted, or the watchdog declares non-convergence), the query is
   answered by the serial :mod:`repro.cpu` baseline.  Slow, but correct
   and fault-free.

Orthogonal to the failure ladder, a **device-OOM ladder** answers
:class:`~repro.errors.DeviceOOMError` when a memory budget
(``GuardConfig.mem_budget``) is attached.  Each OOM escalates one rung,
trading performance for footprint while keeping answers bit-identical:

1. **workset spill** — re-run with spill mode on: working sets and
   checkpoint staging that do not fit overflow to host memory, priced
   as extra PCIe traffic;
2. **force bitmap** — additionally pin the working-set representation
   to the bitmap, capping the footprint at ``O(|V|/8)``;
3. **checkpoint relief** — additionally stop taking new checkpoints
   (existing snapshots remain valid for restores);
4. **CPU degradation** — the host always has room.

Because every GPU variant and the CPU baseline compute identical
levels/distances, both ladders preserve bit-identical answers no matter
which rung served the query; only latency changes.  Every fault and
the action that answered it is recorded as a
:class:`~repro.core.telemetry.FaultEvent` in the result's trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.config import RuntimeConfig
from repro.core.runtime import adaptive_run, run_default, run_static
from repro.core.telemetry import DecisionTrace, FaultEvent
from repro.engine.registry import get_algorithm
from repro.errors import (
    DeviceOOMError,
    MemoryFaultError,
    NonConvergenceError,
    ReproError,
    RuntimeConfigError,
)
from repro.graph.csr import CSRGraph
from repro.gpusim.allocator import MemoryBudget, MemoryReport, parse_mem_size
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.kernels.variants import Variant, WorksetRepr, unordered_variants
from repro.obs.context import current_observer
from repro.reliability.checkpoint import CheckpointKeeper
from repro.reliability.faults import FaultInjector, FaultPlan
from repro.reliability.watchdog import Watchdog

__all__ = [
    "RETRIES_PER_STAGE",
    "GuardConfig",
    "ResilientResult",
    "resilient_run",
    "guarded_query",
]


#: consecutive no-progress failures of one stage before falling back to
#: the next implementation
RETRIES_PER_STAGE = 3


@dataclass(frozen=True)
class GuardConfig:
    """Knobs of the guarded runner."""

    #: consecutive no-progress failures tolerated before skipping the
    #: rest of the ladder and degrading to the CPU (None = let the
    #: ladder run its full course)
    max_retries: Optional[int] = None
    #: real wall-clock deadline for the whole query (None = unbounded)
    deadline_s: Optional[float] = None
    #: iteration budget across the whole query, retries included
    max_iterations: Optional[int] = None
    #: checkpoint every N iterations (None = the keeper's cost-aware
    #: policy, within a 2% overhead budget)
    checkpoint_every: Optional[int] = None
    #: device-memory budget for every GPU attempt (bytes, or a
    #: human-readable size like ``"512M"``); ``None`` disables memory
    #: accounting.  A :class:`~repro.errors.DeviceOOMError` escalates
    #: the OOM ladder: spill -> force bitmap -> checkpoint relief -> CPU
    mem_budget: Optional[object] = None

    def __post_init__(self):
        if self.max_retries is not None and self.max_retries < 1:
            raise RuntimeConfigError(
                f"max_retries must be >= 1, got {self.max_retries}"
            )
        if self.mem_budget is not None:
            parse_mem_size(self.mem_budget)  # fail fast on nonsense sizes


@dataclass
class ResilientResult:
    """Outcome of a guarded query: the answer plus its recovery story."""

    algorithm: str
    source: int
    #: levels / distances — bit-identical to a fault-free run
    values: np.ndarray
    #: decision trace of the winning attempt, fault events included
    trace: DecisionTrace
    #: ladder rung that produced the answer ("adaptive", a variant code,
    #: or "cpu")
    stage: str
    #: total execution attempts (1 = no recovery needed)
    attempts: int
    #: True when the CPU baseline answered
    degraded: bool
    #: the winning attempt's full result (a TraversalResult, or the CPU
    #: reference's result object when degraded)
    result: object
    #: simulated seconds of the winning attempt (checkpoint copies
    #: included); the number to compare against an unguarded run
    final_seconds: float
    #: simulated compute re-executed or wasted by failed attempts
    replayed_seconds: float
    checkpoints_saved: int
    restores: int
    faults: List[FaultEvent] = field(default_factory=list)
    #: device-memory accounting of the winning attempt (None without a
    #: budget, or when the CPU answered)
    memory: Optional[MemoryReport] = None
    #: highest OOM-ladder rung reached (0 = memory never overflowed)
    oom_rung: int = 0

    @property
    def total_seconds(self) -> float:
        return self.final_seconds

    @property
    def num_faults(self) -> int:
        return len(self.faults)

    def recovery_actions(self):
        return self.trace.recovery_actions()


def resilient_run(
    graph: CSRGraph,
    algorithm: str = "bfs",
    source: Optional[int] = None,
    *,
    config: Optional[RuntimeConfig] = None,
    device: DeviceSpec = TESLA_C2070,
    guard: Optional[GuardConfig] = None,
    plan: Optional[FaultPlan] = None,
    **params,
) -> ResilientResult:
    """Run any registered *algorithm* with the full recovery ladder.

    The ladder's stages come from the registry's capability flags: an
    adaptive-eligible algorithm starts on the adaptive policy and falls
    back through the unordered static variants; an algorithm without
    variants (DOBFS) runs its default entry point, then degrades
    straight to the CPU.  Source-based algorithms need a valid
    *source*; whole-graph algorithms ignore it.

    Under an installed :class:`~repro.obs.Observer` the guard's metrics
    (attempts, faults, OOM rung, degradations) land in it alongside the
    traversal's own metrics and spans.  Extra keyword arguments
    (*params*) are forwarded to the algorithm (PageRank's
    ``damping``/``tolerance``)."""
    # An invalid source is a bad request, not a transient fault: reject
    # it here instead of burning the whole retry/fallback ladder on a
    # query that can never succeed.
    source = get_algorithm(algorithm).resolve_source(graph, source)
    return _resilient(algorithm, graph, source, config, device, guard, plan, params)


def guarded_query(run, *, label: str = "query"):
    """Run one query's entry point with batch-grade failure isolation.

    The batched serving path (:mod:`repro.serve`) executes many queries
    in one process; one query failing — an invalid request, a
    non-converging traversal, an OOM — must not take its batchmates
    down.  ``guarded_query(run)`` calls *run()* and returns
    ``(result, None)`` on success or ``(None, message)`` when it raised
    a :class:`~repro.errors.ReproError`, reporting the failure into the
    current observer under ``guard.query_failures``.  Non-``ReproError``
    exceptions propagate: those are bugs, not query faults.
    """
    try:
        return run(), None
    except ReproError as exc:
        observer = current_observer()
        if observer is not None:
            observer.metrics.counter("guard.query_failures").inc()
        return None, f"{label}: {exc}"


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------

_RAISING_KINDS = {"launch_failure", "memory_fault"}


def _observe_guard(attempts: int, num_faults: int, oom_rung: int, degraded: bool):
    """Report the finished ladder's story into the current observer."""
    observer = current_observer()
    if observer is None:
        return
    metrics = observer.metrics
    metrics.counter("guard.attempts").inc(attempts)
    metrics.counter("guard.faults").inc(num_faults)
    metrics.gauge("guard.oom_rung").set(oom_rung)
    if degraded:
        metrics.counter("guard.cpu_degradations").inc()

#: the OOM ladder's rungs, in escalation order (rung i -> action[i-1])
_OOM_ACTIONS = ("workset_spill", "force_bitmap", "checkpoint_relief")


def _stages_for(info) -> List[str]:
    """The failure ladder's implementation rungs, per capability flags."""
    stages: List[str] = []
    if info.adaptive_eligible:
        stages.append("adaptive")
    if info.supports_variants:
        stages.extend(v.code for v in unordered_variants())
    if not stages:
        # No variant axis to fall back along (DOBFS): retry the default
        # door, then degrade.
        stages.append("default")
    return stages


def _resilient(
    algorithm: str,
    graph: CSRGraph,
    source: int,
    config: Optional[RuntimeConfig],
    device: DeviceSpec,
    guard: Optional[GuardConfig],
    plan: Optional[FaultPlan],
    params: Optional[dict] = None,
) -> ResilientResult:
    guard = guard or GuardConfig()
    params = params or {}
    info = get_algorithm(algorithm)
    injector = FaultInjector(plan) if plan is not None and not plan.is_empty else None
    # Armed up front: the guard's deadline covers the whole ladder —
    # every retry and fallback attempt shares one clock.
    watchdog = Watchdog(
        max_iterations=guard.max_iterations, deadline_s=guard.deadline_s
    ).arm()
    keeper = CheckpointKeeper(every=guard.checkpoint_every, device=device)
    stages = _stages_for(info)

    events: List[FaultEvent] = []
    attempts = 0
    stage_idx = 0
    stage_failures = 0
    no_progress = 0
    oom_rung = 0
    last_marker = -1

    while True:
        attempts += 1
        stage = stages[stage_idx]
        resume = keeper.restore(algorithm, source) if keeper.latest is not None else None
        # OOM-ladder posture for this attempt: each budget is fresh (the
        # previous attempt's charges died with it), spill mode from rung
        # 1, bitmap pinning from rung 2, checkpoint relief from rung 3.
        memory = None
        if guard.mem_budget is not None:
            memory = MemoryBudget(
                guard.mem_budget, device=device, spill=oom_rung >= 1
            )
        run_config = config
        force_bitmap = oom_rung >= 2
        if force_bitmap:
            run_config = (config or RuntimeConfig()).with_overrides(
                force_workset="bitmap"
            )
        run_keeper = None if oom_rung >= 3 else keeper
        try:
            if injector is not None:
                with injector.installed():
                    outcome = _run_stage(
                        algorithm, stage, graph, source, run_config, device,
                        watchdog, run_keeper, resume, injector, memory,
                        force_bitmap, params,
                    )
            else:
                outcome = _run_stage(
                    algorithm, stage, graph, source, run_config, device,
                    watchdog, run_keeper, resume, None, memory, force_bitmap,
                    params,
                )
        except DeviceOOMError as exc:
            oom_rung += 1
            if oom_rung <= len(_OOM_ACTIONS):
                action = _OOM_ACTIONS[oom_rung - 1]
                detail = f"rung {oom_rung}: {str(exc)[:100]}"
            else:
                action = "cpu_degradation"
                detail = f"OOM ladder exhausted: {str(exc)[:90]}"
            _drain(injector, events, attempts, absorbed_only=True)
            events.append(
                FaultEvent(
                    attempt=attempts,
                    iteration=-1,
                    kind="device_oom",
                    site="allocator",
                    action=action,
                    detail=detail,
                )
            )
            if oom_rung > len(_OOM_ACTIONS):
                return _degrade(
                    algorithm, graph, source, keeper, events, attempts,
                    oom_rung=oom_rung, params=params,
                )
            continue
        except NonConvergenceError as exc:
            _drain(injector, events, attempts, absorbed_only=True)
            events.append(
                FaultEvent(
                    attempt=attempts,
                    iteration=-1,
                    kind="non_convergence",
                    site="watchdog",
                    action="cpu_degradation",
                    detail=str(exc)[:120],
                )
            )
            return _degrade(
                algorithm, graph, source, keeper, events, attempts, params=params
            )
        except ReproError as exc:
            marker = keeper.latest.next_iteration if keeper.latest is not None else -1
            progressed = marker > last_marker
            last_marker = marker
            if progressed:
                stage_failures = 0
                no_progress = 0
            stage_failures += 1
            no_progress += 1

            exhausted = (
                guard.max_retries is not None and no_progress > guard.max_retries
            )
            fall_back = not exhausted and stage_failures >= RETRIES_PER_STAGE
            if fall_back:
                stage_idx += 1
                stage_failures = 0
                if stage_idx >= len(stages):
                    exhausted = True
            if exhausted:
                action = "cpu_degradation"
            elif fall_back:
                action = "variant_fallback"
            elif isinstance(exc, MemoryFaultError) and keeper.latest is not None:
                action = "checkpoint_restore"
            else:
                action = "retry"
            detail = action
            if action == "variant_fallback" and stage_idx < len(stages):
                detail = f"fallback to {stages[stage_idx]}"
            elif action == "checkpoint_restore":
                detail = f"restored iteration {keeper.latest.next_iteration}"
            tagged = _drain(
                injector, events, attempts, last_action=action, last_detail=detail
            )
            if not tagged:
                # The failure was not an injected fault — record it so the
                # trace still explains the path taken.
                events.append(
                    FaultEvent(
                        attempt=attempts,
                        iteration=-1,
                        kind="error",
                        site=type(exc).__name__,
                        action=action,
                        detail=str(exc)[:120],
                    )
                )
            if exhausted:
                return _degrade(
                    algorithm, graph, source, keeper, events, attempts,
                    params=params,
                )
            continue

        # ---------------- success ----------------
        _drain(injector, events, attempts, absorbed_only=True)
        trace = outcome.trace or DecisionTrace()
        for event in events:
            trace.record_fault(event)
        useful = sum(r.seconds for r in outcome.iterations)
        replayed = max(0.0, keeper.work_seconds - useful)
        watchdog.bank_simulated(outcome.total_seconds)
        _observe_guard(attempts, len(trace.faults), oom_rung, degraded=False)
        return ResilientResult(
            algorithm=algorithm,
            source=source,
            values=outcome.values,
            trace=trace,
            stage=stage,
            attempts=attempts,
            degraded=False,
            result=outcome,
            final_seconds=outcome.total_seconds,
            replayed_seconds=replayed,
            checkpoints_saved=keeper.saves,
            restores=keeper.restores,
            faults=list(trace.faults),
            memory=memory.report() if memory is not None else None,
            oom_rung=oom_rung,
        )


def _run_stage(
    algorithm, stage, graph, source, config, device, watchdog, keeper,
    resume, injector, memory=None, force_bitmap=False, params=None,
):
    params = params or {}
    kwargs = dict(
        device=device,
        watchdog=watchdog,
        checkpoint_keeper=keeper,
        resume_from=resume,
        fault_hook=injector,
        memory=memory,
        **params,
    )
    if stage == "adaptive":
        return adaptive_run(graph, algorithm, source, config=config, **kwargs)
    if stage == "default":
        # Variant-less algorithms (DOBFS) run under their spec's own
        # policy; the OOM ladder's bitmap pin does not apply.
        return run_default(graph, source, algorithm, **kwargs)
    variant = Variant.parse(stage)
    if force_bitmap and variant.workset is not WorksetRepr.BITMAP:
        # The OOM ladder's bitmap pin applies to static stages too.
        variant = Variant(variant.ordering, variant.mapping, WorksetRepr.BITMAP)
    return run_static(graph, source, algorithm, variant, **kwargs)


def _drain(
    injector: Optional[FaultInjector],
    events: List[FaultEvent],
    attempt: int,
    *,
    absorbed_only: bool = False,
    last_action: str = "retry",
    last_detail: str = "",
) -> bool:
    """Convert the injector's pending faults into trace events.

    Latency spikes never abort an attempt — they are "absorbed".  The
    fault that raised (always the last pending one) is tagged with the
    recovery action the guard chose.  Returns True when a raising fault
    was tagged (i.e. the failure was injected, not genuine).
    """
    if injector is None:
        return False
    tagged = False
    pending = injector.drain_pending()
    for i, fault in enumerate(pending):
        is_last = i == len(pending) - 1
        if not absorbed_only and is_last and fault.kind in _RAISING_KINDS:
            action, detail = last_action, last_detail or fault.detail
            tagged = True
        else:
            action, detail = "absorbed", fault.detail
        events.append(
            FaultEvent(
                attempt=attempt,
                iteration=fault.iteration,
                kind=fault.kind,
                site=fault.site,
                action=action,
                detail=detail,
            )
        )
    return tagged


def _degrade(
    algorithm, graph, source, keeper, events, attempts, oom_rung: int = 0,
    params=None,
) -> ResilientResult:
    """Last rung: answer from the registered serial CPU baseline."""
    values, cpu = get_algorithm(algorithm).cpu_run(graph, source, **(params or {}))
    trace = DecisionTrace()
    for event in events:
        trace.record_fault(event)
    _observe_guard(attempts, len(trace.faults), oom_rung, degraded=True)
    return ResilientResult(
        algorithm=algorithm,
        source=source,
        values=values,
        trace=trace,
        stage="cpu",
        attempts=attempts,
        degraded=True,
        result=cpu,
        final_seconds=cpu.seconds,
        replayed_seconds=keeper.work_seconds,
        checkpoints_saved=keeper.saves,
        restores=keeper.restores,
        faults=list(trace.faults),
        oom_rung=oom_rung,
    )
