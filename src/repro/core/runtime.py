"""The run modes' entry points (Section VI).

One door per run mode, each working for every registered algorithm
through the :mod:`algorithm registry <repro.engine.registry>`:

- :func:`run_static` runs one static variant;
- :func:`adaptive_run` runs under the inspector + decision-maker policy.

Both build the algorithm's spec (``info.make_spec(**params)``) and
drive it on the one Figure-8 loop (:func:`repro.engine.driver.run_frame`),
so comparisons share an identical code path and a newly registered
algorithm gets both modes for free.  Both return the loop's
:class:`~repro.engine.types.TraversalResult`; under the adaptive policy
it also carries the decision trace and thresholds.  The guarded mode is
:func:`repro.reliability.resilient_run`; hybrid CPU/GPU execution is
:func:`repro.core.hybrid.hybrid_run`.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.config import RuntimeConfig
from repro.core.policies import make_policy
from repro.engine.driver import run_frame
from repro.engine.registry import AlgorithmInfo, get_algorithm
from repro.engine.types import StaticPolicy, TraversalResult, VariantPolicy
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.gpusim.allocator import MemoryBudget
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.kernels.frame import OrderedSsspSpec, SsspSpec
from repro.kernels.variants import Ordering, Variant
from repro.obs.context import current_observer

__all__ = [
    "adaptive_run",
    "run_static",
]


def _observed_traverse(span_name: str, run, policy):
    """Run *run()* under the current observer's span (if any) and report
    *policy*'s decision counts into its metrics registry (a learned
    policy reports its own ``policy.*`` metrics as it decides)."""
    observer = current_observer()
    if observer is None:
        return run()
    with observer.span(span_name):
        result = run()
    metrics = observer.metrics
    trace = policy.trace
    metrics.counter("runtime.decisions").inc(trace.num_decisions)
    metrics.counter("runtime.switches").inc(trace.num_switches)
    metrics.counter("runtime.memory_forced").inc(trace.num_memory_forced)
    return result


def _run_spec(
    info: AlgorithmInfo,
    graph: CSRGraph,
    source: int,
    policy: VariantPolicy,
    params: dict,
    **frame_kwargs,
) -> TraversalResult:
    """Build *info*'s spec from *params* and run it under *policy* on
    the frame.  SSSP under an ordered policy runs the GPU-Dijkstra spec
    (:class:`~repro.kernels.frame.OrderedSsspSpec`); ordered and
    unordered BFS share one spec."""
    if info.make_spec is SsspSpec and policy.is_ordered():
        spec = OrderedSsspSpec(**params)
    else:
        spec = info.make_spec(**params)
    return run_frame(graph, source, policy, spec, **frame_kwargs)


def adaptive_run(
    graph: CSRGraph,
    algorithm: str = "bfs",
    source: Optional[int] = None,
    *,
    config: Optional[RuntimeConfig] = None,
    device: DeviceSpec = TESLA_C2070,
    max_iterations: Optional[int] = None,
    watchdog=None,
    checkpoint_keeper=None,
    resume_from=None,
    fault_hook=None,
    memory: Optional[MemoryBudget] = None,
    policy=None,
    fuse: bool = False,
    **params,
) -> TraversalResult:
    """Run any registered *algorithm* under the adaptive runtime.

    The registry supplies the algorithm's spec; the same inspector +
    decision-maker policy drives every adaptive-eligible algorithm
    (Section I's generalization claim).  Source-based algorithms need a
    valid *source* (a missing one raises
    :class:`~repro.errors.KernelError`); whole-graph algorithms
    (``source_based`` False) ignore it.

    *policy* swaps the threshold decision maker for a fitted one: pass
    a ``"learned:<policy.json>"`` spec or a loaded
    :class:`~repro.core.learned.PolicyArtifact` and the run is driven
    by a :class:`~repro.core.learned.LearnedPolicy` instead (same
    sampling cadence, same memory-pressure overrides); the artifact's
    digest lands in the result's ``policy`` and the run's manifest.

    The reliability keywords (*watchdog*, *checkpoint_keeper*,
    *resume_from*, *fault_hook*) are pass-throughs to the traversal
    frame, used by :mod:`repro.reliability`'s guarded runner.
    *memory* attaches a device-memory budget: the policy folds its
    pressure into variant decisions and the frame charges every
    allocation against it.  Under an installed
    :class:`~repro.obs.Observer` (``with observing(obs):``) every
    instrumented layer reports metrics and spans into it.  Extra
    keyword arguments (*params*) build the algorithm's spec
    (PageRank's ``damping``/``tolerance``, CC's ``assume_symmetric``).
    *fuse* lowers the spec through :mod:`repro.engine.fusion` and runs
    under the fused launch plan — values and decisions are identical;
    only launch pricing changes."""
    info = get_algorithm(algorithm)
    if not info.adaptive_eligible:
        raise KernelError(
            f"{algorithm!r} is not adaptive-eligible (it does not use the "
            "unordered working-set variants the decision maker switches)"
        )
    source = info.resolve_source(graph, source)
    driver = make_policy(graph, policy, config, device=device, memory=memory)
    return _observed_traverse(
        f"{driver.name}_{algorithm}",
        lambda: _run_spec(
            info,
            graph,
            source,
            driver,
            params,
            device=device,
            queue_gen=driver.config.queue_gen,
            max_iterations=max_iterations,
            watchdog=watchdog,
            checkpoint_keeper=checkpoint_keeper,
            resume_from=resume_from,
            fault_hook=fault_hook,
            memory=memory,
            fusion=fuse or None,
        ),
        driver,
    )


def run_static(
    graph: CSRGraph,
    source: Optional[int],
    algorithm: str,
    variant: Union[Variant, str],
    *,
    device: DeviceSpec = TESLA_C2070,
    max_iterations: Optional[int] = None,
    queue_gen: str = "atomic",
    watchdog=None,
    checkpoint_keeper=None,
    resume_from=None,
    fault_hook=None,
    memory: Optional[MemoryBudget] = None,
    fuse: bool = False,
    **params,
) -> TraversalResult:
    """Run one static variant of any registered *algorithm*.

    *variant* is a :class:`~repro.kernels.variants.Variant` or a
    paper-style code like ``"U_B_QU"``; ordered SSSP variants run the
    GPU-Dijkstra frame (findmin by parallel reduction), unordered ones
    the Bellman-Ford frame (Figure 5).  An ordered variant of an
    algorithm without ``ordered_support`` raises
    :class:`~repro.errors.KernelError`.  Whole-graph algorithms ignore
    *source* (pass -1 or None).  *queue_gen* selects the
    queue-generation scheme: ``"atomic"`` (the paper's baseline),
    ``"scan"`` (Merrill-style prefix scan) or ``"hierarchical"``
    (Luo-style shared-memory queues) — Section V.C's orthogonal
    optimizations.  *fuse* runs under a fused launch plan (pinned
    variants fuse every iteration).  The reliability keywords and
    *memory* pass through to the frame, and extra keyword arguments
    (*params*) build the algorithm's spec, as in :func:`adaptive_run`."""
    info = get_algorithm(algorithm)
    if not info.supports_variants:
        raise KernelError(
            f"{algorithm!r} does not run the static {{mapping}} x {{workset}} "
            "variants"
        )
    if isinstance(variant, str):
        variant = Variant.parse(variant)
    if variant.ordering is Ordering.ORDERED and not info.ordered_support:
        raise KernelError(
            f"{algorithm!r} has no ordered variants; {variant.code} is "
            f"ordered (run an unordered one, e.g. {info.default_variant})"
        )
    source = info.resolve_source(graph, source)
    policy = StaticPolicy(variant)

    def run() -> TraversalResult:
        return _run_spec(
            info,
            graph,
            source,
            policy,
            params,
            device=device,
            max_iterations=max_iterations,
            queue_gen=queue_gen,
            watchdog=watchdog,
            checkpoint_keeper=checkpoint_keeper,
            resume_from=resume_from,
            fault_hook=fault_hook,
            memory=memory,
            fusion=fuse or None,
        )

    observer = current_observer()
    if observer is None:
        return run()
    with observer.span(f"static_{algorithm}", variant=variant.code):
        return run()
