"""The run modes' entry points (Section VI).

One door per run mode, each working for every registered algorithm
through the :mod:`algorithm registry <repro.engine.registry>`:

- :func:`run_static` runs one static variant;
- :func:`adaptive_run` runs under the decision-maker policy;
- :func:`run_default` runs an algorithm without variants under the
  policy its spec names (DOBFS's direction switch).

Each builds the algorithm's spec (``info.make_spec(**params)``) and
drives it on the one Figure-8 loop (:func:`repro.engine.driver.run_frame`),
so comparisons share an identical code path and a newly registered
algorithm gets every mode its capability flags admit for free.  The
doors read specs and flags only: the spec says which frame runs it
under an ordered policy (:meth:`~repro.engine.spec.AlgorithmSpec.for_policy`)
and which policy drives it when it has no variants
(:meth:`~repro.engine.spec.AlgorithmSpec.default_policy`).  Each
returns the loop's :class:`~repro.engine.types.TraversalResult`; under
the adaptive policy it also carries the decision trace and thresholds.
The guarded mode is :func:`repro.reliability.resilient_run`; hybrid
CPU/GPU execution is :func:`repro.core.hybrid.hybrid_run`.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.config import RuntimeConfig
from repro.core.policies import make_policy, observed_run
from repro.engine.driver import run_frame
from repro.engine.registry import get_algorithm
from repro.engine.types import StaticPolicy, TraversalResult
from repro.errors import KernelError
from repro.graph.csr import CSRGraph
from repro.gpusim.allocator import MemoryBudget
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.kernels.variants import Ordering, Variant
from repro.obs.context import current_observer

__all__ = [
    "adaptive_run",
    "run_default",
    "run_static",
]


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

    The registry supplies the algorithm's spec; the same decision-maker
    policy drives every adaptive-eligible algorithm
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
    return observed_run(
        f"{driver.name}_{algorithm}",
        lambda: run_frame(
            graph,
            source,
            driver,
            info.make_spec(**params).for_policy(driver),
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
    paper-style code like ``"U_B_QU"``; the spec picks the frame an
    ordered variant runs (SSSP's GPU Dijkstra: findmin by parallel
    reduction; unordered SSSP is the Bellman-Ford frame of Figure 5).
    An ordered variant of an algorithm without ``ordered_support``
    raises :class:`~repro.errors.KernelError`.  Whole-graph algorithms ignore
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
        return run_frame(
            graph,
            source,
            policy,
            info.make_spec(**params).for_policy(policy),
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


def run_default(
    graph: CSRGraph,
    source: Optional[int],
    algorithm: str,
    *,
    device: DeviceSpec = TESLA_C2070,
    max_iterations: Optional[int] = None,
    watchdog=None,
    checkpoint_keeper=None,
    resume_from=None,
    fault_hook=None,
    memory: Optional[MemoryBudget] = None,
    fuse: bool = False,
    **params,
) -> TraversalResult:
    """Run a registered *algorithm* without variants
    (``supports_variants`` False) under the policy its spec names
    (:meth:`~repro.engine.spec.AlgorithmSpec.default_policy`): DOBFS
    under its push/pull direction switch, whose iterations record
    ``"push"``/``"pull"``.  The reliability keywords, *memory* and
    *fuse* are :func:`run_static`'s, and extra keyword arguments
    (*params*) build the spec (DOBFS's ``config``).  It opens no
    observer span of its own.  An algorithm with variants has no
    default policy and raises :class:`~repro.errors.KernelError`."""
    info = get_algorithm(algorithm)
    spec = info.make_spec(**params)
    source = info.resolve_source(graph, source)
    return run_frame(
        graph,
        source,
        spec.default_policy(),
        spec,
        device=device,
        max_iterations=max_iterations,
        watchdog=watchdog,
        checkpoint_keeper=checkpoint_keeper,
        resume_from=resume_from,
        fault_hook=fault_hook,
        memory=memory,
        fusion=fuse or None,
    )
