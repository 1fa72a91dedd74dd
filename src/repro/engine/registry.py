"""The algorithm registry: one name -> everything runnable about it.

Each registered :class:`AlgorithmInfo` bundles an algorithm's spec class
(:class:`~repro.engine.spec.AlgorithmSpec`, whose class attributes are
the capability flags the run modes check and whose hooks carry every
per-algorithm fact a door needs) and its serial CPU reference.  The run
modes dispatch through here — the static, adaptive and default runners
(:mod:`repro.core.runtime`), the guarded runner
(:func:`repro.reliability.guard.resilient_run`), incremental recompute
(:func:`repro.engine.incremental.run_incremental`), the batched and
sharded engines and the CLI — reading specs and flags, never an
algorithm's name, so adding an algorithm to the registry lights it up
across every layer at once.

Built-in algorithms register themselves when their module is imported;
:func:`get_algorithm` imports lazily so ``import repro`` stays cheap
and the registry never creates import cycles.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.engine.spec import AlgorithmSpec
from repro.errors import KernelError
from repro.graph.csr import CSRGraph

__all__ = [
    "AlgorithmInfo",
    "register_algorithm",
    "get_algorithm",
    "registered_algorithms",
]

#: the capability flags, declared on each spec class
CAPABILITY_FLAGS = (
    "source_based",
    "weighted",
    "ordered_support",
    "checkpointable",
    "adaptive_eligible",
    "supports_variants",
    "cpu_exact",
    "batchable",
    "incremental",
)


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry entry: the algorithm's spec class + its CPU reference.

    The capability flags (:data:`CAPABILITY_FLAGS` plus
    ``default_variant``) are declared once, on the spec class, and read
    through: ``info.weighted`` is ``info.make_spec.weighted``."""

    name: str
    #: one-line description (CLI listing)
    summary: str
    #: the spec class; keyword args are the algorithm's parameters
    #: (PageRank's damping/tolerance, CC's assume_symmetric, ...)
    make_spec: Type[AlgorithmSpec]
    #: serial reference: ``cpu_run(graph, source, **params)`` returning
    #: ``(values, cpu_result)`` — the guard's degradation rung
    cpu_run: Optional[Callable] = None
    #: names of the spec-level parameters ``**params`` may carry
    param_names: Tuple[str, ...] = ()

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: the spec's flags.
        if name in CAPABILITY_FLAGS or name == "default_variant":
            return getattr(self.make_spec, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def capability_flags(self) -> Dict[str, bool]:
        """The spec's capability flags by name (``repro algorithms``
        lists most of them)."""
        return {flag: getattr(self.make_spec, flag) for flag in CAPABILITY_FLAGS}

    def resolve_source(self, graph: CSRGraph, source: Optional[int]) -> int:
        """The frame's source node for a run on *graph*: -1 for
        whole-graph algorithms (*source* is ignored), else *source*
        itself.  A missing or out-of-range source is a bad request and
        fails here with one clear error, before any simulated cost
        accrues or a retry ladder spins up."""
        if not self.source_based:
            return -1
        if source is None:
            raise KernelError(f"{self.name!r} requires a source node")
        graph._check_node(source)
        return source


_REGISTRY: Dict[str, AlgorithmInfo] = {}

#: module that registers each built-in algorithm (imported on demand)
_BUILTIN_MODULES: Dict[str, str] = {
    "bfs": "repro.kernels.frame",
    "sssp": "repro.kernels.frame",
    "pagerank": "repro.kernels.pagerank",
    "cc": "repro.kernels.cc",
    "kcore": "repro.kernels.kcore",
    "dobfs": "repro.kernels.dobfs",
    "triangles": "repro.kernels.triangles",
}


def register_algorithm(info: AlgorithmInfo) -> AlgorithmInfo:
    """Add *info* to the registry (last registration wins, so tests can
    shadow built-ins with instrumented doubles).  Its ``make_spec`` must
    be an :class:`~repro.engine.spec.AlgorithmSpec` subclass: the
    capability flags are read from it."""
    spec = info.make_spec
    if not (isinstance(spec, type) and issubclass(spec, AlgorithmSpec)):
        raise KernelError(
            f"algorithm {info.name!r}: make_spec must be an AlgorithmSpec "
            f"subclass, got {spec!r}"
        )
    _REGISTRY[info.name] = info
    return info


def get_algorithm(name: str) -> AlgorithmInfo:
    """The registry entry for *name*; raises KernelError with the known
    names when it is not registered."""
    if name not in _REGISTRY and name in _BUILTIN_MODULES:
        importlib.import_module(_BUILTIN_MODULES[name])
    if name not in _REGISTRY:
        known = ", ".join(sorted(set(_REGISTRY) | set(_BUILTIN_MODULES)))
        raise KernelError(
            f"unknown algorithm {name!r} (registered algorithms: {known})"
        )
    return _REGISTRY[name]


def registered_algorithms() -> List[AlgorithmInfo]:
    """All registered algorithms, built-ins included, sorted by name."""
    for name in _BUILTIN_MODULES:
        if name not in _REGISTRY:
            importlib.import_module(_BUILTIN_MODULES[name])
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
