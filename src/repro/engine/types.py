"""Shared datatypes of the iteration engine.

The generic driver (:mod:`repro.engine.driver`), the per-algorithm
specs and the run modes all import them from here, without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelTally
from repro.gpusim.timeline import Timeline
from repro.kernels.variants import Ordering, Variant
from repro.obs.manifest import reached_count

__all__ = [
    "HOST_INIT_PER_NODE_S",
    "IterationRecord",
    "TraversalResult",
    "VariantPolicy",
    "StaticPolicy",
]

#: host-side bookkeeping per traversal node (allocation + init), seconds
HOST_INIT_PER_NODE_S = 1.0e-9


@dataclass(frozen=True)
class IterationRecord:
    """Structure and cost of one ``while``-loop iteration."""

    iteration: int
    variant: str
    workset_size: int
    processed: int
    updated: int
    edges_scanned: int
    improved_relaxations: int
    seconds: float


@dataclass
class TraversalResult:
    """Everything a traversal produced: answers, structure, simulated
    time, and what the policy and the memory budget saw.  Every
    single-traversal door returns one (hybrid and incremental runs a
    subclass that adds its own fields)."""

    algorithm: str
    source: int
    #: BFS levels (int64, -1 unreached), SSSP distances (float64, inf),
    #: CC labels, PageRank ranks, core numbers — the algorithm's answer
    values: np.ndarray
    iterations: List[IterationRecord]
    timeline: Timeline
    device: DeviceSpec
    policy_name: str
    #: :class:`~repro.engine.fusion.FusionStats` when the run executed
    #: under a fused launch plan (``None`` for ordinary runs)
    fusion: Optional[object] = None
    #: the policy's :class:`~repro.core.telemetry.DecisionTrace` and
    #: :class:`~repro.core.decision.Thresholds` (None under a static policy)
    trace: Optional[object] = None
    thresholds: Optional[object] = None
    #: the budget's :class:`~repro.gpusim.allocator.MemoryReport` (None
    #: without a budget)
    memory: Optional[object] = None
    #: learned-policy provenance (kind, artifact digest, tree shape);
    #: None under every other policy
    policy: Optional[Dict] = None

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def gpu_seconds(self) -> float:
        return self.timeline.gpu_seconds

    @property
    def total_seconds(self) -> float:
        return self.timeline.total_seconds

    @property
    def reached(self) -> int:
        return reached_count(self.values)

    @property
    def total_edges_scanned(self) -> int:
        return sum(r.edges_scanned for r in self.iterations)

    def workset_curve(self) -> np.ndarray:
        """Working-set size per iteration (Figure 2's series)."""
        return np.array([r.workset_size for r in self.iterations], dtype=np.int64)

    def variants_used(self) -> Dict[str, int]:
        """Iteration counts per variant code (adaptive-runtime telemetry)."""
        out: Dict[str, int] = {}
        for r in self.iterations:
            out[r.variant] = out.get(r.variant, 0) + 1
        return out

    def nodes_per_second(self) -> float:
        """Processing speed in traversed nodes per simulated second
        (Figure 12's metric)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.reached / self.total_seconds


class VariantPolicy:
    """Chooses the implementation variant for each traversal iteration.

    The frame calls :meth:`choose` for iteration ``i + 1`` right after
    iteration ``i``'s computation kernel, when the next working-set size
    is known but before the generation kernel materializes it — the
    paper's decision point, which is what makes representation switches
    free (the generation kernel simply emits the other representation
    from the shared update vector).
    """

    name = "policy"
    #: the decisions this policy took, and the thresholds it took them
    #: by (set by the adaptive policies; None for the rest)
    trace = None
    thresholds = None

    def choose(self, iteration: int, workset_size: int) -> Variant:  # pragma: no cover
        raise NotImplementedError

    def is_ordered(self) -> bool:
        """Whether this policy selects ordered variants (decides which
        SSSP frame runs).  Adaptive policies are unordered-only
        (Section VI.A), so the default is False."""
        return False

    def notify(self, record: IterationRecord) -> None:
        """Called after each iteration (for monitoring policies)."""

    def overhead_tallies(
        self, iteration: int, workset_size: int, num_nodes: int, device: DeviceSpec
    ) -> List["KernelTally"]:
        """Extra monitoring kernels this policy ran this iteration (the
        graph inspector's working-set profiling); priced into the
        traversal's timeline by the frame."""
        return []

    def policy_info(self) -> Optional[Dict]:
        """Provenance recorded on the result and its manifest (a learned
        policy's artifact digest); None for every other policy."""
        return None


class StaticPolicy(VariantPolicy):
    """Always the same variant — the paper's static implementations."""

    def __init__(self, variant: Variant):
        self.variant = variant
        self.name = variant.code

    def choose(self, iteration: int, workset_size: int) -> Variant:
        return self.variant

    def is_ordered(self) -> bool:
        return self.variant.ordering is Ordering.ORDERED
