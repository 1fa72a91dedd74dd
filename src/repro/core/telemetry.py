"""Decision traces: what the adaptive runtime chose, when, and why.

Besides variant decisions, a trace records *reliability events*
(:class:`FaultEvent`): every fault injected or observed during a guarded
execution, together with the recovery action the guard took (retry,
variant fallback, checkpoint restore, CPU degradation).  A trace
therefore explains not only which implementation ran each iteration but
also why an execution path was taken at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["Decision", "DecisionTrace", "FaultEvent", "RECOVERY_ACTIONS"]

#: the guard's recovery ladder, in escalation order; "absorbed" marks
#: faults that perturb timing only and need no recovery (latency
#: spikes).  The three ``device_oom`` rungs (workset spill, forced
#: bitmap representation, checkpoint relief) sit between retry and CPU
#: degradation: each trades performance for footprint while keeping
#: answers bit-identical.
RECOVERY_ACTIONS = (
    "absorbed",
    "retry",
    "variant_fallback",
    "checkpoint_restore",
    "workset_spill",
    "force_bitmap",
    "checkpoint_relief",
    "cpu_degradation",
)


@dataclass(frozen=True)
class Decision:
    """One decision-maker invocation."""

    iteration: int
    workset_size: int
    avg_out_degree: float
    variant: str
    region: str
    switched: bool
    #: device-memory pressure (used/capacity) at decision time; 0.0
    #: when no budget is attached
    memory_pressure: float = 0.0
    #: True when memory pressure or a footprint fit-check overrode the
    #: performance-optimal choice
    forced_by_memory: bool = False


@dataclass(frozen=True)
class FaultEvent:
    """One fault plus the recovery action that answered it."""

    #: guarded-execution attempt (1-based) during which the fault fired
    attempt: int
    #: traversal iteration at injection time (-1 if outside the loop)
    iteration: int
    #: fault kind: "launch_failure", "memory_fault" or "latency_spike"
    kind: str
    #: kernel or site the fault hit (tally/launch name, "frame", ...)
    site: str
    #: recovery action taken (one of :data:`RECOVERY_ACTIONS`)
    action: str
    #: free-form detail (fallback target, restored iteration, ...)
    detail: str = ""


@dataclass
class DecisionTrace:
    """Ordered record of every decision taken during one traversal."""

    decisions: List[Decision] = field(default_factory=list)
    faults: List[FaultEvent] = field(default_factory=list)

    def record(self, decision: Decision) -> None:
        self.decisions.append(decision)

    def record_fault(self, event: FaultEvent) -> None:
        self.faults.append(event)

    @property
    def num_switches(self) -> int:
        return sum(1 for d in self.decisions if d.switched)

    @property
    def num_decisions(self) -> int:
        return len(self.decisions)

    @property
    def num_faults(self) -> int:
        return len(self.faults)

    def variants_chosen(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for d in self.decisions:
            out[d.variant] = out.get(d.variant, 0) + 1
        return out

    def recovery_actions(self) -> Dict[str, int]:
        """Fault counts grouped by the recovery action taken."""
        out: Dict[str, int] = {}
        for f in self.faults:
            out[f.action] = out.get(f.action, 0) + 1
        return out

    def switch_iterations(self) -> List[int]:
        return [d.iteration for d in self.decisions if d.switched]

    @property
    def num_memory_forced(self) -> int:
        """Decisions where memory pressure overrode the optimal variant."""
        return sum(1 for d in self.decisions if d.forced_by_memory)

    @property
    def peak_memory_pressure(self) -> float:
        """Highest device-memory pressure seen at any decision point."""
        return max((d.memory_pressure for d in self.decisions), default=0.0)
