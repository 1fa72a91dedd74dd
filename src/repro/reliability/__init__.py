"""Reliability layer: fault injection, guarded execution, checkpoints.

The paper argues the adaptive runtime is "more robust to the
irregularities typical of real world graphs"; this package extends that
robustness from *topology* irregularity to *execution* irregularity —
the transient kernel failures, memory corruptions and latency spikes a
production traversal service actually sees.

- :mod:`repro.reliability.faults` — declarative, seeded fault plans and
  the injector wired into the simulator's launch/kernel paths;
- :mod:`repro.reliability.checkpoint` — iteration-granular snapshots of
  traversal state with a cost-aware (Young/Daly-style) save policy;
- :mod:`repro.reliability.watchdog` — iteration and deadline budgets
  with :class:`~repro.errors.NonConvergenceError`;
- :mod:`repro.reliability.guard` — ``resilient_run``, the guarded run
  mode for every registered algorithm: retry, variant fallback,
  checkpoint restore and CPU degradation, every step recorded in the
  decision trace;
- :mod:`repro.reliability.breaker` — a per-(algorithm, path) circuit
  breaker the serving layer uses to route around paths that keep
  failing instead of re-walking the guard ladder per query.

See ``docs/reliability.md`` for the fault model and guarantees.
"""

from repro.reliability.breaker import CircuitBreaker
from repro.reliability.checkpoint import CheckpointKeeper, TraversalCheckpoint
from repro.reliability.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    load_fault_plan,
)
from repro.reliability.guard import (
    GuardConfig,
    ResilientResult,
    guarded_query,
    resilient_run,
)
from repro.reliability.watchdog import Watchdog

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "load_fault_plan",
    "TraversalCheckpoint",
    "CheckpointKeeper",
    "Watchdog",
    "GuardConfig",
    "ResilientResult",
    "resilient_run",
    "guarded_query",
    "CircuitBreaker",
]
