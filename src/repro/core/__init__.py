"""The paper's contribution: the adaptive runtime (Section VI).

Architecture (Figure 10): a graph API on top, a runtime layer in the
middle (the monitored graph attributes feeding a *decision maker*), and
the BFS/SSSP variant libraries below.  Every algorithm runs through one
entry point per run mode: :func:`run_static`, :func:`adaptive_run`,
:func:`run_default`, :func:`hybrid_run` and (in
:mod:`repro.reliability`) ``resilient_run``.

- :mod:`repro.core.api` — the user-facing :class:`Graph` type;
- :mod:`repro.core.decision` — the Figure-11 decision space (T1/T2/T3),
  one lookup per decision, and the memory-pressure override both
  policies apply to their pick;
- :mod:`repro.core.learned` — the fitted decision-tree alternative
  (offline ``fit_policy`` from manifests, online ``LearnedPolicy``: one
  tree walk per decision in place of the lookup);
- :mod:`repro.core.policies` — the adaptive policy driving the frame;
- :mod:`repro.core.runtime` — ``run_static`` / ``adaptive_run`` /
  ``run_default``;
- :mod:`repro.core.hybrid` — ``hybrid_run``, per-iteration CPU/GPU
  placement;
- :mod:`repro.core.tuning` — the T2 crossover and T3 sweeps;
- :mod:`repro.core.config` / :mod:`repro.core.telemetry` — knobs and the
  analytical T1/T2, traces.
"""

from repro.core.api import Graph
from repro.core.config import RuntimeConfig, derive_t1, derive_t2
from repro.core.decision import DecisionMaker, Thresholds
from repro.core.hybrid import HybridConfig, HybridResult, hybrid_run
from repro.core.learned import (
    FEATURE_NAMES,
    LearnedPolicy,
    PolicyArtifact,
    extract_samples,
    fit_policy,
    load_manifest_corpus,
    resolve_policy,
    variant_costs,
)
from repro.core.oracle import (
    DecisionQuality,
    IterationCosts,
    OracleReport,
    decision_quality,
    per_iteration_oracle,
)
from repro.core.policies import AdaptivePolicy
from repro.core.runtime import adaptive_run, run_default, run_static
from repro.core.telemetry import RECOVERY_ACTIONS, Decision, DecisionTrace, FaultEvent
from repro.core.tuning import measure_t2_crossover, sweep_t3, tune_t3

__all__ = [
    "Graph",
    "RuntimeConfig",
    "DecisionMaker",
    "Thresholds",
    "AdaptivePolicy",
    "FEATURE_NAMES",
    "LearnedPolicy",
    "PolicyArtifact",
    "extract_samples",
    "fit_policy",
    "load_manifest_corpus",
    "resolve_policy",
    "variant_costs",
    "adaptive_run",
    "run_default",
    "run_static",
    "hybrid_run",
    "HybridConfig",
    "HybridResult",
    "per_iteration_oracle",
    "decision_quality",
    "OracleReport",
    "IterationCosts",
    "DecisionQuality",
    "Decision",
    "DecisionTrace",
    "FaultEvent",
    "RECOVERY_ACTIONS",
    "derive_t1",
    "derive_t2",
    "measure_t2_crossover",
    "sweep_t3",
    "tune_t3",
]
