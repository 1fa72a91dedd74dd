"""The metrics registry: named counters, gauges and histograms.

Every layer of the stack reports into one :class:`MetricsRegistry` —
the traversal frame counts iterations and edge scans, the launch
validator counts kernel launches, the cost model accumulates simulated
cycles, the allocator tracks memory high-water marks, the guard counts
faults and recovery rungs.  A registry snapshot is what a
:class:`~repro.obs.RunManifest` embeds, so a run's performance story is
machine-readable next to its result.

Metric names are dotted snake_case paths (``frame.iterations``); the
well-known instrument points are declared in :data:`METRICS_CATALOG`
with their type, unit and reporting module, which is also the source of
the catalog table in ``docs/observability.md``.

>>> reg = MetricsRegistry()
>>> reg.counter("frame.iterations").inc()
>>> reg.gauge("memory.current_bytes").set(512)
>>> reg.histogram("frame.workset_size").observe(42)
>>> reg.snapshot()["frame.iterations"]["value"]
1
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "METRICS_CATALOG",
    "MetricsRegistry",
]

#: dotted snake_case: each segment starts with a letter, lowercase only
_NAME_PATTERN = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one well-known metric: name, kind, unit, source."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    source: str
    description: str


#: the instrument points wired into the stack, one row per metric
#: (docs/observability.md renders this as the metrics catalog)
METRICS_CATALOG: Tuple[MetricSpec, ...] = (
    MetricSpec("frame.iterations", "counter", "iterations",
               "repro.engine.driver",
               "row iterations, of every batch row and shard too"),
    MetricSpec("frame.processed_nodes", "counter", "nodes",
               "repro.engine.driver", "working-set elements processed"),
    MetricSpec("frame.edges_scanned", "counter", "edges",
               "repro.engine.driver", "edges inspected by computation kernels"),
    MetricSpec("frame.workset_size", "histogram", "nodes",
               "repro.engine.driver", "per-iteration working-set size"),
    MetricSpec("frame.checkpoint_bytes", "counter", "bytes",
               "repro.engine.driver", "checkpoint snapshot bytes copied d2h"),
    MetricSpec("runtime.decisions", "counter", "decisions",
               "repro.core.policies", "decision-maker invocations"),
    MetricSpec("runtime.switches", "counter", "switches",
               "repro.core.policies", "mid-traversal variant switches"),
    MetricSpec("runtime.memory_forced", "counter", "decisions",
               "repro.core.policies",
               "decisions overridden by memory pressure or fit checks"),
    MetricSpec("gpusim.kernel_launches", "counter", "launches",
               "repro.gpusim.launch", "validated kernel launch configurations"),
    MetricSpec("gpusim.kernels_priced", "counter", "kernels",
               "repro.gpusim.kernel", "kernel executions priced by the cost model"),
    MetricSpec("gpusim.simulated_cycles", "counter", "cycles",
               "repro.gpusim.kernel", "simulated SM cycles across priced kernels"),
    MetricSpec("memory.current_bytes", "gauge", "bytes",
               "repro.gpusim.allocator", "live device-memory charge"),
    MetricSpec("memory.peak_bytes", "gauge", "bytes",
               "repro.gpusim.allocator", "device-memory high-water mark"),
    MetricSpec("memory.spilled_bytes", "counter", "bytes",
               "repro.gpusim.allocator", "bytes overflowed to host memory"),
    MetricSpec("memory.spill_events", "counter", "events",
               "repro.gpusim.allocator", "allocations that overflowed to host"),
    MetricSpec("memory.oom_events", "counter", "events",
               "repro.gpusim.allocator", "allocations refused (DeviceOOMError)"),
    MetricSpec("guard.attempts", "counter", "attempts",
               "repro.reliability.guard", "guarded execution attempts"),
    MetricSpec("guard.faults", "counter", "faults",
               "repro.reliability.guard", "fault events recorded in the trace"),
    MetricSpec("guard.oom_rung", "gauge", "rung",
               "repro.reliability.guard", "highest OOM-ladder rung reached"),
    MetricSpec("guard.cpu_degradations", "counter", "queries",
               "repro.reliability.guard", "queries answered by the CPU baseline"),
    MetricSpec("guard.query_failures", "counter", "queries",
               "repro.reliability.guard",
               "batch queries isolated after raising a ReproError"),
    MetricSpec("breaker.trips", "counter", "trips",
               "repro.reliability.breaker",
               "circuits tripped open after repeated path failures"),
    MetricSpec("breaker.short_circuits", "counter", "queries",
               "repro.reliability.breaker",
               "requests refused while a circuit was open"),
    MetricSpec("breaker.resets", "counter", "resets",
               "repro.reliability.breaker",
               "circuits closed again after a successful probe"),
    MetricSpec("breaker.open_circuits", "gauge", "circuits",
               "repro.reliability.breaker", "currently open circuits"),
    MetricSpec("batch.queries", "counter", "queries",
               "repro.engine.batch", "queries entering the batched frame"),
    MetricSpec("batch.queries_failed", "counter", "queries",
               "repro.engine.batch",
               "batched queries isolated (validation or non-convergence)"),
    MetricSpec("batch.super_iterations", "counter", "iterations",
               "repro.engine.batch", "batched host-loop passes"),
    MetricSpec("batch.fused_launches", "counter", "launches",
               "repro.engine.batch", "fused multi-query kernel launches priced"),
    MetricSpec("batch.launches_saved", "counter", "launches",
               "repro.engine.batch",
               "kernel launches amortized away by fusing same-variant queries"),
    MetricSpec("batch.readbacks_saved", "counter", "transfers",
               "repro.engine.batch",
               "per-iteration size readbacks amortized by the fused readback"),
    MetricSpec("batch.rows_ejected", "counter", "queries",
               "repro.engine.batch",
               "rows ejected from the fused frame by per-row faults or "
               "admission deadlines"),
    MetricSpec("fusion.fused_launches", "counter", "launches",
               "repro.engine.fusion",
               "computation+generation kernel pairs merged into one launch"),
    MetricSpec("fusion.launches_eliminated", "counter", "launches",
               "repro.engine.fusion",
               "kernel launches eliminated by the spec-fusion pass"),
    MetricSpec("fusion.overhead_saved_s", "counter", "seconds",
               "repro.engine.fusion",
               "simulated launch-overhead seconds the fused plan avoided"),
    MetricSpec("fusion.hoisted_h2d_bytes", "counter", "bytes",
               "repro.engine.fusion",
               "loop-invariant H2D payload bytes hoisted out of the host loop"),
    MetricSpec("fusion.refused_iterations", "counter", "iterations",
               "repro.engine.fusion",
               "iterations a fused plan fell back to separate launches"),
    MetricSpec("serve.admitted", "counter", "queries",
               "repro.serve.admission",
               "queries admitted into the bounded queue"),
    MetricSpec("serve.shed", "counter", "queries",
               "repro.serve.admission",
               "queries shed by backpressure or queue-deadline expiry"),
    MetricSpec("serve.queue_depth", "gauge", "queries",
               "repro.serve.admission",
               "admission-queue depth (high-water mark in 'max')"),
    MetricSpec("serve.answered", "counter", "queries",
               "repro.serve.loop",
               "responses emitted (values and explicit errors)"),
    MetricSpec("serve.deadline_misses", "counter", "queries",
               "repro.serve.loop",
               "queries answered with a deadline-exceeded error"),
    MetricSpec("serve.fallbacks", "counter", "queries",
               "repro.serve.loop",
               "queries answered by the guarded single-source fallback"),
    MetricSpec("serve.latency_wall_s", "histogram", "seconds",
               "repro.serve.loop", "admission-to-answer wall latency"),
    MetricSpec("serve.latency_sim_s", "histogram", "seconds",
               "repro.serve.loop", "admission-to-answer simulated latency"),
    MetricSpec("shard.super_iterations", "counter", "iterations",
               "repro.engine.shard",
               "committed super-iterations of the sharded host loop"),
    MetricSpec("shard.active_shards", "histogram", "shards",
               "repro.engine.shard",
               "shards with a non-empty owned frontier per super-iteration"),
    MetricSpec("shard.exchange_bytes", "counter", "bytes",
               "repro.engine.shard",
               "ghost-update bytes shipped over the interconnect"),
    MetricSpec("shard.exchange_transfers", "counter", "transfers",
               "repro.engine.shard",
               "peer-to-peer ghost-update transfers priced"),
    MetricSpec("shard.stragglers", "counter", "shards",
               "repro.engine.shard",
               "shard rounds flagged slower than STRAGGLER_FACTOR x median"),
    MetricSpec("shard.device_losses", "counter", "devices",
               "repro.engine.shard",
               "devices lost to injected or escalated faults"),
    MetricSpec("shard.restores", "counter", "rollbacks",
               "repro.engine.shard",
               "global rollbacks to the last exchange-consistent checkpoint"),
    MetricSpec("shard.migrations", "counter", "shards",
               "repro.engine.shard",
               "shards rehomed from a lost device onto a survivor"),
    MetricSpec("shard.replayed_super_iterations", "counter", "iterations",
               "repro.engine.shard",
               "super-iterations re-executed after a rollback"),
    MetricSpec("policy.evaluations", "counter", "evaluations",
               "repro.core.learned",
               "learned-policy decisions, one tree evaluation each"),
    MetricSpec("policy.overrides", "counter", "decisions",
               "repro.core.learned",
               "learned-policy picks changed by the memory-pressure override"),
    MetricSpec("policy.leaf_depth", "histogram", "levels",
               "repro.core.learned",
               "tree depth of the leaf each learned decision landed in"),
    MetricSpec("serve.mutation_barriers", "counter", "barriers",
               "repro.serve.loop",
               "super-iteration barriers at which mutation batches applied"),
    MetricSpec("dynamic.mutations_applied", "counter", "batches",
               "repro.graph.dynamic",
               "mutation batches folded into a delta overlay"),
    MetricSpec("dynamic.edges_inserted", "counter", "edges",
               "repro.graph.dynamic", "edges inserted through overlays"),
    MetricSpec("dynamic.edges_deleted", "counter", "edges",
               "repro.graph.dynamic", "edges tombstoned through overlays"),
    MetricSpec("dynamic.nodes_added", "counter", "nodes",
               "repro.graph.dynamic", "nodes added by grow ops"),
    MetricSpec("dynamic.ops_quarantined", "counter", "ops",
               "repro.graph.dynamic",
               "mutation ops dropped by lenient-mode validation"),
    MetricSpec("dynamic.epoch", "gauge", "epoch",
               "repro.graph.dynamic",
               "graph version after the latest mutation batch"),
    MetricSpec("dynamic.compactions", "counter", "compactions",
               "repro.graph.dynamic",
               "delta overlays rebuilt into canonical CSR"),
    MetricSpec("dynamic.compaction_bytes", "counter", "bytes",
               "repro.graph.dynamic",
               "delta bytes shipped to the device by compactions"),
    MetricSpec("dynamic.incremental_runs", "counter", "runs",
               "repro.engine.incremental",
               "warm-started incremental recomputes"),
    MetricSpec("dynamic.affected_nodes", "histogram", "nodes",
               "repro.engine.incremental",
               "vertices invalidated by the seeding pass per run"),
    MetricSpec("dynamic.seed_frontier", "histogram", "nodes",
               "repro.engine.incremental",
               "warm frontier size incremental runs start from"),
)

_CATALOG_BY_NAME: Dict[str, MetricSpec] = {s.name: s for s in METRICS_CATALOG}


class Counter:
    """A monotonically increasing count (events, bytes, iterations)."""

    kind = "counter"

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": self.kind, "unit": self.unit, "value": self.value}


class Gauge:
    """A point-in-time level that also remembers its high-water mark."""

    kind = "gauge"

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self.value = 0
        self.max_value = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "unit": self.unit,
            "value": self.value,
            "max": self.max_value,
        }


class Histogram:
    """A cheap streaming distribution: count, sum, min, max, mean.

    No buckets are kept — the per-iteration series already lives in the
    traversal's :class:`~repro.engine.types.IterationRecord` list, so
    the histogram only answers "how big, typically" questions without
    growing with the run.
    """

    kind = "histogram"

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self.count = 0
        self.sum = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "unit": self.unit,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create access to named metrics, plus snapshotting.

    Catalog metrics get their declared unit automatically; ad-hoc
    metrics are allowed (experiments need scratch counters) as long as
    the name is dotted snake_case and not already registered under a
    different kind.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind: str, unit: Optional[str]):
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {existing.kind}, not a {kind}"
                )
            return existing
        if not _NAME_PATTERN.match(name):
            raise ValueError(
                f"bad metric name {name!r}: expected dotted snake_case "
                "like 'frame.iterations'"
            )
        spec = _CATALOG_BY_NAME.get(name)
        if spec is not None and spec.kind != kind:
            raise ValueError(
                f"metric {name!r} is cataloged as a {spec.kind}, not a {kind}"
            )
        resolved_unit = unit if unit is not None else (spec.unit if spec else "")
        metric = _KINDS[kind](name, resolved_unit)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, unit: Optional[str] = None) -> Counter:
        return self._get(name, "counter", unit)

    def gauge(self, name: str, unit: Optional[str] = None) -> Gauge:
        return self._get(name, "gauge", unit)

    def histogram(self, name: str, unit: Optional[str] = None) -> Histogram:
        return self._get(name, "histogram", unit)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self):
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, dict]:
        """Every registered metric as a plain dict, sorted by name —
        the form a :class:`~repro.obs.RunManifest` embeds."""
        return {name: self._metrics[name].to_dict() for name in self.names()}
