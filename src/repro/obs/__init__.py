"""repro.obs — the unified observability layer.

One subsystem answers "why was this run fast or slow?" across the whole
stack:

- :class:`MetricsRegistry` — named counters, gauges and histograms that
  the traversal frame, adaptive runtime, launch validator, cost model,
  allocator and reliability guard all report into
  (:data:`METRICS_CATALOG` lists every wired instrument point);
- :class:`SpanProfiler` — zero-dependency nestable spans on a dual
  wall-clock + simulated-time axis;
- :class:`RunManifest` — one JSON document per traversal: config, graph
  fingerprint, decisions, metrics snapshot, memory peaks, fault events
  (``repro run --manifest`` on the CLI writes one, and benches attach
  them to their reports);
- :func:`export_combined_trace` — kernels, decisions, faults and spans
  merged onto one Perfetto timeline.

Observability is off by default and costs one ``is None`` test per
instrument point when off.  Turn it on by installing an
:class:`Observer` around the runs it should see::

    from repro.obs import Observer, observing

    obs = Observer()
    with observing(obs):
        result = adaptive_run(graph, "bfs", 0)
    print(obs.metrics.snapshot()["frame.iterations"])

See ``docs/observability.md`` for the metrics catalog, the manifest
schema and a Perfetto walkthrough.
"""

from repro.obs.context import current_observer, observing
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    build_batch_manifest,
    build_manifest,
    build_dynamic_manifest,
    build_serve_manifest,
    build_shard_manifest,
    graph_fingerprint,
    values_sha256,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    METRICS_CATALOG,
    MetricSpec,
    MetricsRegistry,
)
from repro.obs.observer import Observer
from repro.obs.spans import SpanProfiler, SpanRecord
from repro.obs.trace import combined_trace_events, export_combined_trace

__all__ = [
    "Observer",
    "current_observer",
    "observing",
    "MetricsRegistry",
    "MetricSpec",
    "METRICS_CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanProfiler",
    "SpanRecord",
    "RunManifest",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "build_batch_manifest",
    "build_dynamic_manifest",
    "build_serve_manifest",
    "build_shard_manifest",
    "graph_fingerprint",
    "values_sha256",
    "combined_trace_events",
    "export_combined_trace",
]
