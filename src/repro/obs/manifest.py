"""Run manifests: one JSON document that explains one traversal.

The paper's claim — the adaptive runtime picks the right variant per
iteration — is only checkable if every run carries its own evidence.
A :class:`RunManifest` is that evidence in one place: the configuration
that ran, a fingerprint of the graph it ran on, every decision the
runtime took, a metrics snapshot, memory peaks and fault events.
``repro run --manifest FILE`` writes one per run, and
``benchmarks/common.write_report`` attaches them to bench results so
every ``results/*.txt`` has a machine-readable sibling.

The document is plain JSON: :meth:`RunManifest.to_dict` /
:meth:`RunManifest.from_dict` round-trip losslessly (a property the
test suite checks), so manifests can be diffed, archived and joined
across runs without this library.

>>> from repro.obs import RunManifest, build_manifest
>>> from repro.core import adaptive_run
>>> from repro.graph.generators import balanced_tree
>>> graph = balanced_tree(2, 6)
>>> result = adaptive_run(graph, "bfs", 0)
>>> manifest = build_manifest(result, graph=graph, algorithm="bfs",
...                           mode="adaptive", source=0)
>>> manifest.result["iterations"] == result.num_iterations
True
>>> RunManifest.from_dict(manifest.to_dict()) == manifest
True
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "build_manifest",
    "build_batch_manifest",
    "build_dynamic_manifest",
    "build_serve_manifest",
    "build_shard_manifest",
    "reached_count",
    "values_sha256",
]

#: bump when the document shape changes incompatibly
MANIFEST_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunManifest:
    """One traversal's full, machine-readable story.

    Every field is already JSON-shaped (dicts, lists, scalars), so
    serialization is trivially lossless.
    """

    #: document format version (:data:`MANIFEST_SCHEMA_VERSION`)
    schema_version: int
    #: "bfs" / "sssp" / "bfs_ordered" / ...
    algorithm: str
    #: "adaptive", a static variant code, or "resilient"
    mode: str
    #: source node of the traversal (-1 for source-free algorithms)
    source: int
    #: graph fingerprint: name, sizes, degree stats, content digest
    graph: dict
    #: simulated device: name, SMs, memory
    device: dict
    #: the :class:`~repro.core.RuntimeConfig` that ran, as a dict
    config: dict
    #: headline result numbers (iterations, simulated seconds, reached)
    result: dict
    #: every decision-maker invocation, in order
    decisions: List[dict] = field(default_factory=list)
    #: every fault event and its recovery action, in order
    faults: List[dict] = field(default_factory=list)
    #: metrics-registry snapshot (empty without an observer)
    metrics: dict = field(default_factory=dict)
    #: device-memory accounting (None without a budget)
    memory: Optional[dict] = None
    #: closed profiler spans (empty without an observer)
    spans: List[dict] = field(default_factory=list)
    #: recovery story of a guarded run (None for unguarded runs)
    reliability: Optional[dict] = None
    #: learned-policy provenance — kind, artifact digest, tree shape
    #: (None for threshold-policy and static runs; documents written
    #: before this field existed load fine, the default covers absence)
    policy: Optional[dict] = None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output (lossless)."""
        doc = dict(doc)
        version = doc.get("schema_version")
        if version != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported manifest schema_version {version!r} "
                f"(this build reads {MANIFEST_SCHEMA_VERSION})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown manifest fields: {sorted(unknown)}")
        return cls(**doc)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    def write(self, path: Union[str, os.PathLike]) -> str:
        """Write the manifest as JSON; returns the path written."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        return str(path)

    @classmethod
    def read(cls, path: Union[str, os.PathLike]) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

def graph_fingerprint(graph: CSRGraph) -> dict:
    """Identify a graph by shape *and* content.

    The digest hashes the CSR arrays themselves (row offsets, column
    indices, weights), so two runs claiming the same fingerprint really
    traversed the same graph — scale, seed and repair differences all
    change the digest.  Each :class:`CSRGraph` hashes its arrays once
    and keeps the digest, so fingerprinting the same graph object again
    is free.
    """
    return {
        "name": graph.name,
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
        "avg_out_degree": float(round(graph.avg_out_degree, 6)),
        "weighted": bool(graph.has_weights),
        "digest": graph._content_digest(),
    }


def values_sha256(values: np.ndarray) -> str:
    """SHA-256 hex digest of an answer array's raw bytes (C-contiguous
    canonical form): the value digest every result, manifest, serve
    response and checkpoint seal compares."""
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def reached_count(values: np.ndarray) -> int:
    """Nodes an answer array marks as reached: finite entries of a
    float answer (SSSP distances, ranks), non-negative entries of an
    integer one (BFS levels, labels, core numbers)."""
    if values.dtype.kind == "f":
        return int(np.isfinite(values).sum())
    return int((values >= 0).sum())


def _device_dict(device) -> dict:
    if device is None:
        return {}
    return {
        "name": device.name,
        "num_sms": int(device.num_sms),
        "global_mem_bytes": int(device.global_mem_bytes),
    }


def _config_dict(config) -> dict:
    if config is None:
        return {}
    out = {}
    for key, value in dataclasses.asdict(config).items():
        if callable(value):  # pragma: no cover - defensive
            continue
        out[key] = value
    return out


def _result_summary(traversal, values) -> dict:
    # Content digest of the answer array: lets two manifests (e.g. a
    # fused and an unfused run) assert value parity without shipping
    # the arrays themselves.
    summary = {"values_sha256": values_sha256(values)}
    if traversal is None:  # CPU-degraded: no simulated timeline
        summary["reached"] = reached_count(values)
        return summary
    timeline = traversal.timeline
    summary.update(
        {
            "iterations": int(traversal.num_iterations),
            "total_seconds": float(traversal.total_seconds),
            "gpu_seconds": float(timeline.gpu_seconds),
            "transfer_seconds": float(timeline.transfer_seconds),
            "host_seconds": float(timeline.host_seconds),
            "kernel_launches": int(timeline.num_launches),
            "reached": int(traversal.reached),
            "total_edges_scanned": int(traversal.total_edges_scanned),
            "variants_used": {
                k: int(v) for k, v in traversal.variants_used().items()
            },
        }
    )
    return summary


def _envelope(
    *, algorithm: str, mode: str, source: int, graph: CSRGraph, device,
    config, observer, result: dict, **sections,
) -> RunManifest:
    """A manifest over the envelope every builder shares: the schema
    version, graph fingerprint, device, config, metrics snapshot and
    spans.  *sections* fill the remaining fields (decisions, faults,
    memory, reliability, policy)."""
    return RunManifest(
        schema_version=MANIFEST_SCHEMA_VERSION,
        algorithm=algorithm,
        mode=mode,
        source=int(source),
        graph=graph_fingerprint(graph),
        device=_device_dict(device),
        config=_config_dict(config),
        result=result,
        metrics=observer.metrics.snapshot() if observer is not None else {},
        spans=observer.spans.to_dicts() if observer is not None else [],
        **sections,
    )


def build_manifest(
    result,
    *,
    graph: CSRGraph,
    algorithm: Optional[str] = None,
    mode: str,
    source: Optional[int] = None,
    device=None,
    config=None,
    observer=None,
) -> RunManifest:
    """Assemble a :class:`RunManifest` from one traversal's result.

    *result* is the :class:`~repro.engine.types.TraversalResult` a
    single-traversal door returns (``run_static``, ``adaptive_run``,
    ``hybrid_run``, ``run_incremental``, ``run_frame``) or a
    :class:`~repro.reliability.ResilientResult`, whose recovery story
    lands in ``reliability``.  Decisions and faults come from the
    result's trace, ``memory`` from its budget report and ``policy``
    from its learned-policy provenance.  *algorithm* and *source*
    default to what the result itself reports, so any registered
    algorithm's result can be manifested without restating them.  Pass
    the run's :class:`~repro.obs.Observer` to embed its metrics
    snapshot and spans.
    """
    guarded = hasattr(result, "attempts")  # a ResilientResult
    traversal = result
    reliability = None
    if guarded:
        # The attempt that answered; a CPU-degraded run has none.
        traversal = None if result.degraded else result.result
        reliability = {
            "stage": result.stage,
            "attempts": int(result.attempts),
            "degraded": bool(result.degraded),
            "oom_rung": int(result.oom_rung),
            "checkpoints_saved": int(result.checkpoints_saved),
            "restores": int(result.restores),
            "replayed_seconds": float(result.replayed_seconds),
        }
    trace = result.trace
    policy = None if guarded else result.policy
    return _envelope(
        algorithm=algorithm if algorithm is not None else result.algorithm,
        mode=mode,
        source=source if source is not None else result.source,
        graph=graph,
        device=device,
        config=config,
        observer=observer,
        result=_result_summary(traversal, result.values),
        decisions=(
            [dataclasses.asdict(d) for d in trace.decisions] if trace else []
        ),
        faults=[dataclasses.asdict(f) for f in trace.faults] if trace else [],
        memory=result.memory.to_dict() if result.memory is not None else None,
        reliability=reliability,
        policy=dict(policy) if policy else None,
    )


def build_batch_manifest(
    result: dict,
    *,
    graph: CSRGraph,
    device=None,
    config=None,
    observer=None,
    decisions: Optional[List[dict]] = None,
) -> RunManifest:
    """Assemble a manifest for one *batched* multi-source run.

    A batch has no single source or algorithm, so the document uses
    ``algorithm="batch"``, ``mode="batch"`` and ``source=-1``; the whole
    batch story — per-query summaries, amortization counters, cache
    stats — rides in the free-form ``result`` dict (the schema stays at
    version :data:`MANIFEST_SCHEMA_VERSION`, so existing readers
    round-trip batch manifests unchanged).  *result* must already be
    JSON-shaped; *decisions* may carry the concatenation of the
    per-query decision traces, each entry tagged with its query index.
    """
    return _envelope(
        algorithm="batch", mode="batch", source=-1, graph=graph,
        device=device, config=config, observer=observer, result=result,
        decisions=list(decisions or []),
    )


def build_serve_manifest(
    result: dict,
    *,
    graph: CSRGraph,
    device=None,
    config=None,
    observer=None,
) -> RunManifest:
    """Assemble a manifest for one *serve-loop* session.

    Like a batch, a serving session spans many queries, so the document
    uses ``algorithm="serve"``, ``mode="serve"`` and ``source=-1``.  The
    SLO story — admission / shed / answered counts, latency percentiles,
    breaker state, scheduler mode — rides in the free-form ``result``
    dict (already JSON-shaped), and the ``serve.*`` / ``breaker.*``
    catalog metrics land in the embedded metrics snapshot when the
    session's :class:`~repro.obs.Observer` is passed.
    """
    return _envelope(
        algorithm="serve", mode="serve", source=-1, graph=graph,
        device=device, config=config, observer=observer, result=result,
    )


def build_dynamic_manifest(
    result: dict,
    *,
    graph: CSRGraph,
    device=None,
    config=None,
    observer=None,
    algorithm: str = "dynamic",
    source: int = -1,
) -> RunManifest:
    """Assemble a manifest for a graph-mutation / incremental run.

    The graph fingerprint is the *post-mutation* graph's; the mutation
    story — per-batch events (counts, digests, compaction pricing) and
    any incremental-recompute summary — rides in the free-form
    ``result`` dict under ``mutation_events``, so existing readers
    round-trip dynamic manifests unchanged.
    """
    return _envelope(
        algorithm=algorithm, mode="dynamic", source=source, graph=graph,
        device=device, config=config, observer=observer, result=result,
    )


def build_shard_manifest(
    result,
    *,
    graph: CSRGraph,
    device=None,
    config=None,
    observer=None,
) -> RunManifest:
    """Assemble a manifest for one *sharded* multi-device run.

    *result* is a :class:`~repro.engine.shard.ShardedResult`.  Unlike a
    batch or serve session, a sharded run *is* one traversal, so the
    document keeps the real ``algorithm`` and ``source`` and uses
    ``mode="sharded"``.  The sharding story — per-shard reports,
    exchange volumes, the value digest, the recovery ladder verdict —
    rides in the free-form ``result`` dict; per-shard decision traces
    (each tagged ``shard_index``) land in ``decisions``; injected fault
    events (tagged ``device_index``) in ``faults``; and the recovery
    summary in ``reliability``.
    """
    return _envelope(
        algorithm=result.algorithm, mode="sharded", source=result.source,
        graph=graph, device=device, config=config, observer=observer,
        result=result.result_dict(),
        decisions=list(result.decisions),
        faults=list(result.faults),
        reliability=result.reliability_dict(),
    )
