"""The batch runner: many ``(algorithm, source, mode)`` queries, one graph.

:class:`BatchRunner` takes a :class:`~repro.serve.session.GraphSession`
and a list of :class:`BatchQuery` requests and answers all of them:

- queries whose algorithm supports the batched multi-source frame
  (the registry's ``batchable`` capability flag) are stacked into one
  :func:`~repro.engine.batch.run_batch_frame` call — one host loop, one
  fused readback per super-iteration, fused same-variant launches;
- everything else (ordered variants, non-batchable algorithms) falls
  back to its ordinary single-source entry point, each run wrapped in
  :func:`~repro.reliability.guard.guarded_query` so one faulting query
  cannot take the batch down.

Each query gets its *own* variant policy and decision trace, and batched
answers are bit-identical to single-source runs (the engine fuses only
pricing, never the functional update) — :class:`QueryResult` carries a
SHA-256 of the value array so parity is checkable from the manifest
alone.

Queries arrive programmatically or as JSONL
(:func:`load_queries_jsonl`): one object per line, e.g.
``{"algorithm": "bfs", "source": 17, "mode": "adaptive"}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.policies import AdaptivePolicy
from repro.core.runtime import adaptive_run, run_static
from repro.engine.batch import QueryPlan, run_batch_frame
from repro.engine.registry import get_algorithm
from repro.engine.types import StaticPolicy
from repro.errors import ReproError, RuntimeConfigError
from repro.kernels.variants import Ordering, Variant
from repro.obs.manifest import RunManifest, build_batch_manifest, values_sha256
from repro.reliability.guard import guarded_query
from repro.serve.session import GraphSession

__all__ = [
    "BatchQuery",
    "QueryResult",
    "BatchResult",
    "BatchRunner",
    "load_queries_jsonl",
]

_QUERY_FIELDS = {"algorithm", "source", "mode", "priority", "deadline_s"}


@dataclass(frozen=True)
class BatchQuery:
    """One request: which algorithm, from which source, in which mode.

    *mode* is ``"adaptive"`` or a static variant code (``"U_T_BM"``,
    ``"O_B_QU"``, ...).  *priority* and *deadline_s* only matter to the
    serving loop (:mod:`repro.serve.loop`): higher priority wins under
    backpressure, and the deadline clock starts at admission.
    """

    algorithm: str = "bfs"
    source: int = 0
    mode: str = "adaptive"
    priority: int = 0
    deadline_s: Optional[float] = None

    @classmethod
    def from_dict(cls, doc: dict) -> "BatchQuery":
        unknown = set(doc) - _QUERY_FIELDS
        if unknown:
            raise RuntimeConfigError(
                f"unknown batch-query fields: {sorted(unknown)} "
                f"(known: {sorted(_QUERY_FIELDS)})"
            )
        if "source" not in doc:
            raise RuntimeConfigError("batch query needs a 'source' field")
        if not isinstance(doc["source"], int) or isinstance(doc["source"], bool):
            raise RuntimeConfigError(
                f"batch-query source must be an integer, got {doc['source']!r}"
            )
        priority = doc.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise RuntimeConfigError(
                f"batch-query priority must be an integer, got {priority!r}"
            )
        deadline_s = doc.get("deadline_s")
        if deadline_s is not None:
            if isinstance(deadline_s, bool) or not isinstance(
                deadline_s, (int, float)
            ):
                raise RuntimeConfigError(
                    f"batch-query deadline_s must be a number, "
                    f"got {deadline_s!r}"
                )
            if deadline_s <= 0:
                raise RuntimeConfigError(
                    f"batch-query deadline_s must be > 0, got {deadline_s}"
                )
            deadline_s = float(deadline_s)
        return cls(
            algorithm=str(doc.get("algorithm", "bfs")),
            source=doc["source"],
            mode=str(doc.get("mode", "adaptive")),
            priority=priority,
            deadline_s=deadline_s,
        )

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "source": self.source,
            "mode": self.mode,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
        }


def load_queries_jsonl(path) -> List[BatchQuery]:
    """Parse a JSONL query file: one :class:`BatchQuery` object per
    non-empty line.  Malformed lines raise :class:`RuntimeConfigError`
    naming the line number — a bad query *file* is a caller error, not a
    per-query fault."""
    queries: List[BatchQuery] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RuntimeConfigError(
                    f"{path}:{lineno}: invalid JSON in query file: {exc}"
                ) from exc
            if not isinstance(doc, dict):
                raise RuntimeConfigError(
                    f"{path}:{lineno}: each query line must be a JSON object"
                )
            try:
                queries.append(BatchQuery.from_dict(doc))
            except RuntimeConfigError as exc:
                raise RuntimeConfigError(f"{path}:{lineno}: {exc}") from exc
    if not queries:
        raise RuntimeConfigError(f"{path}: query file holds no queries")
    return queries


@dataclass
class QueryResult:
    """One answered (or isolated) query."""

    index: int
    query: BatchQuery
    #: True when the query rode the fused multi-source frame
    batched: bool
    #: the algorithm's answer array; None when the query failed
    values: Optional[np.ndarray]
    #: SHA-256 over the raw value bytes (None when failed)
    values_sha256: Optional[str]
    iterations: int
    #: simulated seconds — per-run for fallback queries, 0.0 for batched
    #: ones (their time lives on the batch's shared timeline)
    seconds: float
    error: Optional[str] = None
    #: the query's own decision trace (adaptive mode)
    trace: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def summary(self) -> dict:
        """JSON-shaped per-query record for the batch manifest."""
        out = {
            "index": self.index,
            "algorithm": self.query.algorithm,
            "source": self.query.source,
            "mode": self.query.mode,
            "batched": self.batched,
            "ok": self.ok,
            "iterations": self.iterations,
            "seconds": float(self.seconds),
            "values_sha256": self.values_sha256,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class BatchResult:
    """Everything one batch produced, plus the amortization story."""

    queries: List[QueryResult]
    graph_digest: str
    #: simulated seconds of the fused batch timeline
    batch_seconds: float
    #: simulated seconds across single-source fallback runs
    fallback_seconds: float
    super_iterations: int = 0
    fused_launches: int = 0
    launches_saved: int = 0
    readbacks_saved: int = 0

    @property
    def total_seconds(self) -> float:
        return self.batch_seconds + self.fallback_seconds

    @property
    def ok_count(self) -> int:
        return sum(1 for q in self.queries if q.ok)

    def result_dict(self) -> dict:
        """The manifest's free-form ``result`` payload."""
        return {
            "kind": "batch",
            "num_queries": len(self.queries),
            "ok": self.ok_count,
            "failed": len(self.queries) - self.ok_count,
            "batched": sum(1 for q in self.queries if q.batched),
            "fallback": sum(1 for q in self.queries if not q.batched),
            "graph_digest": self.graph_digest,
            "total_seconds": float(self.total_seconds),
            "batch_seconds": float(self.batch_seconds),
            "fallback_seconds": float(self.fallback_seconds),
            "super_iterations": self.super_iterations,
            "fused_launches": self.fused_launches,
            "launches_saved": self.launches_saved,
            "readbacks_saved": self.readbacks_saved,
            "queries": [q.summary() for q in self.queries],
        }


def _trace_decisions(result: QueryResult) -> List[dict]:
    """The query's decisions, each tagged with its query index."""
    import dataclasses

    trace = result.trace
    if trace is None or not getattr(trace, "decisions", None):
        return []
    out = []
    for decision in trace.decisions:
        doc = dataclasses.asdict(decision)
        doc["query_index"] = result.index
        out.append(doc)
    return out


class BatchRunner:
    """Answers batches of queries against one :class:`GraphSession`."""

    def __init__(
        self,
        session: GraphSession,
        *,
        max_iterations: Optional[int] = None,
    ):
        self.session = session
        self.max_iterations = max_iterations

    # ------------------------------------------------------------------

    def run(self, queries: Sequence[Union[BatchQuery, dict]]) -> BatchResult:
        """Answer every query; failures are isolated, never raised."""
        queries = [
            q if isinstance(q, BatchQuery) else BatchQuery.from_dict(q)
            for q in queries
        ]
        results: List[Optional[QueryResult]] = [None] * len(queries)
        plans: List[QueryPlan] = []
        plan_indices: List[int] = []
        fallback_indices: List[int] = []

        for i, query in enumerate(queries):
            try:
                route = self._route(query)
            except ReproError as exc:
                results[i] = QueryResult(
                    index=i, query=query, batched=False, values=None,
                    values_sha256=None, iterations=0, seconds=0.0,
                    error=str(exc),
                )
                continue
            if route is None:
                fallback_indices.append(i)
            else:
                plans.append(route)
                plan_indices.append(i)

        batch_seconds = 0.0
        stats = {}
        if plans:
            frame = run_batch_frame(
                self.session.graph,
                plans,
                device=self.session.device,
                max_iterations=self.max_iterations,
                queue_gen=self.session.config.queue_gen,
            )
            batch_seconds = frame.total_seconds
            stats = {
                "super_iterations": frame.super_iterations,
                "fused_launches": frame.fused_launches,
                "launches_saved": frame.launches_saved,
                "readbacks_saved": frame.readbacks_saved,
            }
            for i, outcome in zip(plan_indices, frame.queries):
                results[i] = QueryResult(
                    index=i,
                    query=queries[i],
                    batched=True,
                    values=outcome.values,
                    values_sha256=(
                        None if outcome.values is None
                        else values_sha256(outcome.values)
                    ),
                    iterations=outcome.num_iterations,
                    seconds=0.0,
                    error=outcome.error,
                    trace=outcome.trace,
                )

        fallback_seconds = 0.0
        for i in fallback_indices:
            result = self._run_single(i, queries[i])
            fallback_seconds += result.seconds
            results[i] = result

        return BatchResult(
            queries=[r for r in results if r is not None],
            graph_digest=self.session.digest,
            batch_seconds=batch_seconds,
            fallback_seconds=fallback_seconds,
            **stats,
        )

    def to_manifest(
        self, batch: BatchResult, *, observer=None
    ) -> RunManifest:
        """The batch's :class:`~repro.obs.RunManifest` (mode ``batch``)."""
        decisions: List[dict] = []
        for result in batch.queries:
            decisions.extend(_trace_decisions(result))
        return build_batch_manifest(
            batch.result_dict(),
            graph=self.session.graph,
            device=self.session.device,
            config=self.session.config,
            observer=observer,
            decisions=decisions,
        )

    # ------------------------------------------------------------------

    def _route(self, query: BatchQuery) -> Optional[QueryPlan]:
        """A :class:`QueryPlan` when the query can ride the batched
        frame, None for the single-source fallback.  Raises
        :class:`~repro.errors.ReproError` for unanswerable queries
        (unknown algorithm, bad mode) — the caller isolates those."""
        session = self.session
        info = get_algorithm(query.algorithm)
        if query.mode == "adaptive":
            if not info.adaptive_eligible or not info.batchable:
                return None
            policy = AdaptivePolicy(
                session.graph, session.config, device=session.device
            )
            return QueryPlan(info.make_spec(), query.source, policy)
        variant = Variant.parse(query.mode)
        if not info.batchable or variant.ordering is Ordering.ORDERED:
            # Ordered frames keep per-query structures (findmin, pair
            # multisets) the multi-source frame does not stack.
            return None
        if not info.supports_variants:
            return None
        return QueryPlan(info.make_spec(), query.source, StaticPolicy(variant))

    def _run_single(self, index: int, query: BatchQuery) -> QueryResult:
        """The guarded single-source fallback path."""
        session = self.session

        def run():
            if query.mode == "adaptive":
                return adaptive_run(
                    session.graph,
                    query.algorithm,
                    query.source,
                    config=session.config,
                    device=session.device,
                    max_iterations=self.max_iterations,
                )
            return run_static(
                session.graph,
                query.source,
                query.algorithm,
                query.mode,
                device=session.device,
                max_iterations=self.max_iterations,
            )

        result, error = guarded_query(
            run, label=f"query {index} ({query.algorithm} @ {query.source})"
        )
        if result is None:
            return QueryResult(
                index=index, query=query, batched=False, values=None,
                values_sha256=None, iterations=0, seconds=0.0, error=error,
            )
        return QueryResult(
            index=index,
            query=query,
            batched=False,
            values=result.values,
            values_sha256=values_sha256(result.values),
            iterations=result.num_iterations,
            seconds=float(result.total_seconds),
            error=None,
            trace=result.trace,
        )
