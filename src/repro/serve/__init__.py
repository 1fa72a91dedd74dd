"""repro.serve — the batched multi-source traversal service.

A traversal *service* answers many queries against the same graph, so
the expensive work should happen once per graph, not once per query:

- :class:`GraphSession` ingests a graph once and holds what every
  query shares — CSR arrays and their transpose, device spec, runtime
  config and the content digest; a mutation barrier re-points it at
  the compacted graph;
- :class:`BatchRunner` answers a list of :class:`BatchQuery` requests,
  stacking every batch-capable query into one fused multi-source host
  loop (:func:`repro.engine.batch.run_batch_frame`) that amortizes the
  per-iteration readback, kernel-launch overhead and the graph's h2d
  copy across the batch, while isolating faulting queries and falling
  back to guarded single-source runs for algorithms without batch
  support;
- :class:`ServeLoop` is the resilient continuous-batching scheduler a
  long-running server drives: a bounded :class:`AdmissionQueue`
  (overload sheds with explicit error responses, priorities displace),
  per-query deadlines armed at admission, new queries joining the
  fused frame at the next super-iteration, per-row fault isolation
  with a guarded fallback, and a circuit breaker across both paths.
  The chaos harness in :mod:`repro.serve.chaos` soaks the whole stack
  under seeded faults and checks no-crash / exactly-once / SHA-parity
  invariants.

CLI: ``repro batch`` (one JSONL query file, one manifest),
``repro serve`` (JSONL queries on stdin, JSON answers on stdout) and
``repro chaos`` (seeded soak, exit 0 iff every invariant held).
See ``docs/serving.md``.
"""

from repro.serve.admission import AdmissionQueue, AdmittedQuery
from repro.serve.batch import (
    BatchQuery,
    BatchResult,
    BatchRunner,
    QueryResult,
    load_queries_jsonl,
)
from repro.serve.loop import ServeLoop, ServeReport
from repro.serve.session import GraphSession

__all__ = [
    "AdmissionQueue",
    "AdmittedQuery",
    "BatchQuery",
    "BatchResult",
    "BatchRunner",
    "GraphSession",
    "QueryResult",
    "ServeLoop",
    "ServeReport",
    "load_queries_jsonl",
]
