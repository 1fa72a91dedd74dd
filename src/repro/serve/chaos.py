"""The chaos harness: soak the serve loop under seeded faults and
assert the invariants a resilient service must keep.

``repro chaos`` (``python -m repro chaos``) runs two passes over the
same seeded query stream against the same graph:

1. a **fault-free reference** — every distinct ``(algorithm, source,
   mode)`` triple answered once through the ordinary batch runner, its
   value SHA recorded;
2. a **chaos pass** — the full :class:`~repro.serve.loop.ServeLoop`
   under a seeded :class:`~repro.reliability.FaultPlan`, deadline
   pressure and a bounded admission queue.

Then it checks, mechanically, the three invariants:

- **no crash** — the pass returning at all is the first check; every
  failure mode must have become a response;
- **exactly once** — every submitted query produced exactly one
  response (keyed by submission ``seq``), no drops, no duplicates;
- **isolation** — every ``ok`` response's ``values_sha256`` equals the
  fault-free reference for its triple: faults may slow queries down or
  force them through the fallback, but they may never change an answer
  that is delivered as a success.

Violations are collected (not raised) so the CLI can print all of them
and exit nonzero; :attr:`ChaosReport.passed` is the single verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graph.dynamic import DeltaOverlayGraph, EdgeBatch
from repro.graph.generators import attach_uniform_weights, power_law_graph
from repro.obs.context import current_observer
from repro.obs.manifest import graph_fingerprint
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.faults import FaultInjector, FaultPlan
from repro.serve.batch import BatchQuery, BatchRunner
from repro.serve.loop import ServeLoop, ServeReport
from repro.serve.session import GraphSession

__all__ = [
    "ChaosReport",
    "ShardChaosReport",
    "default_chaos_plan",
    "default_shard_chaos_plan",
    "generate_mutations",
    "generate_queries",
    "run_chaos",
    "run_shard_chaos",
]

#: modes the generator draws from (adaptive-heavy, some static codes)
_CHAOS_MODES = ("adaptive", "adaptive", "adaptive", "U_T_BM", "U_B_QU")


def default_chaos_plan(seed: int = 0) -> FaultPlan:
    """A plan mean enough to exercise every recovery path."""
    return FaultPlan(
        seed=seed,
        launch_failure_rate=0.02,
        memory_fault_rate=0.03,
        latency_spike_rate=0.05,
        latency_spike_factor=4.0,
    )


def generate_queries(
    num_queries: int,
    num_nodes: int,
    *,
    seed: int = 0,
    algorithms: Tuple[str, ...] = ("bfs", "sssp"),
    deadline_s: Optional[float] = None,
    deadline_fraction: float = 0.25,
) -> List[BatchQuery]:
    """A seeded, reproducible query stream: mixed algorithms and modes,
    a spread of priorities, and (when *deadline_s* is set) a slice of
    deadline-carrying queries."""
    import numpy as np

    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(num_queries):
        deadline = None
        if deadline_s is not None and rng.random() < deadline_fraction:
            deadline = float(deadline_s)
        queries.append(
            BatchQuery(
                algorithm=str(rng.choice(algorithms)),
                source=int(rng.integers(0, num_nodes)),
                mode=str(rng.choice(_CHAOS_MODES)),
                priority=int(rng.integers(0, 3)),
                deadline_s=deadline,
            )
        )
    return queries


def generate_mutations(
    graph,
    num_batches: int,
    *,
    ops_per_batch: int = 12,
    seed: int = 0,
    mode: str = "lenient",
):
    """Seeded mutation batches plus the graph each epoch materializes.

    Returns ``(batches, epoch_graphs)`` where ``epoch_graphs[k]`` is the
    graph after the first *k* batches — epoch 0 is *graph* itself.  The
    epoch graphs go through the same overlay/compaction machinery the
    serve loop uses, so their content digests are the post-compaction
    references the chaos soak asserts against.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    overlay = DeltaOverlayGraph(graph)
    weighted = graph.weights is not None
    batches = []
    epoch_graphs = [graph]
    for k in range(num_batches):
        cur = epoch_graphs[-1]
        src_all = np.repeat(np.arange(cur.num_nodes), cur.out_degrees)
        docs = []
        num_dels = min(ops_per_batch // 3, cur.num_edges)
        for idx in rng.choice(cur.num_edges, size=num_dels, replace=False):
            docs.append(
                {"op": "delete", "u": int(src_all[idx]), "v": int(cur.col_indices[idx])}
            )
        while len(docs) < ops_per_batch:
            u = int(rng.integers(0, cur.num_nodes))
            v = int(rng.integers(0, cur.num_nodes))
            if u == v:
                continue
            doc = {"op": "insert", "u": u, "v": v}
            if weighted:
                doc["weight"] = float(np.float32(rng.integers(1, 9)))
            docs.append(doc)
        batch = EdgeBatch.from_docs(
            ((i + 1, doc) for i, doc in enumerate(docs)),
            path=f"<chaos-batch-{k}>",
        )
        overlay.apply(batch, mode=mode)
        epoch_graphs.append(overlay.materialize(name=graph.name))
        batches.append(batch)
    return batches, epoch_graphs


@dataclass
class ChaosReport:
    """One soak's verdict: counts, the serve report, and violations."""

    num_queries: int
    plan: dict
    serve: ServeReport
    #: the session the soak ran against (manifest building); not part
    #: of :meth:`result_dict`
    session: Optional[GraphSession] = None
    faults_injected: int = 0
    #: invariant breaches, human-readable; empty == the soak passed
    violations: List[str] = field(default_factory=list)
    duplicate_responses: int = 0
    missing_responses: int = 0
    sha_mismatches: int = 0
    #: mutation soak bookkeeping (zero when no mutations interleaved)
    mutation_batches: int = 0
    mutation_digest_mismatches: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def result_dict(self) -> dict:
        doc = self.serve.result_dict()
        doc.update(
            kind="chaos",
            num_queries=self.num_queries,
            fault_plan=self.plan,
            faults_injected=self.faults_injected,
            passed=self.passed,
            violations=list(self.violations),
            duplicate_responses=self.duplicate_responses,
            missing_responses=self.missing_responses,
            sha_mismatches=self.sha_mismatches,
            mutation_batches=self.mutation_batches,
            mutation_digest_mismatches=self.mutation_digest_mismatches,
        )
        return doc


def _reference_shas(
    session: GraphSession, queries: List[BatchQuery]
) -> Dict[Tuple[str, int, str], Optional[str]]:
    """Fault-free answers per distinct (algorithm, source, mode)."""
    triples = []
    seen = set()
    for q in queries:
        triple = (q.algorithm, q.source, q.mode)
        if triple not in seen:
            seen.add(triple)
            triples.append(BatchQuery(*triple))
    result = BatchRunner(session).run(triples)
    return {
        (r.query.algorithm, r.query.source, r.query.mode): r.values_sha256
        for r in result.queries
    }


def run_chaos(
    *,
    num_queries: int = 200,
    num_nodes: int = 600,
    seed: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    queue_capacity: int = 48,
    max_batch_rows: int = 16,
    deadline_s: Optional[float] = 5.0,
    scheduler: str = "continuous",
    pump_every: int = 4,
    mutation_batches: int = 0,
    mutation_ops: int = 12,
) -> ChaosReport:
    """Run one seeded chaos soak and return its :class:`ChaosReport`.

    Submissions interleave with :meth:`~repro.serve.loop.ServeLoop.pump`
    calls (every *pump_every* queries) so new queries genuinely join a
    running frame, then the loop drains.  Nothing here raises on a fault
    — an exception escaping *is* the no-crash invariant failing, and the
    test suite treats it as such.

    *mutation_batches* > 0 turns the soak dynamic: seeded mutation
    batches (:func:`generate_mutations`) are interleaved with the query
    stream, and the isolation invariant becomes epoch-aware — every
    ``ok`` response must match the fault-free reference *for the graph
    epoch it was answered on*, and every applied batch's post-compaction
    digest must equal the independently materialized epoch graph's.
    """
    session = GraphSession(attach_uniform_weights(
        power_law_graph(num_nodes, seed=seed, name=f"chaos{num_nodes}"),
        seed=seed,
    ))
    plan = fault_plan if fault_plan is not None else default_chaos_plan(seed)
    queries = generate_queries(
        num_queries, session.num_nodes, seed=seed, deadline_s=deadline_s
    )

    batches, epoch_graphs = generate_mutations(
        session.graph, mutation_batches, ops_per_batch=mutation_ops,
        seed=seed + 4242,
    )
    epoch_digests = [graph_fingerprint(g)["digest"] for g in epoch_graphs]
    # Fault-free reference per (triple, epoch): which epoch a query is
    # answered on depends on barrier timing, so every epoch's answers
    # are precomputed and the response's own tag selects among them.
    reference: Dict[Tuple[str, int, str, int], Optional[str]] = {}
    for epoch, epoch_graph in enumerate(epoch_graphs):
        epoch_session = session if epoch == 0 else GraphSession(
            epoch_graph, device=session.device, config=session.config
        )
        for triple, sha in _reference_shas(epoch_session, queries).items():
            reference[triple + (epoch,)] = sha

    injector = FaultInjector(plan) if not plan.is_empty else None
    loop = ServeLoop(
        session,
        queue_capacity=queue_capacity,
        max_batch_rows=max_batch_rows,
        scheduler=scheduler,
        fault_injector=injector,
        breaker=CircuitBreaker(failure_threshold=3, cooldown_s=0.05),
        mutation_mode="lenient",
    )
    mutate_every = (
        max(1, num_queries // (mutation_batches + 1)) if batches else 0
    )
    next_batch = 0
    responses: List[dict] = []
    for i, query in enumerate(queries, start=1):
        loop.submit(query, line=i)
        if batches and next_batch < len(batches) and i % mutate_every == 0:
            loop.submit_mutation(batches[next_batch])
            next_batch += 1
        if i % pump_every == 0:
            loop.pump()
            responses.extend(loop.take_responses())
    while next_batch < len(batches):
        loop.submit_mutation(batches[next_batch])
        next_batch += 1
    loop.drain()
    responses.extend(loop.take_responses())
    serve_report = loop.finalize()

    report = ChaosReport(
        num_queries=num_queries,
        plan=plan.to_dict(),
        serve=serve_report,
        session=session,
        faults_injected=injector.num_injected if injector else 0,
        mutation_batches=len(batches),
    )

    # Dynamic invariants: every batch applied, every barrier's
    # compacted digest identical to the independently built epoch graph.
    if batches:
        if serve_report.graph_epoch != len(batches):
            report.violations.append(
                f"only {serve_report.graph_epoch} of {len(batches)} "
                "mutation batches reached an epoch"
            )
        for event in serve_report.mutation_events:
            if not event.get("ok"):
                report.violations.append(
                    f"mutation batch rejected: {event.get('error')}"
                )
                continue
            epoch = event["graph_epoch"]
            if event["new_digest"] != epoch_digests[epoch]:
                report.mutation_digest_mismatches += 1
                report.violations.append(
                    f"epoch {epoch} compacted digest "
                    f"{event['new_digest'][:12]}… != reference build "
                    f"{epoch_digests[epoch][:12]}…"
                )

    # Invariant: exactly one response per submitted query.
    seen: Dict[int, int] = {}
    for doc in responses:
        seen[doc["seq"]] = seen.get(doc["seq"], 0) + 1
    for seq, count in sorted(seen.items()):
        if count > 1:
            report.duplicate_responses += count - 1
            report.violations.append(
                f"query seq {seq} answered {count} times"
            )
    for seq in range(1, num_queries + 1):
        if seq not in seen:
            report.missing_responses += 1
            report.violations.append(f"query seq {seq} never answered")

    # Invariant: delivered successes are bit-identical to fault-free —
    # on the graph epoch each response was answered against.
    by_seq = {doc["seq"]: doc for doc in responses}
    for i, query in enumerate(queries, start=1):
        doc = by_seq.get(i)
        if doc is None or not doc.get("ok"):
            continue
        epoch = doc.get("graph_epoch", 0)
        expected = reference.get(
            (query.algorithm, query.source, query.mode, epoch)
        )
        if doc.get("values_sha256") != expected:
            report.sha_mismatches += 1
            report.violations.append(
                f"query seq {i} ({query.algorithm} @ {query.source}, "
                f"{query.mode}, epoch {epoch}) answered sha "
                f"{doc.get('values_sha256')!r}, fault-free reference is "
                f"{expected!r}"
            )

    observer = current_observer()
    if observer is not None:
        observer.spans.add_span(
            "chaos_soak",
            sim_seconds=serve_report.total_sim_seconds,
            queries=num_queries,
            super_iterations=serve_report.super_iterations,
        )
    return report


# ----------------------------------------------------------------------
# Device-loss soak over the sharded multi-device driver
# ----------------------------------------------------------------------


def default_shard_chaos_plan(seed: int = 0) -> "FaultPlan":
    """A device-loss-heavy plan for the sharded soak: frequent enough
    that a short soak sees losses on several distinct devices, bounded
    so a single query cannot burn the whole restore budget."""
    return FaultPlan(
        seed=seed,
        device_loss_rate=0.08,
        launch_failure_rate=0.02,
        max_faults=1,
    )


@dataclass
class ShardChaosReport:
    """One sharded soak's verdict.

    The invariants extend the serve soak's three with *fault
    attribution*: every injected device fault must be attributed to
    exactly one device's fault domain (its ``device`` tag) and, for
    device losses, to the shards that were homed there — an unattributed
    fault means the recovery ladder acted on the wrong shard.
    """

    num_queries: int
    num_devices: int
    partition: str
    plan: dict
    #: per-query summaries: algorithm, source, sha parity, recovery rung
    queries: List[dict] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    faults_injected: int = 0
    device_losses: int = 0
    migrations: int = 0
    restores: int = 0
    degraded_queries: int = 0
    sha_mismatches: int = 0
    unattributed_faults: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def result_dict(self) -> dict:
        return {
            "kind": "shard_chaos",
            "num_queries": self.num_queries,
            "num_devices": self.num_devices,
            "partition": self.partition,
            "fault_plan": self.plan,
            "queries": list(self.queries),
            "passed": self.passed,
            "violations": list(self.violations),
            "faults_injected": self.faults_injected,
            "device_losses": self.device_losses,
            "migrations": self.migrations,
            "restores": self.restores,
            "degraded_queries": self.degraded_queries,
            "sha_mismatches": self.sha_mismatches,
            "unattributed_faults": self.unattributed_faults,
        }


def run_shard_chaos(
    *,
    num_queries: int = 8,
    num_nodes: int = 512,
    num_devices: int = 4,
    seed: int = 0,
    partition: str = "contiguous",
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_every: int = 2,
    algorithms: Tuple[str, ...] = ("bfs", "sssp"),
    graph=None,
) -> ShardChaosReport:
    """Soak :func:`~repro.engine.shard.run_sharded` under seeded device
    loss and assert the sharded invariants:

    - **no crash** — every query returns a result, never an exception;
    - **exactly once** — one result per submitted query;
    - **bit identity** — each faulted N-device run's value SHA equals
      the fault-free 1-device run of the same query;
    - **attribution** — every injected fault names exactly one device
      fault domain, and every device loss maps to recovery events for
      the shards homed on that device (and no other device).
    """
    import dataclasses as _dc

    import numpy as np

    from repro.engine.shard import run_sharded

    if graph is None:
        graph = attach_uniform_weights(
            power_law_graph(num_nodes, seed=seed, name=f"shardchaos{num_nodes}"),
            seed=seed,
        )
    plan = fault_plan if fault_plan is not None else default_shard_chaos_plan(seed)
    rng = np.random.default_rng(seed)

    report = ShardChaosReport(
        num_queries=num_queries,
        num_devices=num_devices,
        partition=partition,
        plan=plan.to_dict(),
    )

    for i in range(num_queries):
        algorithm = str(rng.choice(algorithms))
        source = int(rng.integers(0, graph.num_nodes))
        reference = run_sharded(
            graph, source, algorithm=algorithm, num_devices=1
        )
        entry = {
            "query": i,
            "algorithm": algorithm,
            "source": source,
            "reference_sha256": reference.values_sha256,
        }
        try:
            result = run_sharded(
                graph,
                source,
                algorithm=algorithm,
                num_devices=num_devices,
                partition=partition,
                fault_plan=_dc.replace(plan, seed=plan.seed + 7919 * (i + 1)),
                checkpoint_every=checkpoint_every,
            )
        except Exception as exc:  # noqa: BLE001 — a crash IS the violation
            report.violations.append(
                f"query {i} ({algorithm} @ {source}) crashed: "
                f"{type(exc).__name__}: {exc}"
            )
            entry["crashed"] = f"{type(exc).__name__}: {exc}"
            report.queries.append(entry)
            continue

        entry.update(
            values_sha256=result.values_sha256,
            recovery_rung=result.recovery_rung,
            device_losses=result.device_losses,
            migrations=result.migrations,
            faults=len(result.faults),
            degraded=result.degraded,
        )
        report.queries.append(entry)
        report.faults_injected += len(result.faults)
        report.device_losses += result.device_losses
        report.migrations += result.migrations
        report.restores += result.restores
        report.degraded_queries += int(result.degraded)

        if result.values_sha256 != reference.values_sha256:
            report.sha_mismatches += 1
            report.violations.append(
                f"query {i} ({algorithm} @ {source}) sharded sha "
                f"{result.values_sha256[:12]}… != 1-device reference "
                f"{reference.values_sha256[:12]}…"
            )

        # Attribution: every injected fault carries exactly one device
        # tag, and every device-loss fault maps to migration events for
        # shards homed on that device only.
        loss_events: Dict[int, set] = {}
        for event in result.recovery_events:
            if event.fault_kind == "device_loss" and event.device_index >= 0:
                loss_events.setdefault(event.device_index, set()).add(
                    event.shard_index
                )
        for fault in result.faults:
            dev = fault.get("device", -1)
            if dev < 0 or dev >= num_devices:
                report.unattributed_faults += 1
                report.violations.append(
                    f"query {i}: fault #{fault.get('sequence')} "
                    f"({fault.get('kind')}) has no device fault domain "
                    f"(device={dev})"
                )
                continue
            if fault.get("kind") == "device_loss" and not result.degraded:
                shards = loss_events.get(dev, set())
                if not shards:
                    report.unattributed_faults += 1
                    report.violations.append(
                        f"query {i}: device_loss on device {dev} produced "
                        f"no recovery events for any shard homed there"
                    )

    observer = current_observer()
    if observer is not None:
        observer.spans.add_span(
            "shard_chaos_soak",
            queries=num_queries,
            devices=num_devices,
            device_losses=report.device_losses,
        )
    return report
