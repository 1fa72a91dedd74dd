"""Dynamic serving: mutation barriers in the serve loop.

:class:`ServeLoop` applies queued mutation batches only at
super-iteration barriers, re-points its one session at the compacted
graph, preserves exactly-once and answers every post-barrier query on
the new epoch with SHA parity against a from-scratch run — and with
decision thresholds resolved from the mutated graph, never the graph
the session was built on.  The chaos soak composes the barrier with
fault injection.
"""

import hashlib
import json

import numpy as np

from repro.core.config import RuntimeConfig
from repro.core.runtime import adaptive_run
from repro.graph.dynamic import DeltaOverlayGraph, EdgeBatch
from repro.graph.generators import attach_uniform_weights, erdos_renyi_graph
from repro.obs.manifest import graph_fingerprint
from repro.serve import BatchQuery, GraphSession, ServeLoop
from repro.serve.chaos import generate_mutations, run_chaos


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _mutated(graph, batch, mode=None):
    overlay = DeltaOverlayGraph(graph)
    delta = overlay.apply(batch, mode=mode)
    return overlay.materialize(name=graph.name), delta


# ----------------------------------------------------------------------
# Serve-loop mutation barriers
# ----------------------------------------------------------------------

class TestServeLoopMutations:
    def test_barrier_applies_between_frames_with_parity(self, random_graph):
        session = GraphSession(random_graph)
        loop = ServeLoop(session, max_batch_rows=4)

        loop.submit(BatchQuery("bfs", 0), line=1)
        loop.pump()  # frame mid-flight
        loop.submit_mutation(EdgeBatch.inserts([(0, 150), (150, 3)]))
        loop.submit(BatchQuery("bfs", 3), line=2)
        assert loop.busy
        loop.drain()

        responses = {r["line"]: r for r in loop.take_responses()}
        assert len(responses) == 2 and all(r["ok"] for r in responses.values())
        # Query 1 rode the pre-mutation frame, query 2 the new epoch.
        assert responses[1]["graph_epoch"] == 0
        assert responses[2]["graph_epoch"] == 1
        pre = adaptive_run(random_graph, "bfs", 0)
        assert responses[1]["values_sha256"] == _sha(pre.values)
        post = adaptive_run(loop.session.graph, "bfs", 3)
        assert responses[2]["values_sha256"] == _sha(post.values)

        assert loop.report.mutations_applied == 1
        assert loop.graph_epoch == 1
        assert loop.session is session  # re-pointed, not rebuilt
        (event,) = loop.report.mutation_events
        assert event["ok"] and event["edges_inserted"] == 2
        assert event["new_digest"] == session.digest
        assert event["compaction_seconds"] > 0

    def test_mutated_graph_never_reuses_stale_thresholds(
        self, random_graph, monkeypatch
    ):
        """Regression: T3 scales with num_nodes, so after a grow barrier
        the next adaptive query's policy must resolve it from the
        mutated graph, not the graph the session was built on."""
        config = RuntimeConfig(t2=4)  # keep T3 out of the T3>=T2 clamp
        session = GraphSession(random_graph, config=config)
        loop = ServeLoop(session)
        plans = []
        route = loop._runner._route

        def spy(query):
            plans.append(route(query))
            return plans[-1]

        monkeypatch.setattr(loop._runner, "_route", spy)
        loop.submit(BatchQuery("bfs", 0), line=1)
        loop.drain()
        grow = EdgeBatch.from_docs(
            enumerate(
                [
                    {"op": "grow", "nodes": 800},
                    {"op": "insert", "u": 900, "v": 0},
                ],
                start=1,
            )
        )
        loop.submit_mutation(grow)
        loop.submit(BatchQuery("bfs", 0), line=2)
        loop.drain()

        mutated = loop.session.graph
        assert mutated.num_nodes == random_graph.num_nodes + 800
        stale = config.resolve_thresholds(session.device, random_graph.num_nodes)
        fresh = config.resolve_thresholds(session.device, mutated.num_nodes)
        assert fresh.t3 != stale.t3
        before, after = (plan.policy.thresholds for plan in plans)
        assert before.t3 == stale.t3
        assert after.t3 == fresh.t3

    def test_mutation_burns_simulated_time(self, random_graph):
        session = GraphSession(random_graph)
        loop = ServeLoop(session)
        loop.submit(BatchQuery("bfs", 0), line=1)
        loop.drain()
        before = loop.sim_now
        loop.submit_mutation(EdgeBatch.inserts([(5, 9)], path="<t>"))
        loop.pump()
        assert loop.sim_now > before  # compaction priced into the clock
        loop.submit(BatchQuery("bfs", 0), line=2)
        loop.drain()
        assert loop.sim_now >= before

    def test_invalid_batch_is_event_not_crash(self, random_graph):
        session = GraphSession(random_graph)
        loop = ServeLoop(session, mutation_mode="strict")
        old_digest = session.digest
        loop.submit_mutation(EdgeBatch.deletes([(0, 199)]))  # missing edge
        loop.submit(BatchQuery("bfs", 0), line=1)
        loop.drain()
        (doc,) = loop.take_responses()
        assert doc["ok"] and doc["graph_epoch"] == 0
        assert loop.report.mutations_rejected == 1
        assert loop.report.mutations_applied == 0
        assert session.digest == old_digest  # nothing half-applied
        (event,) = loop.report.mutation_events
        assert not event["ok"] and "missing edge" in event["error"]

    def test_rejected_batch_leaks_nothing_into_shared_barrier(self, random_graph):
        """Regression: a batch rejected at line 2 must not leave its
        line-1 insert in the graph a valid batch compacts at the same
        barrier."""
        session = GraphSession(random_graph)
        loop = ServeLoop(session, mutation_mode="strict")
        bad = EdgeBatch.from_docs(
            enumerate(
                [
                    {"op": "insert", "u": 0, "v": 150},
                    {"op": "delete", "u": 0, "v": 199},  # missing edge
                ],
                start=1,
            ),
            path="<bad>",
        )
        good = EdgeBatch.inserts([(9, 0)])
        loop.submit_mutation(bad)
        loop.submit_mutation(good)
        loop.pump()
        assert loop.graph_epoch == 1
        assert loop.report.mutations_rejected == 1
        assert loop.report.mutations_applied == 1
        rejected, applied = loop.report.mutation_events
        assert rejected["error"].startswith("<bad>:2: cannot delete missing edge")
        assert applied["ok"] and applied["edges_inserted"] == 1
        expected, _ = _mutated(random_graph, good, mode="strict")
        served = loop.session.graph
        np.testing.assert_array_equal(served.row_offsets, expected.row_offsets)
        np.testing.assert_array_equal(served.col_indices, expected.col_indices)
        assert session.digest == graph_fingerprint(expected)["digest"]

    def test_coalesced_batches_advance_epoch_per_batch(self, random_graph):
        session = GraphSession(random_graph)
        loop = ServeLoop(session, mutation_mode="lenient")
        loop.submit_mutation(EdgeBatch.inserts([(0, 9)]))
        loop.submit_mutation(EdgeBatch.inserts([(9, 0)]))
        loop.pump()
        assert loop.graph_epoch == 2
        assert loop.report.mutations_applied == 2
        (event,) = loop.report.mutation_events  # one shared barrier
        assert event["batches"] == 2

    def test_report_round_trips_mutation_fields(self, random_graph):
        session = GraphSession(random_graph)
        loop = ServeLoop(session, mutation_mode="lenient")
        loop.submit_mutation(EdgeBatch.inserts([(0, 9)]))
        loop.submit(BatchQuery("bfs", 0), line=1)
        loop.drain()
        doc = loop.finalize().result_dict()
        assert doc["mutations_applied"] == 1
        assert doc["graph_epoch"] == 1
        assert doc["mutation_events"][0]["ok"]
        json.dumps(doc)  # manifest-safe


# ----------------------------------------------------------------------
# Chaos: mutations under fault injection
# ----------------------------------------------------------------------

class TestDynamicChaos:
    def test_generate_mutations_is_seeded_and_epoch_consistent(self):
        graph = attach_uniform_weights(erdos_renyi_graph(80, 400, seed=3), seed=4)
        batches, epochs = generate_mutations(graph, 3, ops_per_batch=10, seed=9)
        again, _ = generate_mutations(graph, 3, ops_per_batch=10, seed=9)
        assert len(batches) == 3 and len(epochs) == 4
        assert [len(b) for b in batches] == [len(b) for b in again]
        # Epoch k is the graph after the first k batches, replayable
        # through a fresh overlay.
        overlay = DeltaOverlayGraph(graph)
        for k, batch in enumerate(batches, start=1):
            overlay.apply(batch, mode="lenient")
            assert (
                graph_fingerprint(overlay.materialize(name=graph.name))["digest"]
                == graph_fingerprint(epochs[k])["digest"]
            )

    def test_mutating_soak_passes_exactly_once_and_parity(self):
        report = run_chaos(
            num_queries=60, num_nodes=200, seed=3, mutation_batches=3
        )
        assert report.passed, report.violations
        assert report.mutation_batches == 3
        assert report.serve.graph_epoch == 3
        assert report.mutation_digest_mismatches == 0
        assert report.duplicate_responses == 0
        assert report.missing_responses == 0
        assert report.sha_mismatches == 0
        # One applied event per barrier; a barrier may coalesce batches.
        applied = [e for e in report.serve.mutation_events if e["ok"]]
        assert 1 <= len(applied) <= 3
        assert sum(e["batches"] for e in applied) == 3
        assert report.result_dict()["mutation_batches"] == 3

    def test_mutating_soak_is_deterministic(self):
        first = run_chaos(num_queries=30, num_nodes=150, seed=8,
                          mutation_batches=2)
        second = run_chaos(num_queries=30, num_nodes=150, seed=8,
                           mutation_batches=2)
        a, b = first.result_dict(), second.result_dict()
        a.pop("latency_wall_s"), b.pop("latency_wall_s")
        assert a == b
