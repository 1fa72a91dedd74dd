"""Dynamic serving: epoch-aware cache patches and mutation barriers.

Three layers under test.  :meth:`SessionCache.patch` must re-key a live
session in place — no eviction, no rebuild, post-mutation lookups hit
the same object — while stale artifacts (thresholds, profile, digest)
are all re-derived from the mutated graph: a mutated graph must never
be served with pre-mutation thresholds.  :class:`ServeLoop` applies
queued mutation batches only at super-iteration barriers, preserving
exactly-once and answering every post-barrier query on the new epoch
with SHA parity against a from-scratch run.  The chaos soak composes
both with fault injection.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.config import RuntimeConfig
from repro.core.runtime import adaptive_run
from repro.errors import RuntimeConfigError
from repro.graph.dynamic import DeltaOverlayGraph, EdgeBatch
from repro.graph.generators import attach_uniform_weights, erdos_renyi_graph
from repro.obs import Observer, observing
from repro.obs.manifest import graph_fingerprint
from repro.serve import BatchQuery, GraphSession, ServeLoop, SessionCache
from repro.serve.chaos import generate_mutations, run_chaos


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _mutated(graph, batch, mode=None):
    overlay = DeltaOverlayGraph(graph)
    delta = overlay.apply(batch, mode=mode)
    return overlay.materialize(name=graph.name), delta


# ----------------------------------------------------------------------
# Epoch-aware session cache invalidation
# ----------------------------------------------------------------------

class TestSessionPatch:
    def test_patch_rekeys_in_place_without_eviction(self, random_graph):
        cache = SessionCache(capacity=4)
        session = cache.get(random_graph)
        old_digest = session.digest
        mutated, _ = _mutated(random_graph, EdgeBatch.inserts([(0, 150)]))

        patched = cache.patch(session, mutated)
        assert patched is session  # same live object, not a rebuild
        assert cache.patches == 1 and cache.evictions == 0
        assert session.digest != old_digest
        assert session.digest == graph_fingerprint(mutated)["digest"]
        # Post-mutation lookups hit the patched entry...
        hits_before = cache.hits
        assert cache.get(mutated) is session
        assert cache.hits == hits_before + 1
        # ...and non-incremental consumers see the digest bump: the old
        # key no longer resolves (a fresh get under it would miss).
        assert old_digest not in cache.digests()

    def test_mutated_graph_never_reuses_stale_thresholds(self, random_graph):
        """Regression: T3 is resolved from num_nodes at session build;
        a grow mutation must re-resolve it, not serve the stale value."""
        config = RuntimeConfig(t2=4)  # keep T3 out of the T3>=T2 clamp
        cache = SessionCache(capacity=4)
        session = cache.get(random_graph, config=config)
        stale = session.thresholds
        assert stale.t3 == config.resolve_thresholds(
            session.device, random_graph.num_nodes
        ).t3

        grow = EdgeBatch.from_docs(
            enumerate(
                [
                    {"op": "grow", "nodes": 800},
                    {"op": "insert", "u": 900, "v": 0},
                ],
                start=1,
            )
        )
        mutated, _ = _mutated(random_graph, grow)
        cache.patch(session, mutated)
        fresh = config.resolve_thresholds(session.device, mutated.num_nodes)
        assert session.thresholds.t3 == fresh.t3
        assert session.thresholds.t3 != stale.t3
        # The profile the decision maker reads is post-mutation too.
        assert session.profile.num_nodes == mutated.num_nodes
        assert session.profile.num_edges == mutated.num_edges

    def test_patch_requires_cached_session(self, random_graph):
        cache = SessionCache(capacity=2)
        foreign = GraphSession(random_graph)
        mutated, _ = _mutated(random_graph, EdgeBatch.inserts([(1, 2)]))
        with pytest.raises(RuntimeConfigError, match="does not hold"):
            cache.patch(foreign, mutated)

    def test_patch_supersedes_collision_under_new_digest(self, random_graph):
        cache = SessionCache(capacity=4)
        session = cache.get(random_graph)
        mutated, _ = _mutated(random_graph, EdgeBatch.inserts([(0, 150)]))
        rival = cache.get(mutated)  # someone already ingested the target
        assert rival is not session
        cache.patch(session, mutated)
        assert cache.get(mutated) is session
        assert cache.evictions == 1  # the rival, counted honestly

    def test_patch_observed(self, random_graph):
        observer = Observer()
        with observing(observer):
            cache = SessionCache(capacity=2)
            session = cache.get(random_graph)
            mutated, _ = _mutated(random_graph, EdgeBatch.inserts([(3, 4)]))
            cache.patch(session, mutated)
        snap = observer.metrics.snapshot()
        assert snap["serve.cache.patches"]["value"] == 1


# ----------------------------------------------------------------------
# Serve-loop mutation barriers
# ----------------------------------------------------------------------

class TestServeLoopMutations:
    def test_barrier_applies_between_frames_with_parity(self, random_graph):
        cache = SessionCache(capacity=4)
        session = cache.get(random_graph)
        loop = ServeLoop(session, max_batch_rows=4, cache=cache)

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
        assert cache.patches == 1 and cache.evictions == 0
        (event,) = loop.report.mutation_events
        assert event["ok"] and event["edges_inserted"] == 2
        assert event["new_digest"] == session.digest
        assert event["compaction_seconds"] > 0

    def test_mutation_burns_simulated_time(self, random_graph):
        session = GraphSession(random_graph)
        loop = ServeLoop(session, cache=None)
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
        # Epoch-aware invalidation, not eviction: one patch per barrier
        # (a barrier may coalesce several batches), never an eviction.
        assert 1 <= report.cache_patches <= 3
        assert report.cache_evictions == 0
        doc = report.result_dict()
        assert doc["mutation_batches"] == 3 and doc["cache_evictions"] == 0

    def test_mutating_soak_is_deterministic(self):
        first = run_chaos(num_queries=30, num_nodes=150, seed=8,
                          mutation_batches=2)
        second = run_chaos(num_queries=30, num_nodes=150, seed=8,
                           mutation_batches=2)
        a, b = first.result_dict(), second.result_dict()
        a.pop("latency_wall_s"), b.pop("latency_wall_s")
        assert a == b
