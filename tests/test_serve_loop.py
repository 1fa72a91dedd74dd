"""The resilient serve loop: admission control, continuous batching,
per-row fault isolation, deadlines and the circuit breaker.

The contract under test is the serving layer's three invariants —
no crash, exactly one response per submitted query, and SHA parity with
fault-free single-source runs for every success — plus the unit
behavior of the pieces: the bounded :class:`AdmissionQueue` (shed
policy, priority displacement, deadline expiry in the queue) and the
:class:`CircuitBreaker` state machine.
"""

import contextlib
import hashlib

import numpy as np
import pytest

from repro.core.runtime import adaptive_run
from repro.errors import MemoryFaultError, ReproError, RuntimeConfigError
from repro.obs import Observer, RunManifest, observing
from repro.reliability import CircuitBreaker, FaultInjector, FaultPlan
from repro.serve import (
    AdmissionQueue,
    BatchQuery,
    GraphSession,
    ServeLoop,
)


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


class _OneShotFault:
    """A frame fault hook that ejects exactly the first row it sees."""

    def __init__(self, count: int = 1):
        self.remaining = count

    def installed(self):
        return contextlib.nullcontext()

    def on_iteration(self, iteration, values, frontier):
        if self.remaining > 0:
            self.remaining -= 1
            raise MemoryFaultError("test fault: scripted one-shot")


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------

class TestAdmissionQueue:
    def test_capacity_validation(self):
        with pytest.raises(RuntimeConfigError):
            AdmissionQueue(capacity=0)

    def test_offer_within_capacity_admits_and_arms(self):
        queue = AdmissionQueue(capacity=2)
        outcome = queue.offer(BatchQuery("bfs", 0), line=1, deadline_s=5.0)
        assert outcome.admitted is not None and outcome.shed is None
        assert outcome.admitted.watchdog.armed
        assert outcome.admitted.deadline_s == 5.0
        assert len(queue) == 1

    def test_full_queue_sheds_newcomer_on_priority_tie(self):
        queue = AdmissionQueue(capacity=1)
        first = queue.offer(BatchQuery("bfs", 0), line=1).admitted
        outcome = queue.offer(BatchQuery("bfs", 1), line=2)
        assert outcome.admitted is None
        assert outcome.shed is not None and outcome.shed.line == 2
        assert not outcome.shed.watchdog.armed
        assert queue.pop(1) == [first]
        assert queue.shed_total == 1

    def test_higher_priority_displaces_lowest(self):
        queue = AdmissionQueue(capacity=1)
        queue.offer(BatchQuery("bfs", 0, priority=0), line=1)
        outcome = queue.offer(BatchQuery("bfs", 1, priority=2), line=2)
        assert outcome.admitted is not None and outcome.admitted.line == 2
        assert outcome.shed is not None and outcome.shed.line == 1
        assert [e.line for e in queue.pop(5)] == [2]

    def test_pop_orders_by_priority_then_fifo(self):
        queue = AdmissionQueue(capacity=8)
        for i, prio in enumerate([0, 2, 1, 2, 0], start=1):
            queue.offer(BatchQuery("bfs", i, priority=prio), line=i)
        assert [e.line for e in queue.pop(5)] == [2, 4, 3, 1, 5]
        assert len(queue) == 0

    def test_expire_overdue_removes_expired_only(self):
        now = [0.0]
        queue = AdmissionQueue(capacity=4, clock=lambda: now[0])
        queue.offer(BatchQuery("bfs", 0), line=1, deadline_s=1.0)
        queue.offer(BatchQuery("bfs", 1), line=2, deadline_s=10.0)
        queue.offer(BatchQuery("bfs", 2), line=3)  # no deadline
        now[0] = 2.0
        overdue = queue.expire_overdue()
        assert [e.line for e in overdue] == [1]
        assert len(queue) == 2

    def test_expire_overdue_returns_or_keeps_every_entry(self):
        # A clock that moves on with every read, so a deadline can lapse
        # while expire_overdue scans the queue.
        now, step = [0.0], [0.0]

        def clock():
            now[0] += step[0]
            return now[0]

        queue = AdmissionQueue(capacity=4, clock=clock)
        queue.offer(BatchQuery("bfs", 0), line=1, deadline_s=1.0)
        now[0] = 0.5
        queue.offer(BatchQuery("bfs", 1), line=2, deadline_s=1.0)
        now[0], step[0] = 1.0, 0.2
        expired = [e.line for e in queue.expire_overdue()]
        kept = [e.line for e in queue.pop(4)]
        assert expired == [1]
        assert sorted(expired + kept) == [1, 2]

    def test_metrics_reported_to_observer(self):
        observer = Observer()
        with observing(observer):
            queue = AdmissionQueue(capacity=1)
            queue.offer(BatchQuery("bfs", 0), line=1)
            queue.offer(BatchQuery("bfs", 1), line=2)
        snap = observer.metrics.snapshot()
        assert snap["serve.admitted"]["value"] == 1
        assert snap["serve.shed"]["value"] == 1
        assert snap["serve.queue_depth"]["max"] == 1


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(RuntimeConfigError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(RuntimeConfigError):
            CircuitBreaker(cooldown_s=-1)
        with pytest.raises(RuntimeConfigError):
            CircuitBreaker(cooldown_probes=0)

    def test_closed_allows_and_success_resets_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        key = ("batch", "bfs", "adaptive")
        assert breaker.allow(key)
        breaker.record_failure(key)
        breaker.record_success(key)
        breaker.record_failure(key)
        assert breaker.state(key) == "closed"

    def test_trips_after_threshold_and_short_circuits(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=1000.0,
                                 cooldown_probes=None)
        key = ("batch", "sssp", "U_T_BM")
        assert not breaker.record_failure(key)
        assert breaker.record_failure(key)  # trips here
        assert breaker.state(key) == "open"
        assert not breaker.allow(key)
        assert not breaker.allow(key)
        assert breaker.total_trips == 1
        assert breaker.total_short_circuits == 2

    def test_half_open_probe_success_closes(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=lambda: now[0])
        key = "path"
        breaker.record_failure(key)
        assert not breaker.allow(key)
        now[0] = 6.0
        assert breaker.state(key) == "half_open"
        assert breaker.allow(key)      # the single probe
        assert not breaker.allow(key)  # a second concurrent probe is denied
        breaker.record_success(key)
        assert breaker.state(key) == "closed"
        assert breaker.allow(key)

    def test_half_open_probe_failure_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=5.0,
                                 clock=lambda: now[0])
        key = "path"
        for _ in range(3):
            breaker.record_failure(key)
        now[0] = 10.0
        assert breaker.allow(key)
        assert breaker.record_failure(key)  # re-trips immediately
        assert breaker.state(key) == "open"
        assert breaker.total_trips == 2

    def test_denied_probes_reach_half_open_without_wall_time(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1e9,
                                 cooldown_probes=2)
        key = "path"
        breaker.record_failure(key)
        assert not breaker.allow(key)
        assert not breaker.allow(key)
        # Two denials burned the probe budget: next request probes.
        assert breaker.allow(key)

    def test_snapshot_shape_and_metrics(self):
        observer = Observer()
        with observing(observer):
            breaker = CircuitBreaker(failure_threshold=1)
            breaker.record_failure(("batch", "bfs", "adaptive"))
            breaker.allow(("batch", "bfs", "adaptive"))
        snap = breaker.snapshot()
        assert snap["batch/bfs/adaptive"]["state"] == "open"
        assert snap["batch/bfs/adaptive"]["trips"] == 1
        metrics = observer.metrics.snapshot()
        assert metrics["breaker.trips"]["value"] == 1
        assert metrics["breaker.short_circuits"]["value"] == 1
        assert metrics["breaker.open_circuits"]["max"] == 1

    def test_transition_log_names_path_and_cause(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=lambda: now[0])
        key = ("batch", "bfs", "adaptive")
        breaker.record_failure(key)        # closed -> open
        now[0] = 6.0
        assert breaker.allow(key)          # open -> half_open (probe)
        breaker.record_success(key)        # half_open -> closed
        log = breaker.transition_log()
        assert [(m["from"], m["to"], m["cause"]) for m in log] == [
            ("closed", "open", "trip"),
            ("open", "half_open", "cooldown"),
            ("half_open", "closed", "reset"),
        ]
        assert all(m["key"] == "batch/bfs/adaptive" for m in log)
        # the log is a snapshot, not a live view
        log.clear()
        assert len(breaker.transition_log()) == 3

    def test_serve_report_carries_transitions(self, random_weighted):
        session = GraphSession(random_weighted)
        loop = ServeLoop(session, max_batch_rows=2)
        loop.breaker.failure_threshold = 1
        loop.breaker.record_failure(("batch", "bfs", "adaptive"))
        report = loop.finalize()
        assert report.breaker_transitions
        move = report.breaker_transitions[0]
        assert move["to"] == "open" and move["cause"] == "trip"
        doc = report.result_dict()
        assert doc["breaker_transitions"] == report.breaker_transitions


# ----------------------------------------------------------------------
# The serve loop
# ----------------------------------------------------------------------

class TestServeLoopHappyPath:
    def test_continuous_parity_with_single_source(self, random_weighted):
        session = GraphSession(random_weighted)
        loop = ServeLoop(session, max_batch_rows=4)
        specs = [("bfs", 0), ("sssp", 3), ("bfs", 7), ("sssp", 11)]
        for i, (algorithm, source) in enumerate(specs, start=1):
            loop.submit(BatchQuery(algorithm, source), line=i)
        loop.drain()
        responses = {r["line"]: r for r in loop.take_responses()}
        assert len(responses) == len(specs)
        for i, (algorithm, source) in enumerate(specs, start=1):
            doc = responses[i]
            assert doc["ok"] and doc["path"] == "batch"
            single = adaptive_run(random_weighted, algorithm, source)
            assert doc["values_sha256"] == _sha(single.values)
            assert doc["latency_sim_s"] > 0.0

    def test_queries_join_a_running_frame(self, random_graph):
        session = GraphSession(random_graph)
        loop = ServeLoop(session, max_batch_rows=8)
        loop.submit(BatchQuery("bfs", 0), line=1)
        loop.pump()  # frame is now mid-flight
        assert loop.busy
        loop.submit(BatchQuery("bfs", 5), line=2)
        loop.drain()
        responses = loop.take_responses()
        assert sorted(r["line"] for r in responses) == [1, 2]
        assert all(r["ok"] for r in responses)
        # Both rode the same frame: one h2d of the graph, shared passes.
        assert loop.report.fallbacks == 0

    def test_drain_scheduler_answers_everything(self, random_graph):
        session = GraphSession(random_graph)
        loop = ServeLoop(session, scheduler="drain", max_batch_rows=2)
        for i in range(5):
            loop.submit(BatchQuery("bfs", i), line=i + 1)
        loop.drain()
        responses = loop.take_responses()
        assert len(responses) == 5 and all(r["ok"] for r in responses)

    def test_unbatchable_mode_routes_to_fallback(self, random_weighted):
        session = GraphSession(random_weighted)
        loop = ServeLoop(session)
        loop.submit(BatchQuery("sssp", 2, mode="O_B_QU"), line=1)
        loop.drain()
        (doc,) = loop.take_responses()
        assert doc["ok"] and doc["path"] == "fallback"
        assert loop.report.fallbacks == 1

    def test_unknown_algorithm_is_explicit_error(self, random_graph):
        loop = ServeLoop(GraphSession(random_graph))
        loop.submit(BatchQuery("nope", 0), line=1)
        loop.drain()
        (doc,) = loop.take_responses()
        assert not doc["ok"] and doc["path"] == "error"
        assert "unknown algorithm" in doc["error"]

    def test_invalid_scheduler_rejected(self, random_graph):
        with pytest.raises(ReproError):
            ServeLoop(GraphSession(random_graph), scheduler="magic")


class TestServeLoopBackpressure:
    def test_overload_sheds_with_explicit_responses(self, random_graph):
        session = GraphSession(random_graph)
        loop = ServeLoop(session, queue_capacity=2, max_batch_rows=2)
        for i in range(6):
            loop.submit(BatchQuery("bfs", i), line=i + 1)
        loop.drain()
        responses = loop.take_responses()
        assert len(responses) == 6  # exactly once, shed included
        shed = [r for r in responses if r["path"] == "shed"]
        served = [r for r in responses if r["ok"]]
        assert len(shed) == 4 and len(served) == 2
        assert all("queue full" in r["error"] for r in shed)
        report = loop.finalize()
        assert report.shed == 4 and report.answered == 6

    def test_priority_wins_a_full_queue(self, random_graph):
        session = GraphSession(random_graph)
        loop = ServeLoop(session, queue_capacity=1)
        loop.submit(BatchQuery("bfs", 0, priority=0), line=1)
        loop.submit(BatchQuery("bfs", 1, priority=5), line=2)
        loop.drain()
        responses = {r["line"]: r for r in loop.take_responses()}
        assert responses[1]["path"] == "shed"
        assert responses[2]["ok"]


class TestServeLoopDeadlines:
    def test_queue_wait_burns_deadline(self, random_graph):
        now = [0.0]
        session = GraphSession(random_graph)
        loop = ServeLoop(session, clock=lambda: now[0])
        loop.submit(BatchQuery("bfs", 0, deadline_s=1.0), line=1)
        now[0] = 5.0  # deadline expires while queued
        loop.drain()
        (doc,) = loop.take_responses()
        assert not doc["ok"] and doc["path"] == "deadline"
        assert loop.report.deadline_misses == 1

    def test_default_deadline_applies(self, random_graph):
        now = [0.0]
        session = GraphSession(random_graph)
        loop = ServeLoop(
            session, default_deadline_s=1.0, clock=lambda: now[0]
        )
        loop.submit(BatchQuery("bfs", 0), line=1)
        now[0] = 2.0
        loop.drain()
        (doc,) = loop.take_responses()
        assert doc["path"] == "deadline"

    def test_generous_deadline_answers_normally(self, random_graph):
        session = GraphSession(random_graph)
        loop = ServeLoop(session, default_deadline_s=3600.0)
        loop.submit(BatchQuery("bfs", 0), line=1)
        loop.drain()
        (doc,) = loop.take_responses()
        assert doc["ok"] and doc["path"] == "batch"


class TestServeLoopFaultIsolation:
    def test_ejected_row_falls_back_others_unaffected(self, random_graph):
        session = GraphSession(random_graph)
        reference = {
            s: _sha(adaptive_run(random_graph, "bfs", s).values)
            for s in (0, 5, 9)
        }
        loop = ServeLoop(
            session, max_batch_rows=4, fault_injector=_OneShotFault(1)
        )
        for i, s in enumerate((0, 5, 9), start=1):
            loop.submit(BatchQuery("bfs", s), line=i)
        loop.drain()
        responses = {r["line"]: r for r in loop.take_responses()}
        assert len(responses) == 3
        # Everyone answers ok — the ejected row via the fallback — and
        # every answer matches the fault-free single-source run.
        paths = sorted(r["path"] for r in responses.values())
        assert paths == ["batch", "batch", "fallback"]
        for i, s in enumerate((0, 5, 9), start=1):
            assert responses[i]["ok"]
            assert responses[i]["values_sha256"] == reference[s]
        assert loop.report.rows_ejected == 1

    def test_seeded_injector_preserves_parity(self, random_weighted):
        session = GraphSession(random_weighted)
        plan = FaultPlan(seed=13, memory_fault_rate=0.2, max_faults=4)
        loop = ServeLoop(
            session, max_batch_rows=4, fault_injector=FaultInjector(plan)
        )
        sources = (0, 3, 6, 9, 12, 15)
        for i, s in enumerate(sources, start=1):
            loop.submit(BatchQuery("sssp", s), line=i)
        loop.drain()
        responses = {r["line"]: r for r in loop.take_responses()}
        assert len(responses) == len(sources)
        for i, s in enumerate(sources, start=1):
            doc = responses[i]
            assert doc["ok"], doc.get("error")
            single = adaptive_run(random_weighted, "sssp", s)
            assert doc["values_sha256"] == _sha(single.values)

    def test_breaker_opens_batch_path_after_repeated_faults(
        self, random_graph
    ):
        session = GraphSession(random_graph)
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=1e9,
                                 cooldown_probes=None)
        loop = ServeLoop(
            session,
            max_batch_rows=1,
            fault_injector=_OneShotFault(count=10_000),
            breaker=breaker,
        )
        for i in range(4):
            loop.submit(BatchQuery("bfs", i), line=i + 1)
            loop.drain()
        responses = loop.take_responses()
        assert len(responses) == 4
        key = ("batch", "bfs", "adaptive")
        assert breaker.state(key) == "open"
        # After the trip, queries skip the batch path entirely.
        assert loop.report.rows_ejected == 2
        assert loop.report.fallbacks == 4


class TestServeLoopManifest:
    def test_manifest_round_trips(self, random_graph):
        observer = Observer()
        with observing(observer):
            session = GraphSession(random_graph)
            loop = ServeLoop(session, queue_capacity=2)
            for i in range(4):
                loop.submit(BatchQuery("bfs", i), line=i + 1)
            loop.drain()
            loop.take_responses()
            manifest = loop.to_manifest(observer=observer)
        assert manifest.algorithm == "serve" and manifest.mode == "serve"
        result = manifest.result
        assert result["kind"] == "serve"
        assert result["answered"] == 4
        assert result["shed"] == 2
        assert "p99" in result["latency_sim_s"]
        assert "breaker" in result
        assert manifest.metrics["serve.answered"]["value"] == 4
        assert RunManifest.from_dict(manifest.to_dict()) == manifest
