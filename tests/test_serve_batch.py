"""Tests for the serving layer: repro.serve sessions, the batch
runner's routing/isolation, and the batch manifest."""

import hashlib
import json

import numpy as np
import pytest

from repro.core.config import RuntimeConfig
from repro.core.runtime import adaptive_run
from repro.errors import RuntimeConfigError
from repro.gpusim.device import TESLA_C2070
from repro.graph.generators import attach_uniform_weights, erdos_renyi_graph
from repro.obs import Observer, RunManifest, observing
from repro.obs.manifest import graph_fingerprint
from repro.reliability import guarded_query
from repro.serve import (
    BatchQuery,
    BatchRunner,
    GraphSession,
    load_queries_jsonl,
)


def _sha(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _graph(seed=7):
    return erdos_renyi_graph(200, 900, seed=seed)


class TestBatchQuery:
    def test_from_dict_defaults(self):
        q = BatchQuery.from_dict({"source": 5})
        assert (q.algorithm, q.source, q.mode) == ("bfs", 5, "adaptive")

    def test_round_trip(self):
        q = BatchQuery("sssp", 9, "U_T_BM")
        assert BatchQuery.from_dict(q.to_dict()) == q

    def test_rejects_unknown_fields(self):
        with pytest.raises(RuntimeConfigError, match="unknown"):
            BatchQuery.from_dict({"source": 1, "target": 2})

    def test_requires_source(self):
        with pytest.raises(RuntimeConfigError, match="source"):
            BatchQuery.from_dict({"algorithm": "bfs"})

    @pytest.mark.parametrize("bad", ["5", 5.0, True, None])
    def test_rejects_non_integer_source(self, bad):
        with pytest.raises(RuntimeConfigError, match="integer"):
            BatchQuery.from_dict({"source": bad})


class TestLoadQueriesJsonl:
    def test_loads_queries_skipping_blank_lines(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"source": 1}\n\n{"source": 2, "algorithm": "sssp"}\n')
        queries = load_queries_jsonl(path)
        assert [q.source for q in queries] == [1, 2]
        assert queries[1].algorithm == "sssp"

    def test_bad_json_names_the_line(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"source": 1}\nnot json\n')
        with pytest.raises(RuntimeConfigError, match=":2:"):
            load_queries_jsonl(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(RuntimeConfigError, match="JSON object"):
            load_queries_jsonl(path)

    def test_bad_query_names_the_line(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"source": 1}\n{"algorithm": "bfs"}\n')
        with pytest.raises(RuntimeConfigError, match=":2:"):
            load_queries_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text("\n\n")
        with pytest.raises(RuntimeConfigError, match="no queries"):
            load_queries_jsonl(path)


class TestGraphSession:
    def test_caches_query_independent_artifacts(self):
        graph = _graph()
        session = GraphSession(graph)
        assert session.digest == graph_fingerprint(graph)["digest"]
        assert session.num_nodes == 200
        assert session.config == RuntimeConfig()
        assert session.device is TESLA_C2070

    def test_holds_the_transpose(self):
        session = GraphSession(_graph(seed=1))
        assert session.graph._reverse is not None


class TestBatchRunner:
    @pytest.fixture
    def runner(self):
        graph = attach_uniform_weights(_graph(), seed=8)
        return BatchRunner(GraphSession(graph))

    def test_batched_parity_with_single_source(self, runner):
        batch = runner.run([BatchQuery("bfs", 3), BatchQuery("sssp", 3)])
        assert batch.ok_count == 2
        assert all(q.batched for q in batch.queries)
        graph = runner.session.graph
        for result, algorithm in zip(batch.queries, ("bfs", "sssp")):
            single = adaptive_run(graph, algorithm, 3)
            assert result.values_sha256 == _sha(single.values)

    def test_ordered_mode_falls_back(self, runner):
        batch = runner.run([BatchQuery("sssp", 0, "O_T_QU")])
        (result,) = batch.queries
        assert result.ok and not result.batched
        assert batch.fallback_seconds > 0 and batch.batch_seconds == 0

    def test_failures_are_isolated(self, runner):
        batch = runner.run(
            [
                {"algorithm": "bfs", "source": 0},
                {"algorithm": "teleport", "source": 0},
                {"algorithm": "bfs", "source": 9_999},
                {"algorithm": "bfs", "source": 1},
            ]
        )
        ok0, unknown, bad_source, ok1 = batch.queries
        assert ok0.ok and ok1.ok
        assert not unknown.ok and "teleport" in unknown.error
        assert not bad_source.ok and "9999" in bad_source.error
        assert batch.ok_count == 2

    def test_amortization_stats_and_digest(self, runner):
        batch = runner.run([BatchQuery("bfs", s) for s in (0, 7, 50, 120)])
        assert batch.graph_digest == runner.session.digest
        assert batch.launches_saved > 0
        assert batch.readbacks_saved > 0
        assert batch.super_iterations > 0
        doc = batch.result_dict()
        assert doc["kind"] == "batch"
        assert doc["ok"] == 4 and len(doc["queries"]) == 4

    def test_manifest_round_trips(self, runner):
        observer = Observer()
        with observing(observer):
            batch = runner.run([BatchQuery("bfs", 0), BatchQuery("sssp", 5)])
        manifest = runner.to_manifest(batch, observer=observer)
        doc = manifest.to_dict()
        restored = RunManifest.from_dict(json.loads(json.dumps(doc)))
        assert restored.algorithm == "batch"
        assert restored.mode == "batch"
        assert restored.source == -1
        assert restored.result["num_queries"] == 2
        # Per-query decision traces survive, tagged with their query.
        indices = {d["query_index"] for d in restored.decisions}
        assert indices == {0, 1}


class TestGuardedQuery:
    def test_passes_result_through(self):
        result, error = guarded_query(lambda: 42)
        assert (result, error) == (42, None)

    def test_isolates_repro_errors(self):
        def boom():
            raise RuntimeConfigError("bad request")

        observer = Observer()
        with observing(observer):
            result, error = guarded_query(boom, label="query 3")
        assert result is None
        assert "query 3" in error and "bad request" in error
        assert observer.metrics.snapshot()["guard.query_failures"]["value"] == 1

    def test_bugs_still_propagate(self):
        def bug():
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            guarded_query(bug)
