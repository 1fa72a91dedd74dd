"""Tests for run manifests and the combined Perfetto trace."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import RuntimeConfig, adaptive_run, hybrid_run, run_static
from repro.engine.driver import run_frame
from repro.engine.incremental import run_incremental
from repro.engine.types import StaticPolicy, TraversalResult
from repro.graph.dynamic import DeltaOverlayGraph, EdgeBatch
from repro.graph.generators import balanced_tree, rmat_graph, road_network
from repro.gpusim.device import TESLA_C2070
from repro.kernels.frame import BfsSpec
from repro.kernels.variants import Variant
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    Observer,
    RunManifest,
    build_manifest,
    combined_trace_events,
    export_combined_trace,
    graph_fingerprint,
    observing,
)
from repro.obs.trace import TID_DECISIONS, TID_FAULTS, TID_SPANS
from repro.reliability import resilient_run


# ----------------------------------------------------------------------
# Strategies: JSON-shaped manifests
# ----------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
_json_dicts = st.dictionaries(st.text(min_size=1, max_size=12), _scalars,
                              max_size=4)

manifests = st.builds(
    RunManifest,
    schema_version=st.just(MANIFEST_SCHEMA_VERSION),
    algorithm=st.sampled_from(["bfs", "sssp", "bfs_ordered"]),
    mode=st.sampled_from(["adaptive", "resilient", "U_B_QU"]),
    source=st.integers(min_value=-1, max_value=10**6),
    graph=_json_dicts,
    device=_json_dicts,
    config=_json_dicts,
    result=_json_dicts,
    decisions=st.lists(_json_dicts, max_size=3),
    faults=st.lists(_json_dicts, max_size=3),
    metrics=_json_dicts,
    memory=st.one_of(st.none(), _json_dicts),
    spans=st.lists(_json_dicts, max_size=3),
    reliability=st.one_of(st.none(), _json_dicts),
)


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(manifests)
    def test_dict_round_trip_lossless(self, manifest):
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    @settings(max_examples=25, deadline=None)
    @given(manifests)
    def test_json_round_trip_lossless(self, manifest):
        assert RunManifest.from_json(manifest.to_json()) == manifest

    def test_write_read_round_trip(self, tmp_path):
        graph = balanced_tree(2, 8)
        result = adaptive_run(graph, "bfs", 0)
        manifest = build_manifest(
            result, graph=graph, algorithm="bfs", mode="adaptive", source=0
        )
        path = tmp_path / "manifest.json"
        assert manifest.write(path) == str(path)
        assert RunManifest.read(path) == manifest
        # The file is plain, sorted, indented JSON.
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_wrong_schema_version_rejected(self):
        doc = RunManifest(
            schema_version=MANIFEST_SCHEMA_VERSION, algorithm="bfs",
            mode="adaptive", source=0, graph={}, device={}, config={},
            result={},
        ).to_dict()
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            RunManifest.from_dict(doc)

    def test_unknown_fields_rejected(self):
        doc = RunManifest(
            schema_version=MANIFEST_SCHEMA_VERSION, algorithm="bfs",
            mode="adaptive", source=0, graph={}, device={}, config={},
            result={},
        ).to_dict()
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="unknown manifest fields"):
            RunManifest.from_dict(doc)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

class TestFingerprint:
    def test_shape_fields(self):
        graph = rmat_graph(7, seed=3)
        fp = graph_fingerprint(graph)
        assert fp["num_nodes"] == graph.num_nodes
        assert fp["num_edges"] == graph.num_edges
        assert fp["weighted"] is False
        assert len(fp["digest"]) == 32  # blake2b-16 hex

    def test_content_sensitive(self):
        a = graph_fingerprint(rmat_graph(7, seed=3))
        b = graph_fingerprint(rmat_graph(7, seed=4))
        assert a["digest"] != b["digest"]

    def test_deterministic(self):
        a = graph_fingerprint(road_network(100, seed=5))
        b = graph_fingerprint(road_network(100, seed=5))
        assert a == b

    def test_weights_change_digest(self):
        from repro.graph.generators import attach_uniform_weights

        graph = rmat_graph(7, seed=3)
        weighted = attach_uniform_weights(graph, seed=1)
        assert (
            graph_fingerprint(graph)["digest"]
            != graph_fingerprint(weighted)["digest"]
        )

    def test_digest_is_blake2b_of_the_csr_arrays(self):
        from repro.graph.generators import attach_uniform_weights

        for graph in (rmat_graph(7, seed=3),
                      attach_uniform_weights(rmat_graph(7, seed=3), seed=1)):
            h = hashlib.blake2b(digest_size=16)
            for array in (graph.row_offsets, graph.col_indices, graph.weights):
                if array is not None:
                    h.update(array.tobytes())
            assert graph_fingerprint(graph)["digest"] == h.hexdigest()

    def test_each_graph_object_is_hashed_once(self, monkeypatch):
        graph = road_network(100, seed=5)
        twin = road_network(100, seed=5)
        calls = []
        real = hashlib.blake2b

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(hashlib, "blake2b", counting)
        first = graph_fingerprint(graph)
        assert graph_fingerprint(graph) == first
        assert len(calls) == 1
        # Same content, another object: hashed on its own, same digest.
        assert graph_fingerprint(twin)["digest"] == first["digest"]
        assert len(calls) == 2


# ----------------------------------------------------------------------
# build_manifest over the three result shapes
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, seed=21)


class TestBuildManifest:
    def test_from_adaptive_result(self, graph):
        observer = Observer()
        with observing(observer):
            result = adaptive_run(
                graph, "bfs", 0, config=RuntimeConfig(), device=TESLA_C2070
            )
        manifest = build_manifest(
            result, graph=graph, algorithm="bfs", mode="adaptive", source=0,
            device=TESLA_C2070, config=RuntimeConfig(), observer=observer,
        )
        assert manifest.result["iterations"] == result.num_iterations
        assert manifest.result["reached"] == result.reached
        assert len(manifest.decisions) == result.trace.num_decisions
        assert manifest.metrics["frame.iterations"]["value"] == result.num_iterations
        assert manifest.spans, "observer spans should be embedded"
        assert manifest.device["name"] == TESLA_C2070.name
        assert manifest.reliability is None

    def test_from_plain_traversal(self, graph):
        result = run_static(graph, 0, "bfs", "U_B_QU")
        manifest = build_manifest(
            result, graph=graph, algorithm="bfs", mode="U_B_QU", source=0
        )
        assert manifest.result["kernel_launches"] == result.timeline.num_launches
        assert manifest.decisions == []
        assert manifest.metrics == {}

    def test_from_resilient_result(self, graph):
        from repro.reliability import FaultPlan

        observer = Observer()
        plan = FaultPlan(seed=3, launch_failure_rate=0.3, max_faults=2)
        with observing(observer):
            result = resilient_run(graph, "bfs", 0, plan=plan)
        manifest = build_manifest(
            result, graph=graph, algorithm="bfs", mode="resilient", source=0,
            observer=observer,
        )
        assert manifest.reliability is not None
        assert manifest.reliability["attempts"] == result.attempts
        assert len(manifest.faults) == result.num_faults
        assert manifest.metrics["guard.faults"]["value"] == result.num_faults

    def test_manifest_is_json_clean(self, graph):
        observer = Observer()
        with observing(observer):
            result = adaptive_run(graph, "bfs", 0)
        manifest = build_manifest(
            result, graph=graph, algorithm="bfs", mode="adaptive", source=0,
            observer=observer,
        )
        json.dumps(manifest.to_dict())  # must not raise

    def test_static_door_manifest_keeps_its_memory(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        rc = main([
            "run", "--file", "examples/roadnet.snap.txt", "--mode", "U_T_BM",
            "--mem-budget", "64M", "--manifest", str(path),
        ])
        assert rc == 0, capsys.readouterr().err
        doc = json.loads(path.read_text())
        assert doc["memory"] is not None
        assert doc["memory"]["peak_bytes"] > 0

    def test_degraded_run_counts_reached_like_a_gpu_run(self, tmp_path, capsys):
        # A CPU-degraded guarded run reports the nodes its answer reaches,
        # by the rule a GPU-served run of the same query uses.
        workload = ["--dataset", "p2p", "--scale", "0.05"]
        degraded, served = tmp_path / "degraded.json", tmp_path / "served.json"
        rc = main([
            "run", *workload, "--mode", "resilient", "--max-retries", "1",
            "--fault-plan", '{"seed": 1, "launch_failure_rate": 1.0}',
            "--manifest", str(degraded),
        ])
        assert rc == 0, capsys.readouterr().err
        rc = main(["run", *workload, "--manifest", str(served)])
        assert rc == 0, capsys.readouterr().err
        cpu, gpu = (json.loads(p.read_text()) for p in (degraded, served))
        assert cpu["reliability"]["degraded"]
        assert cpu["result"]["values_sha256"] == gpu["result"]["values_sha256"]
        assert cpu["result"]["reached"] == gpu["result"]["reached"]
        assert cpu["result"]["reached"] < cpu["graph"]["num_nodes"]


def _incremental(graph):
    previous = adaptive_run(graph, "bfs", 0)
    overlay = DeltaOverlayGraph(graph)
    delta = overlay.apply(EdgeBatch.inserts([(0, graph.num_nodes - 1)]))
    return run_incremental(overlay.compact().graph, "bfs", previous, delta, source=0)


def _resilient(graph):
    guarded = resilient_run(graph, "bfs", 0)
    assert not guarded.degraded
    return guarded.result


#: every door that runs one traversal on one device
_DOORS = {
    "run_static": lambda g: run_static(g, 0, "bfs", "U_B_QU"),
    "adaptive_run": lambda g: adaptive_run(g, "bfs", 0),
    "hybrid_run": lambda g: hybrid_run(g, "bfs", 0),
    "run_incremental": _incremental,
    "run_frame": lambda g: run_frame(
        g, 0, StaticPolicy(Variant.parse("U_T_BM")), BfsSpec()
    ),
    "resilient_run": _resilient,
}


@pytest.mark.parametrize("door", sorted(_DOORS))
def test_every_single_traversal_door_returns_a_traversal_result(graph, door):
    result = _DOORS[door](graph)
    assert isinstance(result, TraversalResult)
    manifest = build_manifest(result, graph=graph, mode=door)
    assert manifest.result["iterations"] == result.num_iterations
    decisions = result.trace.num_decisions if result.trace is not None else 0
    assert len(manifest.decisions) == decisions


# ----------------------------------------------------------------------
# Combined trace: trace-event schema conformance
# ----------------------------------------------------------------------

_SCOPES = {"g", "p", "t"}


def _assert_valid_trace_events(events):
    for e in events:
        assert isinstance(e, dict)
        assert "ph" in e
        if e["ph"] == "X":
            for key in ("ts", "dur", "pid", "tid", "name"):
                assert key in e, f"X event missing {key}: {e}"
            assert e["dur"] >= 0
        elif e["ph"] == "i":
            assert e["s"] in _SCOPES, e
            for key in ("ts", "pid", "name"):
                assert key in e, f"instant event missing {key}: {e}"
        elif e["ph"] == "M":
            assert e["name"] in ("process_name", "thread_name", "thread_sort_index")
    json.dumps(events)  # serializable


class TestCombinedTrace:
    def test_all_tracks_present_and_valid(self, graph):
        observer = Observer()
        with observing(observer):
            result = adaptive_run(graph, "bfs", 0)
        events = combined_trace_events(
            result.timeline, trace=result.trace, observer=observer
        )
        _assert_valid_trace_events(events)
        tids = {e.get("tid") for e in events}
        assert {1, 2, TID_DECISIONS, TID_SPANS} <= tids
        decisions = [
            e for e in events
            if e.get("tid") == TID_DECISIONS and e["ph"] != "M"
        ]
        assert all(e["ph"] == "i" and e["s"] == "t" for e in decisions)
        assert len(decisions) == result.trace.num_decisions

    def test_fault_track_on_faulty_run(self, graph):
        from repro.reliability import FaultPlan

        observer = Observer()
        plan = FaultPlan(seed=3, launch_failure_rate=0.3, max_faults=2)
        with observing(observer):
            result = resilient_run(graph, "bfs", 0, plan=plan)
        events = combined_trace_events(
            result.result.timeline,
            trace=result.trace,
            observer=observer,
        )
        _assert_valid_trace_events(events)
        faults = [
            e for e in events if e.get("tid") == TID_FAULTS and e["ph"] != "M"
        ]
        assert len(faults) == result.num_faults
        assert all(e["ph"] == "i" and e["s"] == "g" for e in faults)

    def test_degrades_without_trace_or_observer(self, graph):
        result = run_static(graph, 0, "bfs", "U_B_QU")
        events = combined_trace_events(result.timeline)
        _assert_valid_trace_events(events)
        tids = {e.get("tid") for e in events}
        assert TID_DECISIONS not in tids
        assert TID_SPANS not in tids

    def test_span_track_positions_on_sim_axis(self, graph):
        observer = Observer()
        with observing(observer):
            result = adaptive_run(graph, "bfs", 0)
        events = combined_trace_events(
            result.timeline, trace=result.trace, observer=observer
        )
        spans = [e for e in events if e.get("tid") == TID_SPANS and e["ph"] == "X"]
        assert spans
        end = (
            result.timeline.gpu_seconds
            + result.timeline.transfer_seconds
        ) * 1e6
        for e in spans:
            assert 0.0 <= e["ts"] <= end + 1e-6
            assert "wall_us" in e["args"]

    def test_export_writes_valid_doc(self, graph, tmp_path):
        observer = Observer()
        with observing(observer):
            result = adaptive_run(graph, "bfs", 0)
        path = tmp_path / "combined.json"
        out = export_combined_trace(
            result.timeline, path,
            trace=result.trace, observer=observer,
        )
        assert out == str(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["displayTimeUnit"] == "ms"
        _assert_valid_trace_events(doc["traceEvents"])
