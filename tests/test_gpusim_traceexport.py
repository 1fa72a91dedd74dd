"""Tests for the Chrome-trace exporter."""

import json

import pytest

from repro.core import run_static
from repro.gpusim.traceexport import iteration_start_times, timeline_to_trace_events
from repro.graph.generators import balanced_tree
from repro.obs.trace import export_combined_trace


@pytest.fixture(scope="module")
def traversal():
    return run_static(balanced_tree(3, 4), 0, "bfs", "U_B_QU")


class TestTraceEvents:
    def test_metadata_rows(self, traversal):
        events = timeline_to_trace_events(traversal.timeline)
        meta = [e for e in events if e["ph"] == "M"]
        assert len(meta) == 3

    def test_one_duration_event_per_kernel(self, traversal):
        events = timeline_to_trace_events(traversal.timeline)
        kernels = [e for e in events if e["ph"] == "X" and e["tid"] == 1]
        assert len(kernels) == traversal.timeline.num_launches

    def test_transfer_track(self, traversal):
        events = timeline_to_trace_events(traversal.timeline)
        transfers = [e for e in events if e["ph"] == "X" and e["tid"] == 2]
        assert len(transfers) == len(traversal.timeline.transfers)

    def test_events_non_overlapping_in_time(self, traversal):
        events = [
            e
            for e in timeline_to_trace_events(traversal.timeline)
            if e["ph"] == "X" and e["tid"] == 1
        ]
        for a, b in zip(events, events[1:]):
            assert b["ts"] >= a["ts"] + a["dur"] - 1e-9

    def test_total_duration_matches_timeline(self, traversal):
        events = [
            e for e in timeline_to_trace_events(traversal.timeline) if e["ph"] == "X"
        ]
        total_us = sum(e["dur"] for e in events)
        expected = (
            traversal.timeline.gpu_seconds + traversal.timeline.transfer_seconds
        ) * 1e6
        assert total_us == pytest.approx(expected, rel=1e-9)

    def test_iteration_markers(self, traversal):
        events = timeline_to_trace_events(traversal.timeline)
        markers = [e for e in events if e["ph"] == "i"]
        assert len(markers) == traversal.num_iterations

    def test_iteration_markers_have_global_scope(self, traversal):
        # The trace-event spec requires instant events to carry a scope;
        # iteration boundaries span the whole timeline, so "g" (global),
        # which Perfetto renders as a full-height line.
        events = timeline_to_trace_events(traversal.timeline)
        for marker in (e for e in events if e["ph"] == "i"):
            assert marker["s"] == "g"

    def test_iteration_start_times_match_markers(self, traversal):
        # The helper and the exporter must agree on the layout, or
        # decision/fault markers in the combined trace drift off the
        # kernels they annotate.
        starts = iteration_start_times(traversal.timeline)
        assert sorted(starts) == list(range(traversal.num_iterations))
        events = timeline_to_trace_events(traversal.timeline)
        markers = [e for e in events if e["ph"] == "i"]
        for iteration, marker in enumerate(markers):
            assert marker["ts"] == pytest.approx(starts[iteration] * 1e6)
        # Monotonically increasing along the simulated axis.
        ordered = [starts[i] for i in sorted(starts)]
        assert ordered == sorted(ordered)

    def test_kernel_args(self, traversal):
        events = timeline_to_trace_events(traversal.timeline)
        kernel = next(e for e in events if e["ph"] == "X" and e["tid"] == 1)
        for key in ("variant", "blocks", "occupancy", "simt_efficiency"):
            assert key in kernel["args"]


class TestExportFile:
    def test_writes_valid_json(self, traversal, tmp_path):
        path = tmp_path / "trace.json"
        out = export_combined_trace(traversal.timeline, path)
        assert out == str(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert "traceEvents" in doc
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) > 0
