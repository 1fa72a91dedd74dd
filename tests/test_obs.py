"""Tests for the observability layer: context, metrics, spans, observer."""

import re

import numpy as np
import pytest

from repro.core import adaptive_run, run_static
from repro.graph.generators import balanced_tree, rmat_graph
from repro.obs import (
    METRICS_CATALOG,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observer,
    SpanProfiler,
    current_observer,
    observing,
)
from repro.reliability import resilient_run


# ----------------------------------------------------------------------
# Context
# ----------------------------------------------------------------------

class TestContext:
    def test_default_is_none(self):
        assert current_observer() is None

    def test_observing_installs_and_restores(self):
        observer = Observer()
        with observing(observer):
            assert current_observer() is observer
        assert current_observer() is None

    def test_observing_none_is_noop_scope(self):
        with observing(None):
            assert current_observer() is None

    def test_nested_installs_restore_outer(self):
        outer, inner = Observer(), Observer()
        with observing(outer):
            with observing(inner):
                assert current_observer() is inner
            assert current_observer() is outer
        assert current_observer() is None

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with observing(Observer()):
                raise RuntimeError("boom")
        assert current_observer() is None


# ----------------------------------------------------------------------
# Metrics instruments
# ----------------------------------------------------------------------

class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x.y")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x.y").inc(-1)

    def test_to_dict(self):
        c = Counter("x.y", unit="events")
        c.inc(3)
        assert c.to_dict() == {"kind": "counter", "unit": "events", "value": 3}


class TestGauge:
    def test_tracks_high_water_mark(self):
        g = Gauge("x.y")
        g.set(10)
        g.set(3)
        assert g.value == 3
        assert g.max_value == 10

    def test_to_dict(self):
        g = Gauge("x.y", unit="bytes")
        g.set(7)
        d = g.to_dict()
        assert d["kind"] == "gauge"
        assert d["value"] == 7
        assert d["max"] == 7


class TestHistogram:
    def test_streaming_stats(self):
        h = Histogram("x.y")
        for v in (4, 2, 6):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 12
        assert h.min == 2
        assert h.max == 6
        assert h.mean == 4

    def test_empty_mean_is_zero(self):
        assert Histogram("x.y").mean == 0.0

    def test_to_dict_keys(self):
        h = Histogram("x.y")
        h.observe(1)
        assert set(h.to_dict()) == {
            "kind", "unit", "count", "sum", "min", "max", "mean"
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        a = reg.counter("frame.iterations")
        b = reg.counter("frame.iterations")
        assert a is b
        assert len(reg) == 1

    def test_catalog_unit_applied(self):
        reg = MetricsRegistry()
        assert reg.counter("frame.edges_scanned").unit == "edges"
        assert reg.gauge("memory.peak_bytes").unit == "bytes"

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("my.metric")
        with pytest.raises(ValueError, match="is a counter"):
            reg.gauge("my.metric")

    def test_catalog_kind_enforced(self):
        with pytest.raises(ValueError, match="cataloged as a gauge"):
            MetricsRegistry().counter("memory.peak_bytes")

    @pytest.mark.parametrize(
        "bad", ["", "Frame.iterations", "frame.", ".frame", "frame..x",
                "frame iterations", "1frame.x", "frame.X"]
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValueError, match="bad metric name"):
            MetricsRegistry().counter(bad)

    def test_adhoc_names_allowed(self):
        reg = MetricsRegistry()
        reg.histogram("myexp.batch_size").observe(128)
        assert "myexp.batch_size" in reg

    def test_snapshot_sorted_and_plain(self):
        reg = MetricsRegistry()
        reg.counter("b.x").inc()
        reg.counter("a.x").inc()
        snap = reg.snapshot()
        assert list(snap) == ["a.x", "b.x"]
        assert snap["a.x"]["value"] == 1


class TestCatalog:
    def test_names_unique(self):
        names = [s.name for s in METRICS_CATALOG]
        assert len(names) == len(set(names))

    def test_names_dotted_snake_case(self):
        pattern = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
        for spec in METRICS_CATALOG:
            assert pattern.match(spec.name), spec.name

    def test_kinds_valid(self):
        for spec in METRICS_CATALOG:
            assert spec.kind in ("counter", "gauge", "histogram"), spec.name

    def test_sources_are_real_modules(self):
        import importlib

        for spec in METRICS_CATALOG:
            importlib.import_module(spec.source)

    def test_every_spec_described(self):
        for spec in METRICS_CATALOG:
            assert spec.unit, spec.name
            assert spec.description, spec.name


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class TestSpans:
    def test_nesting_depth_and_close_order(self):
        prof = SpanProfiler()
        with prof.span("outer"):
            with prof.span("inner"):
                pass
        assert [s.name for s in prof.spans] == ["inner", "outer"]
        assert prof.spans[0].depth == 1
        assert prof.spans[1].depth == 0

    def test_open_spans_absorb_sim_advance(self):
        prof = SpanProfiler()
        with prof.span("query"):
            with prof.span("iteration"):
                prof.advance_sim(0.25)
        assert prof.spans[0].sim_seconds == 0.25
        assert prof.spans[1].sim_seconds == 0.25
        assert prof.sim_seconds == 0.25

    def test_sim_start_offsets(self):
        prof = SpanProfiler()
        prof.advance_sim(1.0)
        with prof.span("late"):
            prof.advance_sim(0.5)
        assert prof.spans[0].sim_start == 1.0
        assert prof.spans[0].sim_seconds == 0.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SpanProfiler().advance_sim(-0.1)

    def test_add_span_advances_clock(self):
        prof = SpanProfiler()
        prof.add_span("iteration", sim_seconds=0.1, iteration=0)
        prof.add_span("iteration", sim_seconds=0.2, iteration=1)
        assert prof.sim_seconds == pytest.approx(0.3)
        assert prof.spans[1].sim_start == pytest.approx(0.1)
        assert prof.spans[0].attrs == {"iteration": 0}

    def test_wall_seconds_measured(self):
        prof = SpanProfiler()
        with prof.span("timed"):
            pass
        assert prof.spans[0].wall_seconds >= 0.0

    def test_to_dicts_round(self):
        prof = SpanProfiler()
        with prof.span("a", tag="v"):
            pass
        d = prof.to_dicts()[0]
        assert d["name"] == "a"
        assert d["attrs"] == {"tag": "v"}


# ----------------------------------------------------------------------
# End-to-end instrumentation
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def graph():
    return rmat_graph(8, seed=11)


class TestObservedRuns:
    def test_adaptive_bfs_reports_metrics(self, graph):
        observer = Observer()
        with observing(observer):
            result = adaptive_run(graph, "bfs", 0)
        snap = observer.metrics.snapshot()
        assert snap["frame.iterations"]["value"] == result.num_iterations
        assert snap["runtime.decisions"]["value"] == result.trace.num_decisions
        assert snap["gpusim.kernel_launches"]["value"] > 0
        assert snap["gpusim.kernels_priced"]["value"] > 0
        assert snap["gpusim.simulated_cycles"]["value"] > 0
        assert snap["frame.workset_size"]["count"] == result.num_iterations
        assert (
            snap["frame.edges_scanned"]["value"]
            == result.total_edges_scanned
        )

    def test_adaptive_sssp_reports_metrics(self, graph):
        from repro.graph.generators import attach_uniform_weights

        weighted = attach_uniform_weights(graph, seed=1)
        observer = Observer()
        with observing(observer):
            result = adaptive_run(weighted, "sssp", 0)
        snap = observer.metrics.snapshot()
        assert snap["frame.iterations"]["value"] == result.num_iterations

    def test_spans_cover_the_whole_traversal(self, graph):
        observer = Observer()
        with observing(observer):
            result = adaptive_run(graph, "bfs", 0)
        spans = observer.spans.spans
        names = [s.name for s in spans]
        assert names.count("iteration") == result.num_iterations
        outer = spans[-1]
        assert outer.name == "adaptive_bfs"
        assert outer.depth == 0
        # The outer span absorbs the opening h2d copies plus every
        # iteration's kernels (later copy-backs land after it closes).
        iter_total = sum(s.sim_seconds for s in spans if s.name == "iteration")
        assert iter_total == pytest.approx(
            sum(r.seconds for r in result.iterations)
        )
        assert outer.sim_seconds >= iter_total
        assert outer.sim_seconds <= result.total_seconds + 1e-12

    def test_static_runners_accept_observe(self, graph):
        from repro.graph.generators import attach_uniform_weights

        weighted = attach_uniform_weights(graph, seed=1)
        for algorithm, g in (("bfs", graph), ("sssp", weighted)):
            observer = Observer()
            with observing(observer):
                result = run_static(g, 0, algorithm, "U_T_BM")
            snap = observer.metrics.snapshot()
            assert snap["frame.iterations"]["value"] == result.num_iterations
            assert "runtime.decisions" not in snap  # no decision maker ran

    def test_run_static_has_named_span(self, graph):
        observer = Observer()
        with observing(observer):
            run_static(graph, 0, "bfs", "U_B_QU")
        assert observer.spans.spans[-1].name == "static_bfs"
        assert observer.spans.spans[-1].attrs == {"variant": "U_B_QU"}

    def test_observation_does_not_change_simulation(self, graph):
        base = adaptive_run(graph, "bfs", 0)
        with observing(Observer()):
            observed = adaptive_run(graph, "bfs", 0)
        assert np.array_equal(base.values, observed.values)
        assert base.total_seconds == observed.total_seconds

    def test_no_observer_leaks_after_run(self, graph):
        with observing(Observer()):
            adaptive_run(graph, "bfs", 0)
        assert current_observer() is None

    def test_memory_metrics_with_budget(self, graph):
        from repro.gpusim.allocator import MemoryBudget
        from repro.gpusim.device import TESLA_C2070

        observer = Observer()
        memory = MemoryBudget("128M", device=TESLA_C2070)
        with observing(observer):
            adaptive_run(graph, "bfs", 0, memory=memory)
        snap = observer.metrics.snapshot()
        assert snap["memory.peak_bytes"]["max"] == memory.peak_bytes
        assert snap["memory.current_bytes"]["max"] > 0

    def test_checkpoint_bytes_counted(self):
        from repro.reliability.checkpoint import CheckpointKeeper
        from repro.gpusim.device import TESLA_C2070

        graph = balanced_tree(2, 10)
        observer = Observer()
        keeper = CheckpointKeeper(every=2, device=TESLA_C2070)
        with observing(observer):
            adaptive_run(graph, "bfs", 0, checkpoint_keeper=keeper)
        snap = observer.metrics.snapshot()
        if keeper.saves:
            assert snap["frame.checkpoint_bytes"]["value"] > 0


class TestGuardMetrics:
    def test_clean_run(self, graph):
        observer = Observer()
        with observing(observer):
            result = resilient_run(graph, "bfs", 0)
        snap = observer.metrics.snapshot()
        assert snap["guard.attempts"]["value"] == result.attempts == 1
        assert snap["guard.faults"]["value"] == 0
        assert snap["guard.oom_rung"]["value"] == 0
        assert "guard.cpu_degradations" not in snap

    def test_faulty_run_counts_faults(self, graph):
        from repro.reliability import FaultPlan

        observer = Observer()
        plan = FaultPlan(seed=7, launch_failure_rate=0.4, max_faults=3)
        with observing(observer):
            result = resilient_run(graph, "bfs", 0, plan=plan)
        snap = observer.metrics.snapshot()
        assert snap["guard.attempts"]["value"] == result.attempts
        assert snap["guard.faults"]["value"] == result.num_faults
        assert result.num_faults > 0

    def test_degraded_run_counts_degradation(self, graph):
        from repro.reliability import GuardConfig

        observer = Observer()
        guard = GuardConfig(mem_budget=1024)
        with observing(observer):
            result = resilient_run(graph, "bfs", 0, guard=guard)
        assert result.degraded
        snap = observer.metrics.snapshot()
        assert snap["guard.cpu_degradations"]["value"] == 1
        assert snap["guard.oom_rung"]["value"] == result.oom_rung


class TestObserver:
    def test_bundles_and_to_dict(self):
        observer = Observer()
        observer.metrics.counter("a.b").inc()
        with observer.span("s"):
            pass
        d = observer.to_dict()
        assert d["metrics"]["a.b"]["value"] == 1
        assert d["spans"][0]["name"] == "s"

    def test_repr(self):
        assert "Observer" in repr(Observer())
