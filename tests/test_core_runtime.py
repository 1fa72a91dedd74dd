"""Tests for repro.core.runtime and repro.core.api (end-to-end adaptive
behaviour on small graphs)."""

import numpy as np
import pytest

from repro.core import Graph, RuntimeConfig, adaptive_run, run_static
from repro.cpu import cpu_bfs, cpu_dijkstra
from repro.errors import GraphError, KernelError
from repro.graph.generators import (
    attach_uniform_weights,
    erdos_renyi_graph,
    power_law_graph,
)


@pytest.fixture
def medium_graph():
    return erdos_renyi_graph(3000, 15_000, seed=5)


@pytest.fixture
def medium_weighted(medium_graph):
    return attach_uniform_weights(medium_graph, seed=6)


class TestAdaptiveBfs:
    def test_correct_levels(self, medium_graph):
        result = adaptive_run(medium_graph, "bfs", 0)
        oracle = cpu_bfs(medium_graph, 0)
        assert np.array_equal(result.values, oracle.levels)

    def test_trace_populated(self, medium_graph):
        result = adaptive_run(medium_graph, "bfs", 0)
        assert result.trace.num_decisions >= 1
        assert result.num_iterations >= 1
        assert result.total_seconds > 0

    def test_thresholds_resolved(self, medium_graph):
        result = adaptive_run(medium_graph, "bfs", 0)
        assert result.thresholds.t1 == 32.0
        assert result.thresholds.t2 == 2688

    def test_starts_with_b_qu(self, medium_graph):
        # The working set starts at one node: the small-ws region.
        result = adaptive_run(medium_graph, "bfs", 0)
        first = result.iterations[0]
        assert first.variant == "U_B_QU"

    def test_config_respected(self, medium_graph):
        cfg = RuntimeConfig(t2=0, t3_fraction=1.0)  # forces the queue band
        result = adaptive_run(medium_graph, "bfs", 0, config=cfg)
        used = set(result.variants_used())
        assert used <= {"U_T_QU", "U_B_QU"}


class TestAdaptiveSssp:
    def test_correct_distances(self, medium_weighted):
        result = adaptive_run(medium_weighted, "sssp", 0)
        oracle = cpu_dijkstra(medium_weighted, 0)
        assert np.allclose(result.values, oracle.distances)

    def test_switches_on_ramping_workset(self):
        # A larger graph whose frontier ramps past the thresholds.
        g = attach_uniform_weights(
            power_law_graph(60_000, alpha=1.9, max_degree=300, seed=7), seed=8
        )
        result = adaptive_run(g, "sssp", int(np.argmax(g.out_degrees)))
        assert result.trace.num_switches >= 1
        assert len(result.variants_used()) >= 2

    def test_unordered_only(self, medium_weighted):
        result = adaptive_run(medium_weighted, "sssp", 0)
        assert all(code.startswith("U_") for code in result.variants_used())


class TestRunStatic:
    def test_bfs_dispatch(self, medium_graph):
        r = run_static(medium_graph, 0, "bfs", "U_T_BM")
        assert np.array_equal(r.values, cpu_bfs(medium_graph, 0).levels)

    def test_sssp_dispatch(self, medium_weighted):
        r = run_static(medium_weighted, 0, "sssp", "U_B_QU")
        assert np.allclose(r.values, cpu_dijkstra(medium_weighted, 0).distances)

    def test_registry_dispatch(self, medium_graph):
        # Registered extension algorithms dispatch through run_static too.
        from repro.cpu import cpu_connected_components

        r = run_static(medium_graph, 0, "cc", "U_T_BM")
        assert np.array_equal(r.values, cpu_connected_components(medium_graph).labels)

    def test_unknown_algorithm(self, medium_graph):
        with pytest.raises(KernelError, match="unknown algorithm"):
            run_static(medium_graph, 0, "tricount", "U_T_BM")

    def test_variantless_algorithm_rejected(self, medium_graph):
        with pytest.raises(KernelError, match="static"):
            run_static(medium_graph, 0, "dobfs", "U_T_BM")


class TestGraphApi:
    def test_from_edges_and_bfs(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)], num_nodes=4)
        result = g.bfs(source=0)
        assert result.values.tolist() == [0, 1, 2, 3]

    def test_bfs_static_mode(self):
        g = Graph.from_edges([(0, 1), (1, 2)], num_nodes=3)
        result = g.bfs(source=0, mode="U_B_QU")
        assert result.policy_name == "U_B_QU"

    def test_sssp_requires_weights(self):
        g = Graph.from_edges([(0, 1)], num_nodes=2)
        with pytest.raises(GraphError, match="weights"):
            g.sssp(source=0)

    def test_with_random_weights(self):
        g = Graph.from_edges([(0, 1), (1, 2)], num_nodes=3).with_random_weights(seed=1)
        result = g.sssp(source=0)
        assert np.isfinite(result.values[2])

    def test_symmetric_construction(self):
        g = Graph.from_edges([(0, 1)], num_nodes=2, symmetric=True)
        assert g.num_edges == 2

    def test_properties(self):
        g = Graph.from_edges([(0, 1), (0, 2)], num_nodes=3)
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert g.avg_out_degree == pytest.approx(2 / 3)

    def test_repr(self):
        g = Graph.from_edges([(0, 1)], num_nodes=2)
        assert "Graph(" in repr(g)


class TestAdaptiveVsStaticSanity:
    def test_adaptive_not_catastrophic(self, medium_weighted):
        """Adaptive must stay within 2x of the best unordered static (the
        paper's robustness claim, loosely checked at tiny scale)."""
        from repro.kernels import unordered_variants

        ad = adaptive_run(medium_weighted, "sssp", 0)
        best = min(
            run_static(medium_weighted, 0, "sssp", v).total_seconds
            for v in unordered_variants()
        )
        assert ad.total_seconds <= 2.0 * best


class TestSourceValidation:
    """Regression: an out-of-range source used to surface as a raw
    IndexError (or a silent numpy wraparound for negatives) deep inside
    the kernels instead of one clear GraphError at the entry point."""

    def test_adaptive_rejects_out_of_range(self, medium_graph):
        with pytest.raises(GraphError, match="out of range"):
            adaptive_run(medium_graph, "bfs", medium_graph.num_nodes)

    def test_adaptive_rejects_negative(self, medium_graph):
        with pytest.raises(GraphError, match="out of range"):
            adaptive_run(medium_graph, "bfs", -1)

    def test_run_static_rejects_out_of_range(self, medium_graph):
        with pytest.raises(GraphError, match="out of range"):
            run_static(medium_graph, 10 ** 6, "bfs", "U_T_BM")

    def test_run_static_rejects_negative(self, medium_weighted):
        with pytest.raises(GraphError, match="out of range"):
            run_static(medium_weighted, -3, "sssp", "U_T_QU")
