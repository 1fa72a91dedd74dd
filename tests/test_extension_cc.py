"""Tests for the connected-components extension (CPU baseline + GPU
label propagation + adaptive runtime)."""

import numpy as np
import pytest

from repro import Graph, adaptive_run, run_static
from repro.cpu import cpu_connected_components
from repro.errors import KernelError
from repro.graph.builder import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    balanced_tree,
    chain_graph,
    erdos_renyi_graph,
    star_graph,
)
from repro.graph.transforms import weakly_connected_components
from repro.kernels import unordered_variants


@pytest.fixture
def multi_component():
    # Three components: a chain 0-1-2-3, a pair 4-5, an isolated 6.
    return from_edge_list([0, 1, 2, 4], [1, 2, 3, 5], num_nodes=7, symmetric=True)


class TestCpuCc:
    def test_labels_are_component_minima(self, multi_component):
        r = cpu_connected_components(multi_component)
        assert r.labels.tolist() == [0, 0, 0, 0, 4, 4, 6]
        assert r.num_components == 3

    def test_matches_label_propagation_oracle(self):
        g = erdos_renyi_graph(300, 250, seed=7)
        r = cpu_connected_components(g)
        assert np.array_equal(r.labels, weakly_connected_components(g))

    def test_matches_networkx(self):
        import networkx as nx

        from repro.graph.builder import to_networkx

        g = erdos_renyi_graph(200, 150, seed=8)
        r = cpu_connected_components(g)
        assert r.num_components == nx.number_weakly_connected_components(
            to_networkx(g)
        )

    def test_direction_ignored(self):
        g = from_edge_list([0, 2], [1, 1], num_nodes=3)  # 0->1<-2
        assert cpu_connected_components(g).num_components == 1

    def test_empty_graph(self):
        r = cpu_connected_components(CSRGraph.empty(0))
        assert r.num_components == 0

    def test_no_edges(self):
        r = cpu_connected_components(CSRGraph.empty(5))
        assert r.num_components == 5
        assert r.seconds > 0

    def test_operation_counts_positive(self):
        g = chain_graph(50)
        r = cpu_connected_components(g)
        assert r.union_operations == 49
        assert r.find_operations > 0


class TestGpuCc:
    @pytest.mark.parametrize("code", [v.code for v in unordered_variants()])
    def test_all_variants_correct(self, code, multi_component):
        r = run_static(multi_component, -1, "cc", code)
        assert r.values.tolist() == [0, 0, 0, 0, 4, 4, 6]

    def test_directed_input_symmetrized(self):
        g = from_edge_list([0, 2], [1, 1], num_nodes=3)
        r = run_static(g, -1, "cc", "U_T_BM")
        assert r.values.tolist() == [0, 0, 0]

    def test_random_graph_matches_cpu(self):
        g = erdos_renyi_graph(400, 350, seed=9)
        oracle = cpu_connected_components(g).labels
        for code in ("U_T_BM", "U_B_QU", "U_W_QU"):
            assert np.array_equal(run_static(g, -1, "cc", code).values, oracle), code

    def test_initial_workset_is_all_nodes(self):
        g = chain_graph(64)
        r = run_static(g, -1, "cc", "U_T_BM")
        assert r.iterations[0].workset_size == 64

    def test_iterations_bounded_by_pointer_halving(self):
        # Min-label propagation converges in O(diameter) sweeps.
        g = chain_graph(100)
        r = run_static(g, -1, "cc", "U_B_QU")
        assert r.num_iterations <= 101

    def test_star_converges_fast(self):
        r = run_static(star_graph(500), -1, "cc", "U_T_BM")
        assert r.num_iterations <= 3

    def test_max_iterations(self):
        with pytest.raises(KernelError, match="exceeded"):
            run_static(chain_graph(100), -1, "cc", "U_T_BM", max_iterations=2)

    def test_algorithm_tag(self):
        r = run_static(balanced_tree(2, 4), -1, "cc", "U_T_QU")
        assert r.algorithm == "cc"
        assert r.source == -1


class TestAdaptiveCc:
    def test_correct(self, multi_component):
        r = adaptive_run(multi_component, "cc")
        assert r.values.tolist() == [0, 0, 0, 0, 4, 4, 6]

    def test_large_graph_switches_representation(self):
        g = erdos_renyi_graph(60_000, 200_000, seed=10)
        r = adaptive_run(g, "cc")
        oracle = weakly_connected_components(g)
        assert np.array_equal(r.values, oracle)
        # CC starts with all nodes active -> bitmap region first, then
        # drains into the queue region: the reverse BFS trajectory.
        first = r.iterations[0].variant
        assert first.endswith("BM")
        assert r.trace.num_switches >= 1

    def test_graph_api(self):
        g = Graph.from_edges([(0, 1), (2, 3)], num_nodes=4, symmetric=True)
        r = g.connected_components()
        assert r.values.tolist() == [0, 0, 2, 2]

    def test_graph_api_static_mode(self):
        g = Graph.from_edges([(0, 1)], num_nodes=3, symmetric=True)
        r = g.connected_components(mode="U_B_QU")
        assert r.values.tolist() == [0, 0, 2]


class TestObservedCc:
    def test_run_cc_accepts_observe(self):
        from repro.obs import Observer, observing

        g = erdos_renyi_graph(800, 4000, seed=4)
        observer = Observer()
        with observing(observer):
            result = run_static(g, -1, "cc", "U_T_BM")
        snap = observer.metrics.snapshot()
        assert snap["frame.iterations"]["value"] == result.num_iterations
        assert snap["gpusim.kernel_launches"]["value"] > 0

    def test_observation_does_not_change_result(self):
        from repro.obs import Observer, observing

        g = erdos_renyi_graph(800, 4000, seed=4)
        plain = run_static(g, -1, "cc", "U_B_QU")
        with observing(Observer()):
            observed = run_static(g, -1, "cc", "U_B_QU")
        assert np.array_equal(plain.values, observed.values)
        assert plain.total_seconds == observed.total_seconds
