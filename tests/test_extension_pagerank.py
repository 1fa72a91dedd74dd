"""Tests for the push-PageRank extension (CPU baseline, GPU kernels,
adaptive runtime)."""

import numpy as np
import pytest

from repro import Graph, adaptive_run, run_static
from repro.cpu import cpu_pagerank
from repro.errors import GraphError, KernelError
from repro.graph.generators import (
    balanced_tree,
    chain_graph,
    erdos_renyi_graph,
    power_law_graph,
    star_graph,
)
from repro.kernels import unordered_variants


class TestCpuPagerank:
    def test_engines_agree(self, random_graph):
        fifo = cpu_pagerank(random_graph, method="fifo")
        fast = cpu_pagerank(random_graph, method="fast")
        # Both stop once every residual is below tolerance, so they agree
        # up to the un-pushed residual mass, O(n x tolerance).
        slack = random_graph.num_nodes * 1e-6
        assert np.abs(fifo.ranks - fast.ranks).max() < slack
        assert abs(fifo.total_mass - fast.total_mass) < slack

    def test_matches_networkx(self):
        import networkx as nx

        from repro.graph.builder import to_networkx

        g = balanced_tree(3, 4)  # symmetric: no dangling nodes
        r = cpu_pagerank(g, tolerance=1e-10)
        nx_pr = nx.pagerank(to_networkx(g), alpha=0.85, tol=1e-10, max_iter=1000)
        ours = r.ranks / r.ranks.sum()
        theirs = np.array([nx_pr[i] for i in range(g.num_nodes)])
        assert np.abs(ours - theirs).max() < 1e-6

    def test_mass_close_to_one(self):
        g = chain_graph(50)
        r = cpu_pagerank(g, tolerance=1e-9)
        assert r.total_mass == pytest.approx(1.0, abs=1e-5)

    def test_hub_ranks_highest(self):
        g = star_graph(100)
        r = cpu_pagerank(g, tolerance=1e-9)
        assert int(np.argmax(r.ranks)) == 0

    def test_rejects_bad_params(self, random_graph):
        with pytest.raises(GraphError):
            cpu_pagerank(random_graph, damping=1.5)
        with pytest.raises(GraphError):
            cpu_pagerank(random_graph, tolerance=0.0)

    def test_unknown_method(self, random_graph):
        with pytest.raises(ValueError):
            cpu_pagerank(random_graph, method="quantum")

    def test_operation_counts(self, random_graph):
        r = cpu_pagerank(random_graph)
        assert r.pushes >= random_graph.num_nodes  # everyone starts active
        assert r.edges_pushed > 0
        assert r.seconds > 0


class TestGpuPagerank:
    @pytest.mark.parametrize("code", [v.code for v in unordered_variants()])
    def test_all_variants_match_cpu(self, code, random_graph):
        gpu = run_static(random_graph, -1, "pagerank", code)
        cpu = cpu_pagerank(random_graph, method="fast")
        assert np.abs(gpu.values - cpu.ranks).max() < 1e-12

    def test_workset_starts_full_and_drains(self):
        g = power_law_graph(5000, alpha=2.0, max_degree=100, seed=7)
        r = run_static(g, -1, "pagerank", "U_T_BM")
        curve = r.workset_curve()
        assert curve[0] == g.num_nodes
        assert curve[-1] < curve[0]

    def test_tolerance_controls_iterations(self, random_graph):
        loose = run_static(random_graph, -1, "pagerank", "U_B_QU", tolerance=1e-4)
        tight = run_static(random_graph, -1, "pagerank", "U_B_QU", tolerance=1e-8)
        assert tight.num_iterations >= loose.num_iterations
        assert tight.values.sum() >= loose.values.sum()

    def test_rejects_bad_params(self, random_graph):
        with pytest.raises(KernelError):
            run_static(random_graph, -1, "pagerank", "U_T_BM", damping=0.0)
        with pytest.raises(KernelError):
            run_static(random_graph, -1, "pagerank", "U_T_BM", tolerance=-1)

    def test_max_iterations(self, random_graph):
        with pytest.raises(KernelError, match="exceeded"):
            run_static(
                random_graph, -1, "pagerank", "U_T_BM", tolerance=1e-12,
                max_iterations=2,
            )

    def test_algorithm_tag(self, random_graph):
        r = run_static(random_graph, -1, "pagerank", "U_T_QU")
        assert r.algorithm == "pagerank"


class TestAdaptivePagerank:
    def test_matches_static(self):
        g = power_law_graph(20_000, alpha=2.0, max_degree=300, seed=8)
        ad = adaptive_run(g, "pagerank")
        st = run_static(g, -1, "pagerank", "U_T_BM")
        assert np.abs(ad.values - st.values).max() < 1e-12

    def test_starts_in_bitmap_region(self):
        g = power_law_graph(50_000, alpha=2.0, max_degree=300, seed=9)
        ad = adaptive_run(g, "pagerank")
        assert ad.iterations[0].variant.endswith("BM")
        assert ad.trace.num_switches >= 1  # drains into the queue region

    def test_graph_api(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)], num_nodes=3)
        r = g.pagerank(tolerance=1e-9)
        # A 3-cycle is symmetric: equal ranks.
        assert np.allclose(r.values, r.values[0])

    def test_graph_api_static_mode(self):
        g = Graph.from_edges([(0, 1), (1, 0)], num_nodes=2)
        r = g.pagerank(mode="U_B_QU")
        assert r.policy_name == "U_B_QU"


class TestObservedPagerank:
    def test_run_pagerank_accepts_observe(self):
        from repro.obs import Observer, observing

        g = erdos_renyi_graph(800, 4000, seed=3)
        observer = Observer()
        with observing(observer):
            result = run_static(g, -1, "pagerank", "U_B_QU")
        snap = observer.metrics.snapshot()
        assert snap["frame.iterations"]["value"] == result.num_iterations
        assert snap["gpusim.kernel_launches"]["value"] > 0
        names = [s.name for s in observer.spans.spans]
        assert names.count("iteration") == result.num_iterations

    def test_observation_does_not_change_result(self):
        from repro.obs import Observer, observing

        g = erdos_renyi_graph(800, 4000, seed=3)
        plain = run_static(g, -1, "pagerank", "U_T_BM")
        with observing(Observer()):
            observed = run_static(g, -1, "pagerank", "U_T_BM")
        assert np.array_equal(plain.values, observed.values)
        assert plain.total_seconds == observed.total_seconds
