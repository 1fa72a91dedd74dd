"""Tests for the BFS/SSSP specs of repro.kernels.frame through
``run_static``: every variant must compute correct answers on every
graph shape, and the traversal records must be internally consistent."""

import numpy as np
import pytest

from repro.core import run_static
from repro.cpu import cpu_bfs, cpu_dijkstra
from repro.engine.driver import run_frame
from repro.errors import KernelError
from repro.graph.generators import (
    attach_uniform_weights,
    balanced_tree,
    chain_graph,
    erdos_renyi_graph,
    power_law_graph,
    star_graph,
)
from repro.kernels import StaticPolicy, all_variants
from repro.kernels.frame import BfsSpec
from repro.kernels.variants import Variant

GRAPHS = {
    "chain": lambda: chain_graph(40),
    "star": lambda: star_graph(100),
    "tree": lambda: balanced_tree(3, 4),
    "random": lambda: erdos_renyi_graph(150, 700, seed=1),
    "skewed": lambda: power_law_graph(200, alpha=1.8, max_degree=60, seed=2),
}


@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("variant", [v.code for v in all_variants()])
class TestAllVariantsCorrect:
    def test_bfs_levels_match_cpu(self, graph_name, variant):
        g = GRAPHS[graph_name]()
        r = run_static(g, 0, "bfs", variant)
        oracle = cpu_bfs(g, 0)
        assert np.array_equal(r.values, oracle.levels)

    def test_sssp_distances_match_dijkstra(self, graph_name, variant):
        g = attach_uniform_weights(GRAPHS[graph_name](), seed=3)
        r = run_static(g, 0, "sssp", variant)
        oracle = cpu_dijkstra(g, 0, method="heap")
        assert np.allclose(r.values, oracle.distances)


class TestTraversalResult:
    def test_iteration_records_consistent(self):
        g = chain_graph(20)
        r = run_static(g, 0, "bfs", "U_T_QU")
        # One level per iteration, plus the final sweep that discovers no
        # updates and empties the working set.
        assert r.num_iterations == 20
        for rec in r.iterations:
            assert rec.workset_size >= 1
            assert rec.seconds > 0
        assert r.reached == 20

    def test_workset_curve_matches_records(self):
        g = balanced_tree(2, 5)
        r = run_static(g, 0, "bfs", "U_B_QU")
        curve = r.workset_curve()
        assert curve.tolist() == [rec.workset_size for rec in r.iterations]
        # A tree frontier doubles every level from the root.
        assert curve[0] == 1 and curve[1] == 2 and curve[2] == 4

    def test_variants_used_static(self):
        g = chain_graph(10)
        r = run_static(g, 0, "bfs", "U_B_QU")
        assert r.variants_used() == {"U_B_QU": r.num_iterations}

    def test_gpu_time_positive_and_total_larger(self):
        g = star_graph(50)
        r = run_static(g, 0, "bfs", "U_T_BM")
        assert 0 < r.gpu_seconds < r.total_seconds  # transfers add time

    def test_nodes_per_second(self):
        g = chain_graph(30)
        r = run_static(g, 0, "bfs", "U_T_BM")
        assert r.nodes_per_second() == pytest.approx(r.reached / r.total_seconds)

    def test_timeline_has_two_kernels_per_iteration(self):
        g = chain_graph(8)
        r = run_static(g, 0, "bfs", "U_T_BM")
        # computation + workset_gen each iteration (no findmin for BFS)
        assert r.timeline.num_launches == 2 * r.num_iterations

    def test_ordered_sssp_has_findmin_kernels(self):
        g = attach_uniform_weights(chain_graph(6), seed=0)
        r = run_static(g, 0, "sssp", "O_T_QU")
        assert "findmin" in r.timeline.seconds_by_kernel()

    def test_source_out_of_range(self):
        with pytest.raises(Exception):
            run_static(chain_graph(5), 17, "bfs", "U_T_BM")

    def test_sssp_requires_weights(self):
        with pytest.raises(KernelError, match="weights"):
            run_static(chain_graph(5), 0, "sssp", "U_T_BM")

    def test_max_iterations_enforced(self):
        g = chain_graph(50)
        with pytest.raises(KernelError, match="exceeded"):
            run_static(g, 0, "bfs", "U_T_BM", max_iterations=3)


class TestRunners:
    def test_variant_object_accepted(self):
        g = chain_graph(10)
        r = run_static(g, 0, "bfs", Variant.parse("U_B_BM"))
        assert r.policy_name == "U_B_BM"


class TestIsolatedSource:
    def test_bfs_from_sink(self, tiny_graph):
        # Node 4 has no outgoing edges: single-iteration traversal? No --
        # the working set starts at {4}, one step, no updates.
        r = run_static(tiny_graph, 4, "bfs", "U_T_BM")
        assert r.reached == 1
        assert r.num_iterations == 1

    def test_sssp_from_sink(self, tiny_weighted):
        r = run_static(tiny_weighted, 4, "sssp", "U_B_QU")
        assert r.reached == 1


class TestPolicyProtocol:
    def test_alternating_policy_still_correct(self):
        """Any switching sequence must preserve results (shared update
        vector invariant)."""

        class Alternating(StaticPolicy):
            def __init__(self):
                super().__init__(Variant.parse("U_T_BM"))
                self.name = "alternating"
                self.codes = ["U_T_BM", "U_B_QU", "U_T_QU", "U_B_BM"]

            def choose(self, iteration, ws):
                return Variant.parse(self.codes[iteration % 4])

        g = erdos_renyi_graph(120, 600, seed=4)
        r = run_frame(g, 0, Alternating(), BfsSpec())
        oracle = cpu_bfs(g, 0)
        assert np.array_equal(r.values, oracle.levels)
        assert len(r.variants_used()) > 1
