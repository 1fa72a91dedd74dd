"""Tests for the k-core decomposition extension."""

import numpy as np
import pytest

from repro import adaptive_run, run_static
from repro.cpu import cpu_kcore
from repro.errors import KernelError
from repro.graph.builder import to_networkx
from repro.graph.generators import (
    balanced_tree,
    chain_graph,
    complete_graph,
    erdos_renyi_graph,
    power_law_graph,
    star_graph,
)
from repro.graph.transforms import symmetrize
from repro.kernels import unordered_variants


def nx_coreness(graph):
    import networkx as nx

    core = nx.core_number(to_networkx(graph).to_undirected())
    return np.array([core[i] for i in range(graph.num_nodes)])


@pytest.fixture(scope="module")
def social():
    return symmetrize(power_law_graph(600, alpha=1.9, max_degree=80, seed=15))


class TestCpuKCore:
    def test_matches_networkx(self, social):
        assert np.array_equal(cpu_kcore(social).coreness, nx_coreness(social))

    def test_chain_all_one(self):
        r = cpu_kcore(chain_graph(30))
        assert np.all(r.coreness == 1)
        assert r.max_core == 1

    def test_complete_graph(self):
        r = cpu_kcore(complete_graph(10))
        assert np.all(r.coreness == 9)

    def test_star_leaves_one_hub_one(self):
        r = cpu_kcore(star_graph(50))
        assert np.all(r.coreness == 1)

    def test_tree_all_one(self):
        r = cpu_kcore(balanced_tree(3, 4))
        assert r.max_core == 1

    def test_directed_input_symmetrized(self, tiny_graph):
        r = cpu_kcore(tiny_graph)
        assert np.array_equal(r.coreness, nx_coreness(symmetrize(tiny_graph)))

    def test_counts_and_price(self, social):
        r = cpu_kcore(social)
        assert r.nodes_peeled == social.num_nodes
        assert r.edges_scanned > 0
        assert r.seconds > 0


class TestGpuKCore:
    @pytest.mark.parametrize("code", [v.code for v in unordered_variants()])
    def test_all_variants_match_networkx(self, code, social):
        r = run_static(social, -1, "kcore", code)
        assert np.array_equal(r.values, nx_coreness(social))

    def test_directed_input(self, tiny_graph):
        r = run_static(tiny_graph, -1, "kcore", "U_T_BM")
        assert np.array_equal(r.values, nx_coreness(symmetrize(tiny_graph)))

    def test_sawtooth_workset(self, social):
        """Each k-stage opens with a burst then drains."""
        r = run_static(social, -1, "kcore", "U_B_QU")
        curve = r.workset_curve()
        assert curve.size >= cpu_kcore(social).max_core
        # At least one stage cascades (a peel triggers further peels).
        assert r.num_iterations > cpu_kcore(social).max_core

    def test_max_iterations(self, social):
        with pytest.raises(KernelError, match="exceeded"):
            run_static(social, -1, "kcore", "U_T_BM", max_iterations=1)

    def test_algorithm_tag(self):
        r = run_static(chain_graph(5), -1, "kcore", "U_T_QU")
        assert r.algorithm == "kcore"


class TestAdaptiveKCore:
    def test_correct(self, social):
        r = adaptive_run(social, "kcore")
        assert np.array_equal(r.values, nx_coreness(social))

    def test_matches_static_time_envelope(self, social):
        ad = adaptive_run(social, "kcore")
        statics = [
            run_static(social, -1, "kcore", v).total_seconds
            for v in unordered_variants()
        ]
        assert ad.total_seconds <= 1.25 * min(statics)

    def test_switch_intensive_on_large_graph(self):
        g = symmetrize(erdos_renyi_graph(40_000, 200_000, seed=16))
        r = adaptive_run(g, "kcore")
        assert np.array_equal(r.values, nx_coreness(g))
        # The sawtooth trajectory repeatedly crosses decision regions.
        assert r.trace.num_switches >= 2


class TestObservedKcore:
    def test_run_kcore_accepts_observe(self):
        from repro.obs import Observer, observing

        g = erdos_renyi_graph(800, 4000, seed=5)
        observer = Observer()
        with observing(observer):
            result = run_static(g, -1, "kcore", "U_B_QU")
        snap = observer.metrics.snapshot()
        assert snap["frame.iterations"]["value"] == result.num_iterations
        assert snap["gpusim.kernel_launches"]["value"] > 0

    def test_observation_does_not_change_result(self):
        from repro.obs import Observer, observing

        g = erdos_renyi_graph(800, 4000, seed=5)
        plain = run_static(g, -1, "kcore", "U_B_QU")
        with observing(Observer()):
            observed = run_static(g, -1, "kcore", "U_B_QU")
        assert np.array_equal(plain.values, observed.values)
        assert plain.total_seconds == observed.total_seconds
