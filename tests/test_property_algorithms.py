"""Property-based tests on the algorithm extensions: invariants that
must hold on arbitrary random graphs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import run_static
from repro.cpu import cpu_kcore, cpu_pagerank
from repro.graph.builder import from_edge_list
from repro.graph.transforms import symmetrize, weakly_connected_components


@st.composite
def random_graphs(draw, max_nodes=30, max_edges=90):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return from_edge_list(src, dst, num_nodes=n, dedupe=True, drop_self_loops=True)


class TestConnectedComponentsProperties:
    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_labels_constant_on_edges(self, g):
        """Fixpoint: both endpoints of every edge share a label."""
        labels = run_static(g, -1, "cc", "U_B_QU").values
        src = np.repeat(np.arange(g.num_nodes), g.out_degrees)
        for u, v in zip(src, g.col_indices):
            assert labels[u] == labels[v]

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_label_is_component_minimum(self, g):
        labels = run_static(g, -1, "cc", "U_T_QU").values
        oracle = weakly_connected_components(g)
        assert np.array_equal(labels, oracle)
        # Labels are self-consistent minima: label[label[v]] == label[v].
        assert np.array_equal(labels[labels], labels)


class TestPageRankProperties:
    @given(random_graphs(), st.floats(0.5, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_mass_bounded_by_one(self, g, damping):
        r = run_static(g, -1, "pagerank", "U_T_BM", damping=damping, tolerance=1e-8)
        total = float(r.values.sum())
        # Mass <= 1 (dangling absorption only loses mass) and above the
        # teleport floor.
        assert total <= 1.0 + 1e-9
        assert total >= (1.0 - damping) - 1e-9

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_ranks_positive_and_residuals_converged(self, g):
        tol = 1e-7
        r = run_static(g, -1, "pagerank", "U_B_QU", tolerance=tol)
        assert np.all(r.values > 0)  # everyone holds teleport mass
        cpu = cpu_pagerank(g, tolerance=tol, method="fast")
        assert np.abs(r.values - cpu.ranks).max() < 1e-12

    @given(random_graphs())
    @settings(max_examples=20, deadline=None)
    def test_variant_independence(self, g):
        a = run_static(g, -1, "pagerank", "U_T_BM", tolerance=1e-6).values
        b = run_static(g, -1, "pagerank", "U_B_QU", tolerance=1e-6).values
        assert np.array_equal(a, b)


class TestKCoreProperties:
    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_coreness_definition_holds(self, g):
        """Every node of coreness c has >= c neighbors with coreness >= c
        (in the symmetrized graph), and coreness <= degree."""
        sym = symmetrize(g)
        coreness = run_static(sym, -1, "kcore", "U_B_QU").values
        deg = sym.out_degrees
        assert np.all(coreness <= deg)
        for v in range(sym.num_nodes):
            c = coreness[v]
            if c == 0:
                continue
            neigh = sym.neighbors(v)
            assert int((coreness[neigh] >= c).sum()) >= c

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_cpu_gpu_agree(self, g):
        assert np.array_equal(
            run_static(g, -1, "kcore", "U_T_QU").values, cpu_kcore(g).coreness
        )
