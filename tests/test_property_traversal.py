"""Property-based tests: on arbitrary random graphs, every GPU variant
and the adaptive runtime must agree with the serial CPU oracles, and the
cost model must produce sane numbers."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import adaptive_run, run_static
from repro.cpu import cpu_bfs, cpu_dijkstra
from repro.graph.builder import from_edge_list
from repro.kernels import all_variants


@st.composite
def graphs_with_source(draw, max_nodes=25, max_edges=80):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=20), min_size=m, max_size=m
        )
    )
    source = draw(st.integers(0, n - 1))
    g = from_edge_list(
        src, dst, [float(w) for w in weights], num_nodes=n, dedupe=True
    )
    return g, source


class TestVariantAgreement:
    @given(graphs_with_source())
    @settings(max_examples=25, deadline=None)
    def test_all_bfs_variants_agree_with_cpu(self, gs):
        g, source = gs
        oracle = cpu_bfs(g, source).levels
        for variant in all_variants():
            result = run_static(g, source, "bfs", variant)
            assert np.array_equal(result.values, oracle), variant.code

    @given(graphs_with_source())
    @settings(max_examples=15, deadline=None)
    def test_all_sssp_variants_agree_with_dijkstra(self, gs):
        g, source = gs
        oracle = cpu_dijkstra(g, source, method="heap").distances
        for variant in all_variants():
            result = run_static(g, source, "sssp", variant)
            assert np.allclose(result.values, oracle), variant.code

    @given(graphs_with_source())
    @settings(max_examples=20, deadline=None)
    def test_adaptive_agrees_with_cpu(self, gs):
        g, source = gs
        assert np.array_equal(
            adaptive_run(g, "bfs", source).values, cpu_bfs(g, source).levels
        )
        assert np.allclose(
            adaptive_run(g, "sssp", source).values,
            cpu_dijkstra(g, source, method="heap").distances,
        )


class TestTraversalInvariants:
    @given(graphs_with_source())
    @settings(max_examples=25, deadline=None)
    def test_costs_positive_and_finite(self, gs):
        g, source = gs
        result = run_static(g, source, "bfs", "U_B_QU")
        assert np.isfinite(result.total_seconds)
        assert result.total_seconds > 0
        assert result.gpu_seconds > 0
        for record in result.iterations:
            assert record.seconds > 0

    @given(graphs_with_source())
    @settings(max_examples=25, deadline=None)
    def test_workset_sizes_bounded_by_nodes(self, gs):
        g, source = gs
        result = run_static(g, source, "bfs", "U_T_BM")
        for record in result.iterations:
            assert 1 <= record.workset_size <= g.num_nodes

    @given(graphs_with_source())
    @settings(max_examples=25, deadline=None)
    def test_bfs_reached_consistent(self, gs):
        g, source = gs
        result = run_static(g, source, "bfs", "U_T_QU")
        assert result.reached == int((result.values >= 0).sum())
        assert result.reached >= 1  # the source itself

    @given(graphs_with_source())
    @settings(max_examples=10, deadline=None)
    def test_sssp_distances_respect_triangle(self, gs):
        """For every edge u->v: dist[v] <= dist[u] + w(u,v)."""
        g, source = gs
        result = run_static(g, source, "sssp", "U_T_BM")
        dist = result.values
        src = np.repeat(np.arange(g.num_nodes), g.out_degrees)
        for u, v, w in zip(src, g.col_indices, g.weights):
            if np.isfinite(dist[u]):
                assert dist[v] <= dist[u] + w + 1e-6
