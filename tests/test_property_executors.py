"""Property-based agreement tests across executors: on arbitrary random
graphs, the hybrid executor, direction-optimizing BFS and the adaptive
runtime must all compute identical answers — they differ only in cost."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import adaptive_run, hybrid_run, run_default
from repro.graph.builder import from_edge_list


@st.composite
def graphs_with_source(draw, max_nodes=25, max_edges=80):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    g = from_edge_list(src, dst, [float(w) for w in weights], num_nodes=n,
                       dedupe=True)
    source = draw(st.integers(0, n - 1))
    return g, source


class TestExecutorAgreement:
    @given(graphs_with_source())
    @settings(max_examples=25, deadline=None)
    def test_hybrid_bfs_agrees(self, gs):
        g, source = gs
        assert np.array_equal(
            hybrid_run(g, "bfs", source).values, adaptive_run(g, "bfs", source).values
        )

    @given(graphs_with_source())
    @settings(max_examples=20, deadline=None)
    def test_hybrid_sssp_agrees(self, gs):
        g, source = gs
        assert np.allclose(
            hybrid_run(g, "sssp", source).values, adaptive_run(g, "sssp", source).values
        )

    @given(graphs_with_source())
    @settings(max_examples=25, deadline=None)
    def test_dobfs_agrees(self, gs):
        g, source = gs
        assert np.array_equal(
            run_default(g, source, "dobfs").values,
            adaptive_run(g, "bfs", source).values,
        )

    @given(graphs_with_source())
    @settings(max_examples=15, deadline=None)
    def test_hybrid_schedule_well_formed(self, gs):
        g, source = gs
        r = hybrid_run(g, "bfs", source)
        assert len(r.devices) == r.num_iterations
        assert r.transitions <= len(r.devices) + 1
        assert r.total_seconds > 0
