"""Integration: end-to-end determinism and cross-dataset correctness."""

import numpy as np
import pytest

from repro.core import adaptive_run, run_static
from repro.cpu import cpu_bfs, cpu_dijkstra
from repro.graph.datasets import dataset_keys, make_dataset
from repro.graph.properties import largest_out_component_node


class TestDeterminism:
    def test_dataset_generation_repeatable(self):
        for key in ("co-road", "amazon"):
            assert make_dataset(key, scale=0.01, seed=3) == make_dataset(
                key, scale=0.01, seed=3
            )

    def test_traversal_times_repeatable(self):
        g = make_dataset("p2p", scale=0.2, weighted=True, seed=3)
        a = run_static(g, 0, "sssp", "U_B_QU")
        b = run_static(g, 0, "sssp", "U_B_QU")
        assert a.total_seconds == b.total_seconds
        assert a.num_iterations == b.num_iterations
        assert np.array_equal(a.values, b.values)

    def test_adaptive_trace_repeatable(self):
        g = make_dataset("google", scale=0.01, seed=4)
        src = largest_out_component_node(g, seed=0)
        a = adaptive_run(g, "bfs", src)
        b = adaptive_run(g, "bfs", src)
        assert a.total_seconds == b.total_seconds
        assert [d.variant for d in a.trace.decisions] == [
            d.variant for d in b.trace.decisions
        ]


@pytest.mark.parametrize("key", dataset_keys())
class TestDatasetsEndToEnd:
    """Adaptive runtime correctness on every dataset analogue."""

    def test_adaptive_bfs_correct(self, key):
        g = make_dataset(key, scale=0.005, seed=2, min_nodes=400)
        src = largest_out_component_node(g, seed=0)
        result = adaptive_run(g, "bfs", src)
        oracle = cpu_bfs(g, src)
        assert np.array_equal(result.values, oracle.levels)
        assert result.reached == oracle.reached

    def test_adaptive_sssp_correct(self, key):
        g = make_dataset(key, scale=0.005, weighted=True, seed=2, min_nodes=400)
        src = largest_out_component_node(g, seed=0)
        result = adaptive_run(g, "sssp", src)
        oracle = cpu_dijkstra(g, src)
        assert np.allclose(result.values, oracle.distances)

    def test_static_bfs_correct(self, key):
        g = make_dataset(key, scale=0.005, seed=2, min_nodes=400)
        src = largest_out_component_node(g, seed=0)
        oracle = cpu_bfs(g, src)
        for code in ("U_T_BM", "U_B_QU"):
            assert np.array_equal(run_static(g, src, "bfs", code).values, oracle.levels)
