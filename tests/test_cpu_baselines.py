"""Tests for repro.cpu (serial baselines and the CPU cost model)."""

import numpy as np
import pytest

from repro.cpu import cpu_bellman_ford, cpu_bfs, cpu_dijkstra
from repro.cpu import costmodel
from repro.errors import GraphError
from repro.graph.generators import chain_graph
from tests.conftest import assert_bfs_matches_networkx, assert_sssp_matches_networkx


class TestCpuBfs:
    def test_chain_levels(self, chain10):
        r = cpu_bfs(chain10, 0)
        assert r.levels.tolist() == list(range(10))
        assert r.reached == 10

    def test_matches_networkx(self, random_graph):
        r = cpu_bfs(random_graph, 0)
        assert_bfs_matches_networkx(random_graph, 0, r.levels)

    def test_operation_counts(self, chain10):
        r = cpu_bfs(chain10, 0)
        assert r.nodes_visited == 10
        assert r.edges_scanned == chain10.num_edges

    def test_seconds_positive_and_scales(self):
        small = cpu_bfs(chain_graph(100), 0)
        large = cpu_bfs(chain_graph(10_000), 0)
        assert 0 < small.seconds < large.seconds

    def test_unreachable_nodes(self, tiny_graph):
        r = cpu_bfs(tiny_graph, 3)
        assert r.reached == 2

    def test_bad_source(self, chain10):
        with pytest.raises(GraphError):
            cpu_bfs(chain10, 99)


class TestCpuDijkstra:
    def test_requires_weights(self, chain10):
        with pytest.raises(GraphError, match="weights"):
            cpu_dijkstra(chain10, 0)

    def test_matches_networkx(self, random_weighted):
        r = cpu_dijkstra(random_weighted, 0, method="heap")
        assert_sssp_matches_networkx(random_weighted, 0, r.distances)

    def test_fast_matches_heap_distances(self, random_weighted):
        heap = cpu_dijkstra(random_weighted, 0, method="heap")
        fast = cpu_dijkstra(random_weighted, 0, method="fast")
        assert np.allclose(heap.distances, fast.distances, equal_nan=False)

    def test_fast_matches_heap_counts(self, random_weighted):
        heap = cpu_dijkstra(random_weighted, 0, method="heap")
        fast = cpu_dijkstra(random_weighted, 0, method="fast")
        assert fast.nodes_visited == heap.nodes_visited
        assert fast.edges_scanned == heap.edges_scanned
        # Push counts agree within a few percent (batched replay).
        assert fast.heap_pushes == pytest.approx(heap.heap_pushes, rel=0.05)

    def test_auto_selects_engine(self, random_weighted):
        r = cpu_dijkstra(random_weighted, 0, method="auto")
        assert r.reached > 0

    def test_unknown_method(self, random_weighted):
        with pytest.raises(ValueError):
            cpu_dijkstra(random_weighted, 0, method="quantum")

    def test_unreachable_inf(self, tiny_weighted):
        r = cpu_dijkstra(tiny_weighted, 3)
        assert np.isinf(r.distances[0])

    def test_heap_counts_consistent(self, random_weighted):
        r = cpu_dijkstra(random_weighted, 0, method="heap")
        assert r.heap_pops <= r.heap_pushes
        assert r.max_heap_size >= 1
        assert r.seconds > 0


class TestBellmanFord:
    def test_matches_dijkstra(self, random_weighted):
        bf = cpu_bellman_ford(random_weighted, 0)
        dj = cpu_dijkstra(random_weighted, 0, method="heap")
        assert np.allclose(bf.distances, dj.distances)

    def test_does_redundant_work(self, random_weighted):
        bf = cpu_bellman_ford(random_weighted, 0)
        dj = cpu_dijkstra(random_weighted, 0, method="heap")
        # Unordered processing rescans edges; ordered scans each once.
        assert bf.edges_scanned >= dj.edges_scanned

    def test_requires_weights(self, chain10):
        with pytest.raises(GraphError):
            cpu_bellman_ford(chain10, 0)


class TestCpuModel:
    def test_bfs_formula(self):
        s = costmodel.traversal_seconds(
            nodes_visited=10, edges_scanned=20, num_nodes=100
        )
        expected = (
            100 * costmodel.INIT_PER_NODE_S
            + 10 * (costmodel.NODE_VISIT_S + costmodel.UPDATE_S)
            + 20 * costmodel.EDGE_SCAN_S
        )
        assert s == pytest.approx(expected)

    def test_dijkstra_heap_term_grows_with_heap(self):
        small = costmodel.dijkstra_seconds(10, 20, 30, 30, 4, 100)
        large = costmodel.dijkstra_seconds(10, 20, 30, 30, 4096, 100)
        assert large > small
