"""Tests for repro.graph.transforms."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builder import from_edge_list
from repro.graph.generators import chain_graph, erdos_renyi_graph
from repro.graph.properties import is_symmetric
from repro.graph.transforms import (
    edge_arrays,
    relabel,
    symmetrize,
    weakly_connected_components,
)


class TestEdgeArrays:
    def test_roundtrip(self, tiny_graph):
        src, dst, w = edge_arrays(tiny_graph)
        assert w is None
        rebuilt = from_edge_list(src, dst, num_nodes=tiny_graph.num_nodes)
        assert rebuilt == tiny_graph

    def test_weighted(self, tiny_weighted):
        _, _, w = edge_arrays(tiny_weighted)
        assert np.allclose(w, tiny_weighted.weights)


class TestSymmetrize:
    def test_makes_symmetric(self, tiny_graph):
        assert is_symmetric(symmetrize(tiny_graph))

    def test_idempotent_on_symmetric(self):
        g = chain_graph(6)
        assert symmetrize(g) == g

    def test_keeps_min_weight(self):
        g = from_edge_list([0, 1], [1, 0], weights=[5.0, 2.0], num_nodes=2)
        s = symmetrize(g)
        assert s.edge_weights_of(0).tolist() == [2.0]
        assert s.edge_weights_of(1).tolist() == [2.0]


class TestRelabel:
    def test_reverse_permutation(self, tiny_graph):
        n = tiny_graph.num_nodes
        mapping = np.arange(n)[::-1]
        g = relabel(tiny_graph, mapping)
        # edge 0->1 becomes 4->3
        assert 3 in g.neighbors(4).tolist()

    def test_identity(self, tiny_graph):
        assert relabel(tiny_graph, np.arange(5)) == tiny_graph

    def test_rejects_non_permutation(self, tiny_graph):
        with pytest.raises(GraphError, match="permutation"):
            relabel(tiny_graph, np.zeros(5, dtype=np.int64))

    def test_rejects_wrong_shape(self, tiny_graph):
        with pytest.raises(GraphError):
            relabel(tiny_graph, np.arange(3))


class TestDegreeSortRelabel:
    def test_degrees_sorted(self, skewed_graph):
        from repro.graph.transforms import degree_sort_relabel

        g, _ = degree_sort_relabel(skewed_graph)
        deg = g.out_degrees
        assert np.all(deg[:-1] >= deg[1:])

    def test_mapping_roundtrip(self, skewed_graph):
        from repro.graph.transforms import degree_sort_relabel

        g, mapping = degree_sort_relabel(skewed_graph)
        # Each old node's degree must survive under its new id.
        assert np.array_equal(
            g.out_degrees[mapping], skewed_graph.out_degrees
        )

    def test_results_map_back(self):
        from repro.graph.properties import bfs_levels
        from repro.graph.transforms import degree_sort_relabel

        g0 = erdos_renyi_graph(300, 1500, seed=12)
        g1, mapping = degree_sort_relabel(g0)
        levels0 = bfs_levels(g0, 7)
        levels1 = bfs_levels(g1, int(mapping[7]))
        assert np.array_equal(levels1[mapping], levels0)

    def test_reduces_thread_divergence(self):
        """The point of the transform: a thread-mapped launch over every
        node issues fewer warp-max cycles on a skewed degree sequence
        when similar degrees share warps."""
        from repro.gpusim.device import TESLA_C2070
        from repro.graph.generators import power_law_graph
        from repro.graph.transforms import degree_sort_relabel
        from repro.kernels import costs
        from repro.kernels.mapping import ComputationShape, computation_tally
        from repro.kernels.variants import Mapping, WorksetRepr

        def issue_cycles(graph):
            shape = ComputationShape(
                name="all_nodes",
                num_nodes=graph.num_nodes,
                active_ids=np.arange(graph.num_nodes),
                degrees=graph.out_degrees,
                edge_cost=costs.C_EDGE,
                improved=0,
                updated_count=0,
            )
            return computation_tally(
                shape, Mapping.THREAD, WorksetRepr.QUEUE, 192, TESLA_C2070
            ).issue_cycles

        g = power_law_graph(4000, alpha=1.8, max_degree=200, seed=13)
        sorted_g, _ = degree_sort_relabel(g)
        assert issue_cycles(sorted_g) < 0.7 * issue_cycles(g)

    def test_ascending_option(self, skewed_graph):
        from repro.graph.transforms import degree_sort_relabel

        g, _ = degree_sort_relabel(skewed_graph, descending=False)
        deg = g.out_degrees
        assert np.all(deg[:-1] <= deg[1:])


class TestComponents:
    def test_single_component(self):
        labels = weakly_connected_components(chain_graph(8))
        assert len(set(labels.tolist())) == 1

    def test_two_components(self):
        g = from_edge_list([0, 2], [1, 3], num_nodes=4)
        labels = weakly_connected_components(g)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_isolated_nodes(self):
        g = from_edge_list([0], [1], num_nodes=4)
        labels = weakly_connected_components(g)
        assert len(set(labels.tolist())) == 3

    def test_direction_ignored(self):
        # 0 -> 1 <- 2: weakly connected despite no directed path 0 -> 2.
        g = from_edge_list([0, 2], [1, 1], num_nodes=3)
        labels = weakly_connected_components(g)
        assert len(set(labels.tolist())) == 1

    def test_matches_networkx(self):
        import networkx as nx

        from repro.graph.builder import to_networkx

        g = erdos_renyi_graph(120, 100, seed=9)
        labels = weakly_connected_components(g)
        nx_comps = list(nx.weakly_connected_components(to_networkx(g)))
        assert len(set(labels.tolist())) == len(nx_comps)
