"""Tests for repro.graph.builder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.builder import from_edge_list, to_networkx


class TestFromEdgeList:
    def test_basic(self):
        g = from_edge_list([0, 0, 1], [1, 2, 2], num_nodes=3)
        assert g.num_edges == 3
        assert g.neighbors(0).tolist() == [1, 2]

    def test_infers_num_nodes(self):
        g = from_edge_list([0], [9])
        assert g.num_nodes == 10

    def test_num_nodes_too_small(self):
        with pytest.raises(GraphError):
            from_edge_list([0], [5], num_nodes=3)

    def test_rejects_negative_ids(self):
        with pytest.raises(GraphError, match="negative"):
            from_edge_list([-1], [0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(GraphError):
            from_edge_list([0, 1], [1])

    def test_empty_edge_list(self):
        g = from_edge_list([], [], num_nodes=4)
        assert g.num_nodes == 4
        assert g.num_edges == 0

    def test_symmetric(self):
        g = from_edge_list([0], [1], num_nodes=2, symmetric=True)
        assert g.num_edges == 2
        assert g.neighbors(1).tolist() == [0]

    def test_drop_self_loops(self):
        g = from_edge_list([0, 1], [0, 0], num_nodes=2, drop_self_loops=True)
        assert g.num_edges == 1

    def test_dedupe_keeps_min_weight(self):
        g = from_edge_list(
            [0, 0, 0], [1, 1, 2], weights=[5.0, 2.0, 9.0], num_nodes=3, dedupe=True
        )
        assert g.num_edges == 2
        pos = g.neighbors(0).tolist().index(1)
        assert g.edge_weights_of(0)[pos] == 2.0

    def test_dedupe_without_weights(self):
        g = from_edge_list([0, 0, 0], [1, 1, 1], num_nodes=2, dedupe=True)
        assert g.num_edges == 1

    def test_weights_length_mismatch(self):
        with pytest.raises(GraphError, match="weights"):
            from_edge_list([0], [1], weights=[1.0, 2.0])

    def test_unsorted_input_sorted_in_csr(self):
        g = from_edge_list([2, 0, 1], [0, 1, 2], num_nodes=3)
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(2).tolist() == [0]

    def test_symmetric_duplicates_weights(self):
        g = from_edge_list([0], [1], weights=[3.0], num_nodes=2, symmetric=True)
        assert g.edge_weights_of(1).tolist() == [3.0]


def _lexsort_build(src, dst, w, n, dedupe):
    """The CSR arrays of an edge list, sorted the two-key way: dedupe by
    ``lexsort((w, dst, src))``, then assemble by ``lexsort((dst, src))``
    (stable, so tied edges keep their input order)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = None if w is None else np.asarray(w, dtype=np.float32)
    if dedupe and src.size:
        order = np.lexsort((dst, src) if w is None else (w, dst, src))
        src, dst = src[order], dst[order]
        w = None if w is None else w[order]
        first = np.ones(src.size, dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[first], dst[first]
        w = None if w is None else w[first]
    order = np.lexsort((dst, src))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, dst[order], None if w is None else w[order]


@st.composite
def edge_lists(draw):
    """Small edge lists with duplicate pairs, self-loops and weights
    drawn from a few values, so duplicates both tie and differ."""
    n = draw(st.integers(1, 8))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)
    )
    weights = None
    if draw(st.booleans()):
        weights = draw(
            st.lists(
                st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                min_size=len(pairs),
                max_size=len(pairs),
            )
        )
    return n, pairs, weights, draw(st.booleans())


class TestCanonicalOrder:
    @given(edge_lists())
    @settings(max_examples=200, deadline=None)
    def test_one_key_sort_matches_lexsort(self, case):
        n, pairs, weights, dedupe = case
        src = [u for u, _ in pairs]
        dst = [v for _, v in pairs]
        g = from_edge_list(src, dst, weights, num_nodes=n, dedupe=dedupe)
        offsets, cols, w = _lexsort_build(src, dst, weights, n, dedupe)
        np.testing.assert_array_equal(g.row_offsets, offsets)
        np.testing.assert_array_equal(g.col_indices, cols)
        if weights is None:
            assert g.weights is None
        else:
            np.testing.assert_array_equal(g.weights, w)


class TestNetworkxRoundtrip:
    """``to_networkx`` is the tests' networkx reference: its edges must
    rebuild the graph exactly."""

    def test_digraph_roundtrip(self, tiny_graph):
        nxg = to_networkx(tiny_graph)
        assert nxg.number_of_nodes() == tiny_graph.num_nodes
        assert nxg.number_of_edges() == tiny_graph.num_edges
        src, dst = zip(*nxg.edges())
        back = from_edge_list(src, dst, num_nodes=nxg.number_of_nodes(), name=nxg.name)
        assert back == tiny_graph

    def test_weighted_roundtrip(self, tiny_weighted):
        nxg = to_networkx(tiny_weighted)
        src, dst, w = zip(*nxg.edges(data="weight"))
        back = from_edge_list(src, dst, w, num_nodes=nxg.number_of_nodes())
        assert np.allclose(back.weights, tiny_weighted.weights)
