"""Tests for repro.graph.csr (the CSR structure itself)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_figure7_layout(self, tiny_graph):
        # Node vector indexes the edge vector, Figure 7 semantics.
        assert tiny_graph.num_nodes == 5
        assert tiny_graph.num_edges == 6
        assert tiny_graph.neighbors(0).tolist() == [1, 2]
        assert tiny_graph.neighbors(2).tolist() == [3, 4]
        assert tiny_graph.neighbors(4).tolist() == []

    def test_empty_graph(self):
        g = CSRGraph.empty(4)
        assert g.num_nodes == 4
        assert g.num_edges == 0
        assert g.out_degrees.tolist() == [0, 0, 0, 0]

    def test_zero_node_graph(self):
        g = CSRGraph.empty(0)
        assert g.num_nodes == 0
        assert g.avg_out_degree == 0.0

    def test_rejects_bad_first_offset(self):
        with pytest.raises(GraphError, match="row_offsets\\[0\\]"):
            CSRGraph([1, 2], [0, 0])

    def test_rejects_mismatched_final_offset(self):
        with pytest.raises(GraphError):
            CSRGraph([0, 3], [0])

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(GraphError, match="non-decreasing"):
            CSRGraph([0, 2, 1, 3], [0, 1, 2])

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(GraphError, match="out of range"):
            CSRGraph([0, 1], [5])

    def test_rejects_negative_weights(self):
        with pytest.raises(GraphError, match="negative"):
            CSRGraph([0, 1], [0], weights=[-1.0])

    def test_rejects_nonfinite_weights(self):
        with pytest.raises(GraphError, match="finite"):
            CSRGraph([0, 1], [0], weights=[np.inf])

    def test_rejects_weight_shape_mismatch(self):
        with pytest.raises(GraphError, match="shape"):
            CSRGraph([0, 2], [0, 0], weights=[1.0])


class TestImmutability:
    def test_arrays_read_only(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.row_offsets[0] = 1
        with pytest.raises(ValueError):
            tiny_graph.col_indices[0] = 0

    def test_out_degrees_read_only(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.out_degrees[0] = 99


class TestAccessors:
    def test_out_degree_per_node(self, tiny_graph):
        assert [tiny_graph.out_degree(i) for i in range(5)] == [2, 1, 2, 1, 0]

    def test_out_degrees_matches_scalar(self, tiny_graph):
        assert tiny_graph.out_degrees.tolist() == [2, 1, 2, 1, 0]

    def test_avg_out_degree(self, tiny_graph):
        assert tiny_graph.avg_out_degree == pytest.approx(6 / 5)

    def test_node_out_of_range(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.neighbors(5)
        with pytest.raises(GraphError):
            tiny_graph.out_degree(-1)

    def test_edge_weights_of(self, tiny_weighted):
        assert tiny_weighted.edge_weights_of(0).tolist() == [1.0, 4.0]

    def test_edge_weights_requires_weights(self, tiny_graph):
        with pytest.raises(GraphError, match="no edge weights"):
            tiny_graph.edge_weights_of(0)


class TestDerivedGraphs:
    def test_with_unit_weights(self, tiny_graph):
        g = tiny_graph.with_unit_weights()
        assert g.has_weights
        assert np.all(g.weights == 1.0)
        assert g.num_edges == tiny_graph.num_edges

    def test_reverse_roundtrip(self, tiny_graph):
        assert tiny_graph.reverse().reverse() == tiny_graph

    def test_reverse_edges(self, tiny_graph):
        rev = tiny_graph.reverse()
        assert rev.num_edges == tiny_graph.num_edges
        assert 0 in rev.neighbors(1).tolist()  # 0->1 becomes 1->0

    def test_reverse_preserves_weights(self, tiny_weighted):
        rev = tiny_weighted.reverse()
        # weight of 0->1 (1.0) must follow the reversed edge 1->0
        pos = rev.neighbors(1).tolist().index(0)
        assert rev.edge_weights_of(1)[pos] == 1.0


def _stable_argsort_reverse(graph):
    """The transpose as first built: a stable argsort of the int32
    destinations orders the sources and the weights."""
    n = graph.num_nodes
    src = np.repeat(np.arange(n, dtype=np.int32), graph.out_degrees)
    dst = graph.col_indices
    order = np.argsort(dst, kind="stable")
    new_cols = src[order]
    counts = np.bincount(dst, minlength=n)
    new_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=new_offsets[1:])
    new_weights = graph.weights[order] if graph.weights is not None else None
    return CSRGraph(
        new_offsets, new_cols, new_weights, name=f"{graph.name}^T", validate=False
    )


@st.composite
def weighted_multigraphs(draw):
    """CSR graphs built directly, rows in drawn (unsorted) order, with
    multi-edges, self-loops and distinct weights that show any
    reordering; sometimes unweighted."""
    n = draw(st.integers(0, 12))
    degrees = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    m = sum(degrees)
    cols = draw(st.lists(st.integers(0, max(0, n - 1)), min_size=m, max_size=m))
    offsets = np.concatenate([[0], np.cumsum(degrees, dtype=np.int64)])
    weights = np.arange(m, dtype=np.float32)[::-1] if draw(st.booleans()) else None
    return CSRGraph(offsets, np.array(cols, dtype=np.int32), weights, name="g")


class TestReverseKept:
    def test_same_object_on_every_call(self, tiny_weighted):
        assert tiny_weighted.reverse() is tiny_weighted.reverse()

    @given(weighted_multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_stable_argsort_construction(self, graph):
        got = graph.reverse()
        want = _stable_argsort_reverse(graph)
        assert got == want
        assert got.name == want.name
        for a, b in ((got.row_offsets, want.row_offsets),
                     (got.col_indices, want.col_indices)):
            assert a.dtype == b.dtype
        assert (got.weights is None) == (want.weights is None)
        if got.weights is not None:
            assert got.weights.dtype == want.weights.dtype

    @given(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=30, deadline=None)
    def test_destinations_past_16_bits(self, edges):
        """Destinations that share their low or their high 16-bit half
        still land in the stable argsort's order."""
        sources = np.array([s for s, _, _ in edges], dtype=np.int64)
        order = np.argsort(sources, kind="stable")
        cols = np.array([(hi << 16) | lo for _, hi, lo in edges], dtype=np.int32)
        offsets = np.zeros((4 << 16) + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=4), out=offsets[1:5])
        offsets[5:] = len(edges)
        weights = np.arange(len(edges), dtype=np.float32)
        graph = CSRGraph(offsets, cols[order], weights, name="g")
        got, want = graph.reverse(), _stable_argsort_reverse(graph)
        assert got == want
        assert np.array_equal(got.weights, want.weights)

    @given(weighted_multigraphs())
    @settings(max_examples=50, deadline=None)
    def test_same_device_bytes(self, graph):
        assert graph.reverse().device_bytes() == graph.device_bytes()


class TestEqualityAndRepr:
    def test_equality(self, tiny_graph):
        clone = CSRGraph(
            tiny_graph.row_offsets.copy(),
            tiny_graph.col_indices.copy(),
            name="other-name",
        )
        assert clone == tiny_graph  # name not part of equality

    def test_inequality_weights(self, tiny_graph, tiny_weighted):
        assert tiny_graph != tiny_weighted

    def test_repr_mentions_counts(self, tiny_graph):
        r = repr(tiny_graph)
        assert "nodes=5" in r and "edges=6" in r

    def test_device_bytes_positive(self, tiny_weighted):
        assert tiny_weighted.device_bytes() > tiny_weighted.num_edges * 4
