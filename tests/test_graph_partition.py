"""Tests for 1D vertex partitioning (repro.graph.partition).

The load-bearing property: partitioning is lossless.  Any partitioning
of any CSR graph — any shard count, either strategy — must reassemble
to the original graph bit-for-bit, and the sharded traversal built on
top of it must produce value arrays SHA-identical to the 1-device run.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph.builder import from_edge_list
from repro.graph.generators import attach_uniform_weights, power_law_graph
from repro.graph.partition import (
    PARTITION_STRATEGIES,
    partition_graph,
    reassemble,
)


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# -- strategies --------------------------------------------------------

@st.composite
def csr_graphs(draw, max_nodes=40, max_edges=160):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weighted = draw(st.booleans())
    graph = from_edge_list(src, dst, num_nodes=n, dedupe=True)
    if weighted:
        graph = attach_uniform_weights(graph, seed=7)
    return graph


# -- unit coverage -----------------------------------------------------

class TestPartitionBasics:
    def test_rejects_bad_shard_counts(self, tiny_graph):
        with pytest.raises(GraphError):
            partition_graph(tiny_graph, 0)
        with pytest.raises(GraphError):
            partition_graph(tiny_graph, tiny_graph.num_nodes + 1)

    def test_rejects_unknown_strategy(self, tiny_graph):
        with pytest.raises(GraphError, match="unknown partition strategy"):
            partition_graph(tiny_graph, 2, strategy="metis")

    def test_ranges_tile_the_vertex_space(self, tiny_graph):
        shards = partition_graph(tiny_graph, 3)
        assert shards[0].start == 0
        assert shards[-1].stop == tiny_graph.num_nodes
        for left, right in zip(shards, shards[1:]):
            assert left.stop == right.start

    def test_every_edge_lives_with_its_source(self, tiny_graph):
        for shard in partition_graph(tiny_graph, 2):
            rebuilt_sources = np.repeat(
                np.arange(shard.start, shard.stop),
                np.diff(shard.csr.row_offsets),
            )
            assert shard.owned_mask(rebuilt_sources).all()

    def test_ghost_targets_are_exactly_the_foreign_columns(self, tiny_graph):
        for shard in partition_graph(tiny_graph, 2):
            cols = shard.csr.col_indices
            foreign = np.unique(cols[~shard.owned_mask(cols)])
            assert np.array_equal(shard.ghost_targets, foreign)

    def test_balanced_evens_out_edges(self):
        graph = power_law_graph(300, seed=3)
        contiguous = partition_graph(graph, 4, strategy="contiguous")
        balanced = partition_graph(graph, 4, strategy="balanced")
        spread = lambda shards: max(s.num_edges for s in shards) - min(
            s.num_edges for s in shards
        )
        assert spread(balanced) <= spread(contiguous)

    def test_view_is_full_width_and_cached(self, tiny_graph):
        shard = partition_graph(tiny_graph, 2)[1]
        view = shard.view(tiny_graph.num_nodes)
        assert view.num_nodes == tiny_graph.num_nodes
        assert view.num_edges == shard.num_edges
        assert shard.view(tiny_graph.num_nodes) is view
        degrees = np.diff(view.row_offsets)
        assert (degrees[: shard.start] == 0).all()

    def test_view_too_narrow_raises(self, tiny_graph):
        shard = partition_graph(tiny_graph, 2)[1]
        with pytest.raises(GraphError):
            shard.view(shard.stop - 1)

    def test_owned_slice_of_sorted_frontier(self, tiny_graph):
        shard = partition_graph(tiny_graph, 2)[0]
        frontier = np.arange(tiny_graph.num_nodes, dtype=np.int64)
        owned = shard.owned_slice(frontier)
        assert owned.tolist() == list(range(shard.start, shard.stop))

    def test_kept_per_graph_and_key(self):
        graph = power_law_graph(60, seed=2)
        first = partition_graph(graph, 2, strategy="balanced")
        again = partition_graph(graph, 2, strategy="balanced")
        assert again is not first
        assert len(again) == 2 and all(a is b for a, b in zip(first, again))
        for other in (
            partition_graph(graph, 2, strategy="contiguous"),
            partition_graph(graph, 3, strategy="balanced"),
        ):
            assert not any(a is b for a, b in zip(first, other))

    def test_editing_the_result_leaves_the_kept_shards(self):
        graph = power_law_graph(60, seed=2)
        shards = partition_graph(graph, 3)
        kept = list(shards)
        shards.reverse()
        shards.pop()
        again = partition_graph(graph, 3)
        assert len(again) == 3 and all(a is b for a, b in zip(again, kept))
        for shard in again:
            assert not shard.ghost_targets.flags.writeable
            assert not shard.csr.col_indices.flags.writeable

    def test_reassemble_rejects_holes(self, tiny_graph):
        shards = partition_graph(tiny_graph, 3)
        with pytest.raises(GraphError):
            reassemble([shards[0], shards[2]])


# -- the round-trip property (satellite: hypothesis) -------------------

class TestPartitionRoundTrip:
    @given(
        csr_graphs(),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(PARTITION_STRATEGIES),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_partitioning_round_trips(self, graph, num_shards, strategy):
        num_shards = min(num_shards, graph.num_nodes)
        shards = partition_graph(graph, num_shards, strategy=strategy)
        assert len(shards) == num_shards
        assert sum(s.num_owned for s in shards) == graph.num_nodes
        assert sum(s.num_edges for s in shards) == graph.num_edges

        rebuilt = reassemble(shards)
        assert _sha(rebuilt.row_offsets) == _sha(graph.row_offsets)
        assert _sha(rebuilt.col_indices) == _sha(graph.col_indices)
        if graph.weights is not None:
            assert _sha(rebuilt.weights) == _sha(graph.weights)
        else:
            assert rebuilt.weights is None

    @given(
        csr_graphs(max_nodes=30, max_edges=90),
        st.integers(min_value=2, max_value=4),
        st.sampled_from(PARTITION_STRATEGIES),
    )
    @settings(max_examples=12, deadline=None)
    def test_sharded_traversal_matches_one_device(
        self, graph, num_devices, strategy
    ):
        from repro.engine.shard import run_sharded

        num_devices = min(num_devices, graph.num_nodes)
        algorithm = "sssp" if graph.has_weights else "bfs"
        reference = run_sharded(graph, 0, algorithm=algorithm, num_devices=1)
        sharded = run_sharded(
            graph,
            0,
            algorithm=algorithm,
            num_devices=num_devices,
            partition=strategy,
        )
        assert sharded.values_sha256 == reference.values_sha256
