"""Tests for repro.kernels.computation (functional step semantics)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import KernelError
from repro.graph.builder import from_edge_list
from repro.graph.generators import attach_uniform_weights, chain_graph, star_graph
from repro.graph.properties import _ragged_gather_indices
from repro.gpusim.device import TESLA_C2070
from repro.kernels import costs
from repro.kernels.cc import cc_step
from repro.kernels.computation import (
    INF,
    OrderedSsspState,
    StepResult,
    UNSET_LEVEL,
    bfs_relax,
    bfs_step,
    sssp_ordered_step,
    sssp_relax,
    sssp_step,
)
from repro.kernels.findmin import findmin
from repro.kernels.mapping import ComputationShape, computation_tally
from repro.kernels.variants import Variant, WorksetRepr
from repro.kernels.workset import Workset


def fresh_levels(n, source):
    levels = np.full(n, UNSET_LEVEL, dtype=np.int64)
    levels[source] = 0
    return levels


def fresh_dist(n, source):
    dist = np.full(n, INF, dtype=np.float64)
    dist[source] = 0.0
    return dist


UTBM = Variant.parse("U_T_BM")
OTBM = Variant.parse("O_T_BM")


class TestBfsStep:
    def test_one_step_expands_frontier(self, tiny_graph):
        levels = fresh_levels(5, 0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.BITMAP)
        step = bfs_step(tiny_graph, ws, levels, UTBM, 192, TESLA_C2070)
        assert step.updated.tolist() == [1, 2]
        assert levels[1] == 1 and levels[2] == 1

    def test_no_rediscovery(self, tiny_graph):
        levels = fresh_levels(5, 0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.BITMAP)
        step = bfs_step(tiny_graph, ws, levels, UTBM, 192, TESLA_C2070)
        ws2 = Workset.from_update_ids(step.updated, WorksetRepr.BITMAP)
        step2 = bfs_step(tiny_graph, ws2, levels, UTBM, 192, TESLA_C2070)
        # 1->2 does not re-add node 2 (level would not improve).
        assert 2 not in step2.updated.tolist()
        assert step2.updated.tolist() == [3, 4]

    def test_ordered_first_touch_only(self, tiny_graph):
        levels = fresh_levels(5, 0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.BITMAP)
        step = bfs_step(tiny_graph, ws, levels, OTBM, 192, TESLA_C2070)
        assert step.updated.tolist() == [1, 2]

    def test_empty_workset_rejected(self, tiny_graph):
        levels = fresh_levels(5, 0)
        ws = Workset.from_update_ids(np.array([]), WorksetRepr.BITMAP)
        with pytest.raises(KernelError):
            bfs_step(tiny_graph, ws, levels, UTBM, 192, TESLA_C2070)

    def test_edges_scanned_counts_frontier_degrees(self, star_64):
        levels = fresh_levels(64, 0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.QUEUE)
        step = bfs_step(star_64, ws, levels, UTBM, 192, TESLA_C2070)
        assert step.edges_scanned == 63
        assert step.updated.size == 63

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.float64])
    def test_non_int64_levels_rejected(self, tiny_graph, dtype):
        levels = fresh_levels(5, 0).astype(dtype)
        before = levels.copy()
        with pytest.raises(KernelError, match="int64"):
            bfs_relax(tiny_graph, np.array([0]), levels)
        assert np.array_equal(levels, before)


class TestSsspStep:
    def test_relaxation(self, tiny_weighted):
        dist = fresh_dist(5, 0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.QUEUE)
        step = sssp_step(tiny_weighted, ws, dist, UTBM, 192, TESLA_C2070)
        assert dist[1] == 1.0 and dist[2] == 4.0
        assert step.updated.tolist() == [1, 2]

    def test_improvement_only(self, tiny_weighted):
        dist = fresh_dist(5, 0)
        dist[1], dist[2] = 1.0, 3.0  # 2 already better than via 0 (4.0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.QUEUE)
        step = sssp_step(tiny_weighted, ws, dist, UTBM, 192, TESLA_C2070)
        assert step.updated.size == 0

    def test_multiple_candidates_take_min(self):
        # two paths into node 2: 0->2 (10) and 1->2 (1); frontier {0,1}
        g = attach_uniform_weights(chain_graph(3), seed=0)
        g = g.with_weights([5.0, 5.0, 1.0, 1.0])  # 0-1 (5), 1-2 (1)
        dist = fresh_dist(3, 0)
        dist[1] = 5.0
        ws = Workset.from_update_ids(np.array([0, 1]), WorksetRepr.QUEUE)
        sssp_step(g, ws, dist, UTBM, 192, TESLA_C2070)
        assert dist[2] == 6.0

    def test_requires_weights(self, tiny_graph):
        dist = fresh_dist(5, 0)
        ws = Workset.from_update_ids(np.array([0]), WorksetRepr.QUEUE)
        with pytest.raises(KernelError):
            sssp_step(tiny_graph, ws, dist, UTBM, 192, TESLA_C2070)


class TestOrderedSssp:
    def test_settles_min_first(self, tiny_weighted):
        state = OrderedSsspState.initial(5, 0, dedupe=True)
        step = sssp_ordered_step(
            tiny_weighted, state, findmin(state.ws_keys), OTBM, 192, TESLA_C2070
        )
        assert state.dist[0] == 0.0
        assert step.settled == 1
        # neighbors of 0 inserted with their candidate keys
        assert set(state.ws_nodes.tolist()) == {1, 2}

    def test_full_run_matches_dijkstra(self, tiny_weighted):
        from repro.cpu import cpu_dijkstra

        state = OrderedSsspState.initial(5, 0, dedupe=True)
        for _ in range(100):
            if state.workset_size == 0:
                break
            sssp_ordered_step(
                tiny_weighted, state, findmin(state.ws_keys), OTBM, 192, TESLA_C2070
            )
        oracle = cpu_dijkstra(tiny_weighted, 0, method="heap")
        assert np.allclose(state.dist, oracle.distances)

    def test_queue_multiset_grows(self, star_64):
        """Queue (dedupe=False) keeps duplicate pairs; bitmap dedupes."""
        g = attach_uniform_weights(star_64, seed=1)
        q_state = OrderedSsspState.initial(64, 1, dedupe=False)  # leaf source
        b_state = OrderedSsspState.initial(64, 1, dedupe=True)
        for state in (q_state, b_state):
            variant = OTBM
            for _ in range(3):
                if state.workset_size == 0:
                    break
                sssp_ordered_step(
                    g, state, findmin(state.ws_keys), variant, 192, TESLA_C2070
                )
        # hub expansion inserts one pair per leaf either way, but the
        # bitmap state can never exceed n entries.
        assert b_state.workset_size <= 64

    def test_stale_pairs_dropped(self, tiny_weighted):
        state = OrderedSsspState.initial(5, 0, dedupe=False)
        # Manually inject a stale pair for an already-settled node.
        state.dist[1] = 0.5
        state.ws_nodes = np.array([1], dtype=np.int64)
        state.ws_keys = np.array([2.0], dtype=np.float64)
        step = sssp_ordered_step(
            tiny_weighted, state, 2.0, OTBM, 192, TESLA_C2070
        )
        assert step.settled == 0
        assert state.dist[1] == 0.5  # untouched


# ----------------------------------------------------------------------
# Differential: the relax core against the previous implementation
# ----------------------------------------------------------------------
#
# The reference model: the relaxations as first written, which copy the
# |V| value array, compare it whole and flatnonzero it on every call.
# The kernels must match it bit for bit on every input they accept.

def _ref_gather_edges(graph, nodes):
    """Edge indices, destinations and per-node degrees for *nodes*."""
    starts = graph.row_offsets[nodes]
    ends = graph.row_offsets[nodes + 1]
    degrees = (ends - starts).astype(np.int64)
    idx = _ragged_gather_indices(starts, ends)
    return idx, graph.col_indices[idx].astype(np.int64), degrees


def _ref_bfs_relax(graph, frontier, levels, *, ordered=False):
    idx, dst, degrees = _ref_gather_edges(graph, frontier)
    cand = np.repeat(levels[frontier] + 1, degrees)

    old = levels[dst]
    if ordered:
        improving = old == UNSET_LEVEL
    else:
        improving = (old == UNSET_LEVEL) | (cand < old)
    improved_count = int(improving.sum())
    touched = dst[improving]
    if touched.size:
        # Apply the minimum candidate per destination; UNSET maps to +inf
        # so first touches and improvements are handled uniformly.
        big = np.iinfo(np.int64).max
        before = np.where(levels == UNSET_LEVEL, big, levels)
        work = before.copy()
        np.minimum.at(work, touched, cand[improving])
        changed = work < before
        levels[changed] = work[changed]
        updated = np.flatnonzero(changed).astype(np.int64)
    else:
        updated = np.empty(0, dtype=np.int64)
    return updated, degrees, improved_count, int(idx.size)


def _ref_sssp_relax(graph, frontier, dist):
    idx, dst, degrees = _ref_gather_edges(graph, frontier)
    cand = np.repeat(dist[frontier], degrees) + graph.weights[idx]

    improving = cand < dist[dst]
    improved_count = int(improving.sum())
    touched = dst[improving]
    if touched.size:
        before = dist.copy()
        np.minimum.at(dist, touched, cand[improving])
        updated = np.flatnonzero(dist < before).astype(np.int64)
    else:
        updated = np.empty(0, dtype=np.int64)
    return updated, degrees, improved_count, int(idx.size)


def _ref_cc_step(graph, workset, labels, variant, threads_per_block, device,
                 *, name="cc_comp"):
    frontier = workset.nodes
    if frontier.size == 0:
        raise KernelError("cc_step called with an empty working set")
    idx, dst, degrees = _ref_gather_edges(graph, frontier)
    cand = np.repeat(labels[frontier], degrees)

    improving = cand < labels[dst]
    improved_count = int(improving.sum())
    if improved_count:
        before = labels.copy()
        np.minimum.at(labels, dst[improving], cand[improving])
        updated = np.flatnonzero(labels < before).astype(np.int64)
    else:
        updated = np.empty(0, dtype=np.int64)

    shape = ComputationShape(
        name=name,
        num_nodes=graph.num_nodes,
        active_ids=frontier,
        degrees=degrees,
        edge_cost=costs.C_EDGE,
        improved=improved_count,
        updated_count=int(updated.size),
    )
    tally = computation_tally(
        shape, variant.mapping, variant.workset, threads_per_block, device
    )
    return StepResult(
        updated=updated,
        tally=tally,
        improved_relaxations=improved_count,
        edges_scanned=int(idx.size),
        processed=int(frontier.size),
    )


#: few distinct values, so ties, zero-weight edges and equal levels are common
_WEIGHTS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.25])
_DISTANCES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.25, np.inf, np.inf])


@st.composite
def relax_graphs(draw, max_nodes=12, max_edges=40):
    """Graphs with duplicate edges, self-loops, zero weights and isolated
    nodes, including the empty graph and graphs with no edges."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges)) if n else 0
    node = st.integers(0, max(0, n - 1))
    src = draw(st.lists(node, min_size=m, max_size=m))
    dst = draw(st.lists(node, min_size=m, max_size=m))
    weights = draw(st.lists(_WEIGHTS, min_size=m, max_size=m))
    return from_edge_list(src, dst, weights, num_nodes=n)


@st.composite
def frontiers(draw, n):
    """Unsorted, duplicated or empty node-id arrays."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    ids = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return np.array(ids, dtype=np.int64)


@st.composite
def bfs_cases(draw, level_synchronous):
    """(graph, frontier, levels): every frontier node on one level, or at
    least two distinct levels on the frontier.  Levels include UNSET, on
    frontier nodes too."""
    graph = draw(relax_graphs())
    n = graph.num_nodes
    frontier = draw(frontiers(n))
    levels = np.array(
        draw(st.lists(st.integers(-1, 6), min_size=n, max_size=n)), dtype=np.int64
    )
    if level_synchronous:
        levels[frontier] = draw(st.integers(-1, 6))
    else:
        assume(np.unique(levels[frontier]).size >= 2)
    return graph, frontier, levels


def _assert_same_relax(got, want, values, ref_values):
    updated, degrees, improved, edges = got
    ref_updated, ref_degrees, ref_improved, ref_edges = want
    assert updated.dtype == np.int64 and ref_updated.dtype == np.int64
    assert np.array_equal(updated, ref_updated)
    assert degrees.dtype == ref_degrees.dtype
    assert np.array_equal(degrees, ref_degrees)
    assert (improved, edges) == (ref_improved, ref_edges)
    assert values.dtype == ref_values.dtype
    assert np.array_equal(values, ref_values)


class TestRelaxMatchesReference:
    @pytest.mark.parametrize("ordered", [False, True])
    @pytest.mark.parametrize("level_synchronous", [True, False])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bfs(self, data, ordered, level_synchronous):
        graph, frontier, levels = data.draw(bfs_cases(level_synchronous))
        ref_levels = levels.copy()
        got = bfs_relax(graph, frontier, levels, ordered=ordered)
        want = _ref_bfs_relax(graph, frontier, ref_levels, ordered=ordered)
        _assert_same_relax(got, want, levels, ref_levels)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_sssp(self, data):
        graph = data.draw(relax_graphs())
        n = graph.num_nodes
        frontier = data.draw(frontiers(n))
        dist = np.array(
            data.draw(st.lists(_DISTANCES, min_size=n, max_size=n)), dtype=np.float64
        )
        ref_dist = dist.copy()
        got = sssp_relax(graph, frontier, dist)
        want = _ref_sssp_relax(graph, frontier, ref_dist)
        _assert_same_relax(got, want, dist, ref_dist)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cc(self, data):
        graph = data.draw(relax_graphs())
        n = graph.num_nodes
        assume(n > 0)
        ids = data.draw(frontiers(n))
        assume(ids.size > 0)
        labels = np.array(
            data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        ref_labels = labels.copy()
        workset = Workset.from_update_ids(ids, WorksetRepr.BITMAP)
        got = cc_step(graph, workset, labels, UTBM, 192, TESLA_C2070)
        want = _ref_cc_step(graph, workset, ref_labels, UTBM, 192, TESLA_C2070)
        assert got.updated.dtype == np.int64
        assert np.array_equal(got.updated, want.updated)
        assert got.tally == want.tally
        assert (got.improved_relaxations, got.edges_scanned, got.processed) == (
            want.improved_relaxations, want.edges_scanned, want.processed
        )
        assert labels.dtype == ref_labels.dtype
        assert np.array_equal(labels, ref_labels)

    def test_cc_empty_workset_rejected(self, tiny_graph):
        labels = np.arange(5, dtype=np.int64)
        workset = Workset.from_update_ids(np.array([]), WorksetRepr.BITMAP)
        with pytest.raises(KernelError):
            cc_step(tiny_graph, workset, labels, UTBM, 192, TESLA_C2070)
