"""Tests for repro.kernels.computation (functional step semantics)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.runtime import adaptive_run, run_static
from repro.cpu import cpu_bfs
from repro.engine.driver import FrameContext
from repro.engine.incremental import run_incremental
from repro.engine.shard import run_sharded
from repro.engine.spec import FrameState
from repro.errors import KernelError
from repro.graph.builder import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DeltaOverlayGraph, EdgeBatch
from repro.graph.generators import attach_uniform_weights, chain_graph, rmat_graph
from repro.graph.partition import partition_graph
from repro.graph.properties import _ragged_gather_indices, sorted_unique
from repro.gpusim.device import TESLA_C2070
from repro.gpusim.kernel import CostModel
from repro.gpusim.timeline import Timeline
from repro.kernels import computation, costs
from repro.kernels.cc import CcSpec
from repro.kernels.computation import (
    INF,
    OrderedSsspState,
    UNSET_LEVEL,
    bfs_relax,
    sssp_ordered_step,
    sssp_relax,
)
from repro.kernels.findmin import findmin
from repro.kernels.frame import BfsSpec, SsspSpec
from repro.kernels.mapping import ComputationShape, computation_tally
from repro.kernels.variants import Variant


def fresh_levels(n, source):
    levels = np.full(n, UNSET_LEVEL, dtype=np.int64)
    levels[source] = 0
    return levels


def fresh_dist(n, source):
    dist = np.full(n, INF, dtype=np.float64)
    dist[source] = 0.0
    return dist


UTBM = Variant.parse("U_T_BM")
UTQU = Variant.parse("U_T_QU")
OTBM = Variant.parse("O_T_BM")


def relax_and_price(spec, graph, frontier, values, variant=UTBM):
    """One computation step through the spec's ``compute`` — its
    relaxation plus the shared launch pricing: ``(outcome, tally)``."""
    state = FrameState(values, np.asarray(frontier, dtype=np.int64))
    ctx = FrameContext(
        graph, TESLA_C2070, CostModel(TESLA_C2070), Timeline(), "atomic", 0
    )
    outcome = spec.compute(ctx, state, variant, 192)
    (record,) = ctx.timeline.kernels
    return outcome, record.tally


class TestBfsStep:
    def test_one_step_expands_frontier(self, tiny_graph):
        levels = fresh_levels(5, 0)
        step, tally = relax_and_price(BfsSpec(), tiny_graph, [0], levels)
        assert step.next_frontier.tolist() == [1, 2]
        assert levels[1] == 1 and levels[2] == 1
        assert tally.name == "bfs_comp"

    def test_no_rediscovery(self, tiny_graph):
        levels = fresh_levels(5, 0)
        step, _ = relax_and_price(BfsSpec(), tiny_graph, [0], levels)
        step2, _ = relax_and_price(BfsSpec(), tiny_graph, step.next_frontier, levels)
        # 1->2 does not re-add node 2 (level would not improve).
        assert 2 not in step2.next_frontier.tolist()
        assert step2.next_frontier.tolist() == [3, 4]

    def test_ordered_first_touch_only(self, tiny_graph):
        levels = fresh_levels(5, 0)
        step, tally = relax_and_price(BfsSpec(), tiny_graph, [0], levels, OTBM)
        assert step.next_frontier.tolist() == [1, 2]
        # The ordered launch pays the key-check guard on every element.
        _, plain = relax_and_price(BfsSpec(), tiny_graph, [0], fresh_levels(5, 0))
        assert tally.issue_cycles > plain.issue_cycles

    def test_edges_scanned_counts_frontier_degrees(self, star_64):
        levels = fresh_levels(64, 0)
        step, _ = relax_and_price(BfsSpec(), star_64, [0], levels, UTQU)
        assert step.edges_scanned == 63
        assert step.updated_count == step.next_frontier.size == 63

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
        step, tally = relax_and_price(SsspSpec(), tiny_weighted, [0], dist, UTQU)
        assert dist[1] == 1.0 and dist[2] == 4.0
        assert step.next_frontier.tolist() == [1, 2]
        assert tally.name == "sssp_comp"

    def test_improvement_only(self, tiny_weighted):
        dist = fresh_dist(5, 0)
        dist[1], dist[2] = 1.0, 3.0  # 2 already better than via 0 (4.0)
        step, _ = relax_and_price(SsspSpec(), tiny_weighted, [0], dist, UTQU)
        assert step.next_frontier.size == 0

    def test_multiple_candidates_take_min(self):
        # two paths into node 2: 0->2 (10) and 1->2 (1); frontier {0,1}
        g = attach_uniform_weights(chain_graph(3), seed=0)
        g = g.with_weights([5.0, 5.0, 1.0, 1.0])  # 0-1 (5), 1-2 (1)
        dist = fresh_dist(3, 0)
        dist[1] = 5.0
        relax_and_price(SsspSpec(), g, [0, 1], dist, UTQU)
        assert dist[2] == 6.0

    def test_requires_weights(self, tiny_graph):
        # The SSSP door rejects an unweighted graph before any relaxation.
        with pytest.raises(KernelError, match="requires edge weights"):
            SsspSpec().validate(tiny_graph, 0)
        with pytest.raises(KernelError, match="requires edge weights"):
            run_static(tiny_graph, 0, "sssp", "U_T_QU")


class TestOrderedSssp:
    def test_settles_min_first(self, tiny_weighted):
        state = OrderedSsspState.initial(5, 0, dedupe=True)
        _, settled, _, _ = sssp_ordered_step(
            tiny_weighted, state, findmin(state.ws_keys), OTBM, 192, TESLA_C2070
        )
        assert state.dist[0] == 0.0
        assert settled == 1
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
        _, settled, _, _ = sssp_ordered_step(
            tiny_weighted, state, 2.0, OTBM, 192, TESLA_C2070
        )
        assert settled == 0
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


def _ref_cc_step(graph, frontier, labels, variant, threads_per_block, device,
                 *, name="cc_comp"):
    """One CC sweep and its launch tally: ``(updated, tally,
    improved_relaxations, edges_scanned, processed)``."""
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
    return updated, tally, improved_count, int(idx.size), int(frontier.size)


# The push-only BFS relax the pull path joined, copied verbatim: it
# compares levels as uint64 and stores a level-synchronous candidate with
# one scalar store (so frontier levels below -1 raise OverflowError).

_PARENT_UNSET_UNSIGNED = np.iinfo(np.uint64).max


def _parent_gather_edges(graph: CSRGraph, nodes: np.ndarray):
    """Edge indices, destinations and per-node degrees for *nodes*.

    Destinations are widened to int64 once: NumPy indexes with int32
    ids through a casting path that costs more than the copy, and every
    relaxation indexes the value array with them.
    """
    starts = graph.row_offsets[nodes]
    ends = graph.row_offsets[nodes + 1]
    degrees = ends - starts
    idx = _ragged_gather_indices(starts, ends)
    return idx, graph.col_indices[idx].astype(np.int64), degrees


def _parent_scatter_min(values: np.ndarray, dst: np.ndarray, improving: np.ndarray, cand):
    """Lower ``values`` at the improving edges' destinations to their
    candidates (the minimum per destination).

    Returns ``(updated, improved_count)``.  Every improving candidate
    lies strictly below its destination's value, so the distinct touched
    destinations are exactly the nodes that changed: the update vector,
    found without a |V|-wide copy and compare.  A scalar *cand* (one
    candidate for every edge) is a plain store.
    """
    # Positions, then takes: boolean-mask indexing is several times
    # slower on the mixed masks a relaxation produces.
    hit = np.flatnonzero(improving)
    if hit.size == 0:
        return np.empty(0, dtype=np.int64), 0
    touched = dst[hit]
    if np.ndim(cand):
        np.minimum.at(values, touched, cand[hit])
    else:
        values[touched] = cand
    return sorted_unique(touched), int(hit.size)


def _parent_bfs_relax(
    graph: CSRGraph,
    frontier: np.ndarray,
    levels: np.ndarray,
    *,
    ordered: bool = False,
):
    """The BFS relaxation itself, independent of the execution substrate.

    Mutates *levels* (int64, ``-1`` unset) in place and returns
    ``(updated_ids, degrees, improved_count, edges_scanned)``.  Shared by
    the simulated GPU kernels and the hybrid runtime's CPU iterations.

    Levels are compared as uint64, where unset (-1) is the largest
    value, so "unset or worse" is one compare.  A level-synchronous
    frontier (every node on one level, the only kind a from-scratch BFS
    produces) offers a single candidate level; a mixed one (incremental
    seeding) offers one per edge and keeps the minimum per destination.
    """
    if levels.dtype != np.int64:
        raise KernelError(f"BFS levels must be int64, got {levels.dtype}")
    idx, dst, degrees = _parent_gather_edges(graph, frontier)
    base = levels[frontier]
    if base.size and (base != base[0]).any():
        cand = np.repeat(base + 1, degrees).view(np.uint64)
    else:
        cand = int(base[0]) + 1 if base.size else 0
    unsigned = levels.view(np.uint64)
    old = unsigned[dst]
    improving = old == _PARENT_UNSET_UNSIGNED if ordered else old > cand
    updated, improved = _parent_scatter_min(unsigned, dst, improving, cand)
    return updated, degrees, improved, int(idx.size)


def _with_transpose(graph):
    """A graph with *graph*'s arrays that already holds its transpose."""
    held = CSRGraph(
        graph.row_offsets, graph.col_indices, graph.weights,
        name=graph.name, validate=False,
    )
    held.reverse()
    return held


def _relax_outcome(relax, graph, frontier, levels, ordered):
    """*relax*'s result, or OverflowError when it stored a candidate
    below -1 (a frontier level below -1) into the uint64 view."""
    try:
        return relax(graph, frontier, levels, ordered=ordered)
    except OverflowError:
        return OverflowError


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


_INT64 = np.iinfo(np.int64)
#: levels anywhere in int64: unset, other negatives, the extremes
_ANY_LEVEL = st.one_of(
    st.integers(-1, 6),
    st.sampled_from([-2, -7, int(_INT64.min), int(_INT64.max), int(_INT64.max) - 1]),
)


@st.composite
def pull_cases(draw):
    """(graph, frontier, levels): dense graphs with multi-edges,
    self-loops and nodes without in-edges, and a strictly ascending
    level-synchronous frontier, wide enough to pull or not."""
    graph = draw(relax_graphs(max_nodes=10, max_edges=60))
    n = graph.num_nodes
    assume(n > 0)
    ids = draw(st.sets(st.integers(0, n - 1), min_size=1))
    frontier = np.array(sorted(ids), dtype=np.int64)
    levels = np.array(draw(st.lists(_ANY_LEVEL, min_size=n, max_size=n)), dtype=np.int64)
    levels[frontier] = draw(_ANY_LEVEL)
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
        want = _ref_bfs_relax(graph, frontier, ref_levels, ordered=ordered)
        for g in (graph, _with_transpose(graph)):
            got_levels = levels.copy()
            got = bfs_relax(g, frontier, got_levels, ordered=ordered)
            _assert_same_relax(got, want, got_levels, ref_levels)

    @pytest.mark.parametrize("ordered", [False, True])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bfs_pull_matches_parent(self, data, ordered):
        """Push or pull, the relax answers as the push-only relax did,
        exceptions included."""
        graph, frontier, levels = data.draw(pull_cases())
        ref_levels = levels.copy()
        want = _relax_outcome(_parent_bfs_relax, graph, frontier, ref_levels, ordered)
        for g in (graph, _with_transpose(graph)):
            got_levels = levels.copy()
            got = _relax_outcome(bfs_relax, g, frontier, got_levels, ordered)
            if isinstance(want, type):
                assert got is want
                assert np.array_equal(got_levels, ref_levels)
            else:
                _assert_same_relax(got, want, got_levels, ref_levels)

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

    @given(data=st.data(), slice_edges=st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_sssp_in_slices(self, data, slice_edges):
        """A frontier relaxed in slices of a few edges answers as one
        pass does."""
        graph = data.draw(relax_graphs())
        n = graph.num_nodes
        frontier = data.draw(frontiers(n))
        dist = np.array(
            data.draw(st.lists(_DISTANCES, min_size=n, max_size=n)), dtype=np.float64
        )
        ref_dist = dist.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(computation, "_SLICE_EDGES", slice_edges)
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
        # The relaxation's precondition: a strictly ascending frontier.
        frontier = sorted_unique(ids)
        got, tally = relax_and_price(CcSpec(), graph, frontier, labels)
        updated, ref_tally, improved, edges, processed = _ref_cc_step(
            graph, frontier, ref_labels, UTBM, 192, TESLA_C2070
        )
        assert got.next_frontier.dtype == np.int64
        assert np.array_equal(got.next_frontier, updated)
        assert tally == ref_tally
        assert (got.improved_relaxations, got.edges_scanned, got.processed) == (
            improved, edges, processed
        )
        assert labels.dtype == ref_labels.dtype
        assert np.array_equal(labels, ref_labels)


# ----------------------------------------------------------------------
# Push or pull: which one runs, and that each fallback pushes
# ----------------------------------------------------------------------

def _wide_level(extra_nodes=0, extra_edges=()):
    """(graph, frontier, levels): frontier {0, 1} on level 1 with ten
    out-edges (multi-edges and a self-loop among them) to visited nodes
    2 and 3 and unvisited nodes 4 and 5; node 5 also reaches 0.  Pull
    wins: U = {4, 5} has two in-edges against E_f = 10 >= |V| = 6."""
    src = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 5] + [u for u, _ in extra_edges]
    dst = [2, 2, 2, 3, 3, 5, 2, 2, 1, 4, 0] + [v for _, v in extra_edges]
    graph = from_edge_list(src, dst, num_nodes=6 + extra_nodes)
    levels = np.full(graph.num_nodes, UNSET_LEVEL, dtype=np.int64)
    levels[[0, 1, 2, 3]] = [1, 1, 0, 1]
    return graph, np.array([0, 1], dtype=np.int64), levels


@pytest.fixture
def pulls(monkeypatch):
    """Whether each call of the pull helper answered (True) or left the
    level to push (False)."""
    seen = []
    helper = computation._pull_level

    def spy(*args):
        result = helper(*args)
        seen.append(result is not None)
        return result

    monkeypatch.setattr(computation, "_pull_level", spy)
    return seen


class TestPullChoice:
    def _relax(self, graph, frontier, levels, ordered=False):
        ref_levels = levels.copy()
        want = _parent_bfs_relax(graph, frontier, ref_levels, ordered=ordered)
        got = bfs_relax(graph, frontier, levels, ordered=ordered)
        _assert_same_relax(got, want, levels, ref_levels)
        return got

    @pytest.mark.parametrize("ordered", [False, True])
    def test_wide_level_pulls(self, pulls, ordered):
        graph, frontier, levels = _wide_level()
        graph.reverse()
        updated, _, improved, edges = self._relax(graph, frontier, levels, ordered)
        assert pulls == [True]
        assert updated.tolist() == [4, 5]
        assert (improved, edges) == (2, 10)

    def test_unordered_lowers_a_level(self, pulls):
        graph, frontier, levels = _wide_level()
        graph.reverse()
        levels[3] = 5
        updated, _, improved, _ = self._relax(graph, frontier, levels)
        assert pulls == [True]
        assert updated.tolist() == [3, 4, 5] and improved == 4

    @pytest.mark.parametrize("ordered", [False, True])
    def test_nodes_without_in_edges_stay_out_of_u(self, pulls, ordered):
        # Unvisited nodes 4 and 6 have no in-edge; 5 has one from the
        # frontier.  U = {5}: an empty in-row must not borrow a hit.
        src = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1]
        dst = [2, 2, 2, 3, 3, 5, 2, 2, 1, 3]
        graph = from_edge_list(src, dst, num_nodes=7)
        graph.reverse()
        levels = np.full(7, UNSET_LEVEL, dtype=np.int64)
        levels[[0, 1, 2, 3]] = [1, 1, 0, 1]
        frontier = np.array([0, 1], dtype=np.int64)
        updated, _, improved, edges = self._relax(graph, frontier, levels, ordered)
        assert pulls == [True]
        assert updated.tolist() == [5] and (improved, edges) == (1, 10)

    def test_no_transpose_pushes(self, pulls):
        graph, frontier, levels = _wide_level()
        self._relax(graph, frontier, levels)
        assert pulls == []

    def test_mixed_levels_push(self, pulls):
        graph, frontier, levels = _wide_level()
        graph.reverse()
        levels[1] = 0
        self._relax(graph, frontier, levels)
        assert pulls == [False]

    @pytest.mark.parametrize("frontier", [[1, 0], [0, 0, 1]])
    def test_unsorted_or_duplicated_frontier_pushes(self, pulls, frontier):
        graph, _, levels = _wide_level()
        graph.reverse()
        self._relax(graph, np.array(frontier, dtype=np.int64), levels)
        assert pulls == [False]

    @pytest.mark.parametrize("wide_span", [False, True])
    def test_fewer_frontier_edges_than_nodes_pushes(self, pulls, wide_span):
        if wide_span:
            # Frontier {0, 2}: its row span takes in node 1's ten
            # self-loops and reaches |V| = 8, but its E_f = 5 does not.
            graph = from_edge_list(
                [0, 0, 0] + [1] * 10 + [2, 2], [3, 4, 1] + [1] * 10 + [5, 1],
                num_nodes=8,
            )
            frontier = np.array([0, 2], dtype=np.int64)
            levels = np.full(8, UNSET_LEVEL, dtype=np.int64)
            levels[[0, 1, 2]] = [1, 0, 1]
        else:
            graph, frontier, levels = _wide_level(extra_nodes=5)
        graph.reverse()
        self._relax(graph, frontier, levels)
        assert pulls == [False]

    def test_costlier_in_edges_push(self, pulls):
        # Eight more in-edges of node 4 from visited node 2: U's ten
        # in-edges no longer undercut E_f = 10.
        graph, frontier, levels = _wide_level(extra_edges=[(2, 4)] * 8)
        graph.reverse()
        self._relax(graph, frontier, levels)
        assert pulls == [False]


class TestTransposeHolders:
    """Which runs' graphs hold a transpose, and so may pull: a fresh
    whole-graph BFS builds its graph's, a warm start and a shard view
    hold none."""

    @staticmethod
    def _wide():
        # Two of its levels are wide enough to pull.
        return rmat_graph(8, 8.0, seed=3)

    def test_fresh_adaptive_run_pulls_and_keeps_the_transpose(self, pulls):
        graph = self._wide()
        result = adaptive_run(graph, "bfs", 0)
        assert True in pulls
        assert graph._reverse is not None
        np.testing.assert_array_equal(result.values, cpu_bfs(graph, 0).levels)

    def test_incremental_run_leaves_its_graph_without_one(self, pulls):
        graph = self._wide()
        previous = adaptive_run(graph, "bfs", 0).values
        overlay = DeltaOverlayGraph(graph)
        delta = overlay.apply(EdgeBatch.inserts([(0, 200), (5, 7), (9, 250)]))
        mutated = overlay.compact().graph
        pulls.clear()
        run_incremental(mutated, "bfs", previous, delta, source=0)
        assert mutated._reverse is None
        assert pulls == []

    def test_sharded_run_pulls_on_no_shard_view(self, pulls):
        graph = self._wide()
        graph.reverse()
        result = run_sharded(
            graph, 0, algorithm="bfs", num_devices=4, partition="balanced"
        )
        assert pulls == []
        for shard in partition_graph(graph, 4, strategy="balanced"):
            assert shard.view(graph.num_nodes)._reverse is None
        np.testing.assert_array_equal(result.values, cpu_bfs(graph, 0).levels)
