"""Tests for repro.graph.properties."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.graph.builder import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.generators import balanced_tree, chain_graph, star_graph
from repro.graph.properties import (
    _ragged_gather_indices,
    bfs_levels,
    characterize,
    is_symmetric,
    largest_out_component_node,
    out_degree_histogram,
    pseudo_diameter,
    reachable_count,
    sorted_unique,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class TestRaggedGather:
    def test_basic(self):
        idx = _ragged_gather_indices(np.array([0, 5]), np.array([2, 7]))
        assert idx.tolist() == [0, 1, 5, 6]

    def test_zero_length_segments(self):
        idx = _ragged_gather_indices(np.array([0, 3, 3, 8]), np.array([2, 3, 3, 9]))
        assert idx.tolist() == [0, 1, 8]

    def test_all_empty(self):
        idx = _ragged_gather_indices(np.array([4, 4]), np.array([4, 4]))
        assert idx.size == 0

    def test_trailing_zero_segment(self):
        # Regression: a trailing zero-length segment used to index out of
        # bounds in the difference-encoding.
        idx = _ragged_gather_indices(np.array([0, 2]), np.array([2, 2]))
        assert idx.tolist() == [0, 1]

    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, 50, size=20)
        ends = starts + rng.integers(0, 6, size=20)
        expected = np.concatenate(
            [np.arange(s, e) for s, e in zip(starts, ends)] or [np.empty(0, int)]
        )
        assert _ragged_gather_indices(starts, ends).tolist() == expected.tolist()


class TestSortedUnique:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [7],
            [3, 3, 3, 3],
            [5, 1, 4, 1, 5, 9, 2, 6, 5, 3],
            [0, 1, 2, 3],
            [-4, 2**20, -4, 0, 2**20],
        ],
        ids=["empty", "single", "all-equal", "unsorted", "sorted", "negative"],
    )
    def test_matches_np_unique(self, values, dtype):
        arr = np.array(values, dtype=dtype)
        got = sorted_unique(arr)
        want = np.unique(arr)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_matches_np_unique_random(self, dtype):
        rng = np.random.default_rng(7)
        for size in (2, 17, 1000):
            arr = rng.integers(0, size // 2 + 1, size=size).astype(dtype)
            got = sorted_unique(arr)
            assert got.dtype == dtype
            assert np.array_equal(got, np.unique(arr))

    def test_input_untouched(self):
        arr = np.array([3, 1, 3], dtype=np.int64)
        sorted_unique(arr)
        assert arr.tolist() == [3, 1, 3]

    def test_no_hashing_np_unique_in_src(self):
        """Value-only ``np.unique`` hashes integer input on recent NumPy;
        ``sorted_unique`` replaces it everywhere under ``src/``.  Calls
        that ask for ``return_index``/``return_inverse``/``return_counts``
        take NumPy's sort-based path and are allowed."""
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                ):
                    continue
                if not any(
                    kw.arg is not None and kw.arg.startswith("return_")
                    for kw in node.keywords
                ):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert not offenders, (
            "use repro.graph.properties.sorted_unique instead of np.unique at "
            + ", ".join(offenders)
        )


class TestBfsLevels:
    def test_chain(self):
        levels = bfs_levels(chain_graph(6), 0)
        assert levels.tolist() == [0, 1, 2, 3, 4, 5]

    def test_from_middle(self):
        levels = bfs_levels(chain_graph(5), 2)
        assert levels.tolist() == [2, 1, 0, 1, 2]

    def test_unreachable(self, tiny_graph):
        levels = bfs_levels(tiny_graph, 3)  # 3 -> 4 only
        assert levels[3] == 0 and levels[4] == 1
        assert (levels[[0, 1, 2]] == -1).all()

    def test_isolated_source(self):
        g = CSRGraph.empty(3)
        levels = bfs_levels(g, 1)
        assert levels.tolist() == [-1, 0, -1]


class TestReachability:
    def test_reachable_count(self, tiny_graph):
        assert reachable_count(tiny_graph, 0) == 5
        assert reachable_count(tiny_graph, 4) == 1

    def test_largest_component_node(self):
        # Two components: a big star (0..49) and an isolated pair.
        g = from_edge_list(
            [0] * 49 + [50], list(range(1, 50)) + [51], num_nodes=52, symmetric=True
        )
        node = largest_out_component_node(g, seed=0)
        assert reachable_count(g, node) == 50


class TestPseudoDiameter:
    def test_chain_exact(self):
        assert pseudo_diameter(chain_graph(30), seed=0) == 29

    def test_star_small(self):
        assert pseudo_diameter(star_graph(30), seed=0) == 2

    def test_tree(self):
        assert pseudo_diameter(balanced_tree(2, 4), seed=0) == 8

    def test_empty(self):
        assert pseudo_diameter(CSRGraph.empty(0)) == 0


class TestSymmetry:
    def test_symmetric(self):
        assert is_symmetric(chain_graph(5))

    def test_directed(self, tiny_graph):
        assert not is_symmetric(tiny_graph)


class TestCharacterize:
    def test_table1_row(self, tiny_graph):
        c = characterize(tiny_graph)
        assert c.num_nodes == 5
        assert c.num_edges == 6
        assert c.min_out_degree == 0
        assert c.max_out_degree == 2
        assert c.avg_out_degree == pytest.approx(1.2)
        assert c.pseudo_diameter is None

    def test_with_diameter(self):
        c = characterize(chain_graph(10), estimate_diameter=True, seed=0)
        assert c.pseudo_diameter == 9

    def test_empty_graph(self):
        c = characterize(CSRGraph.empty(0))
        assert c.num_nodes == 0

    def test_table_row_shape(self, tiny_graph):
        row = characterize(tiny_graph).table_row()
        assert len(row) == 6
        assert row[0] == "tiny"


class TestDegreeHistogram:
    def test_total_matches_nodes(self, skewed_graph):
        h = out_degree_histogram(skewed_graph)
        assert h.total == skewed_graph.num_nodes

    def test_star_concentration(self):
        h = out_degree_histogram(star_graph(100))
        # 99 leaves with degree 1 dominate.
        assert max(h.fractions) > 0.9
