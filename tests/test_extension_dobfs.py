"""Tests for direction-optimizing (push/pull) BFS, run through the
default door (``run_default``) under the policy its spec names."""

import numpy as np
import pytest

from repro.core import run_default, run_static
from repro.cpu import cpu_bfs
from repro.errors import KernelError
from repro.graph.generators import (
    balanced_tree,
    chain_graph,
    erdos_renyi_graph,
    power_law_graph,
    star_graph,
)
from repro.kernels.computation import UNSET_LEVEL
from repro.kernels.dobfs import DirectionConfig, pull_step
from repro.gpusim.device import TESLA_C2070


class TestPullStep:
    def test_single_pull_matches_level(self):
        g = star_graph(50)
        levels = np.full(50, UNSET_LEVEL, dtype=np.int64)
        levels[0] = 0
        mask = np.zeros(50, dtype=bool)
        mask[0] = True
        new_frontier, tally, edges = pull_step(
            g, g, mask, levels, 1, 192, TESLA_C2070
        )
        assert sorted(new_frontier.tolist()) == list(range(1, 50))
        assert np.all(levels[1:] == 1)
        # Every leaf finds the hub on its first in-edge.
        assert edges == 49

    def test_early_exit_counts_edges(self):
        # chain 0-1-2: from frontier {0}, node 1 hits at its first
        # in-neighbor; node 2 scans both its in-neighbors and misses.
        g = chain_graph(3)
        levels = np.array([0, UNSET_LEVEL, UNSET_LEVEL], dtype=np.int64)
        mask = np.array([True, False, False])
        new_frontier, _, edges = pull_step(g, g, mask, levels, 1, 192, TESLA_C2070)
        assert new_frontier.tolist() == [1]
        assert edges <= g.num_edges

    def test_no_unvisited(self):
        g = chain_graph(3)
        levels = np.array([0, 1, 2], dtype=np.int64)
        mask = np.zeros(3, dtype=bool)
        new_frontier, tally, edges = pull_step(g, g, mask, levels, 3, 192, TESLA_C2070)
        assert new_frontier.size == 0
        assert tally is None


class TestDirectionOptimizingBfs:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: chain_graph(60),
            lambda: star_graph(200),
            lambda: balanced_tree(3, 5),
            lambda: erdos_renyi_graph(400, 2400, seed=21),
            lambda: power_law_graph(500, alpha=1.7, max_degree=120, seed=22),
        ],
    )
    def test_levels_match_cpu(self, maker):
        g = maker()
        result = run_default(g, 0, "dobfs")
        assert np.array_equal(result.values, cpu_bfs(g, 0).levels)

    def test_dense_graph_uses_pull(self):
        g = power_law_graph(20_000, alpha=1.6, max_degree=800, seed=23,
                            symmetric=True)
        src = int(np.argmax(g.out_degrees))
        result = run_default(g, src, "dobfs")
        assert "pull" in result.variants_used()
        assert np.array_equal(result.values, cpu_bfs(g, src).levels)

    def test_sparse_chain_stays_push(self):
        result = run_default(chain_graph(300), 0, "dobfs")
        assert set(result.variants_used()) == {"push"}

    def test_pull_scans_fewer_edges(self):
        g = power_law_graph(20_000, alpha=1.6, max_degree=800, seed=23,
                            symmetric=True)
        src = int(np.argmax(g.out_degrees))
        push = run_static(g, src, "bfs", "U_T_BM")
        do = run_default(g, src, "dobfs")
        assert do.total_edges_scanned < 0.5 * push.total_edges_scanned

    def test_thresholds_validated(self):
        with pytest.raises(KernelError):
            DirectionConfig(alpha=0)
        with pytest.raises(KernelError):
            DirectionConfig(beta=-1)

    def test_alpha_extremes(self):
        g = erdos_renyi_graph(2_000, 16_000, seed=24)
        # Tiny alpha raises the switch threshold to m/alpha >> m: never pull.
        never_pull = run_default(
            g, 0, "dobfs", config=DirectionConfig(alpha=1e-9)
        )
        assert set(never_pull.variants_used()) == {"push"}
        assert np.array_equal(never_pull.values, cpu_bfs(g, 0).levels)
        # Huge alpha drops the threshold to ~0: pull engages immediately
        # (beta=0+ keeps it there), and the answer is still right.
        eager_pull = run_default(
            g, 0, "dobfs", config=DirectionConfig(alpha=1e9, beta=1e9)
        )
        assert "pull" in eager_pull.variants_used()
        assert np.array_equal(eager_pull.values, cpu_bfs(g, 0).levels)

    def test_directed_graph_uses_reverse(self, tiny_graph):
        result = run_default(tiny_graph, 0, "dobfs")
        assert np.array_equal(result.values, cpu_bfs(tiny_graph, 0).levels)

    def test_algorithm_tag(self):
        r = run_default(chain_graph(5), 0, "dobfs")
        assert r.algorithm == "dobfs"
        assert r.policy_name == "direction-optimizing"


class TestObservedDobfs:
    def test_dobfs_accepts_observe(self):
        from repro.obs import Observer, observing

        g = power_law_graph(4000, alpha=1.9, max_degree=200, seed=6)
        observer = Observer()
        with observing(observer):
            result = run_default(g, 0, "dobfs")
        snap = observer.metrics.snapshot()
        assert snap["frame.iterations"]["value"] == result.num_iterations
        assert snap["gpusim.kernel_launches"]["value"] > 0
        names = [s.name for s in observer.spans.spans]
        assert names.count("iteration") == result.num_iterations

    def test_observation_does_not_change_result(self):
        from repro.obs import Observer, observing

        g = power_law_graph(4000, alpha=1.9, max_degree=200, seed=6)
        plain = run_default(g, 0, "dobfs")
        with observing(Observer()):
            observed = run_default(g, 0, "dobfs")
        assert np.array_equal(plain.values, observed.values)
        assert plain.total_seconds == observed.total_seconds
