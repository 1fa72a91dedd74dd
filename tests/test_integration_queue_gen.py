"""Integration: queue-generation schemes across algorithms and the
adaptive runtime — every scheme must preserve results while reordering
only the cost structure."""

import numpy as np
import pytest

from repro import RuntimeConfig, adaptive_run, run_static
from repro.graph.generators import attach_uniform_weights, power_law_graph
from repro.kernels.workset import QUEUE_GEN_SCHEMES


@pytest.fixture(scope="module")
def workload():
    g = power_law_graph(8_000, alpha=1.9, max_degree=150, seed=27)
    w = attach_uniform_weights(g, seed=28)
    src = int(np.argmax(g.out_degrees))
    return g, w, src


@pytest.mark.parametrize("scheme", QUEUE_GEN_SCHEMES)
class TestSchemesPreserveResults:
    def test_bfs(self, scheme, workload):
        g, _, src = workload
        base = run_static(g, src, "bfs", "U_T_QU")
        other = run_static(g, src, "bfs", "U_T_QU", queue_gen=scheme)
        assert np.array_equal(base.values, other.values)
        assert base.num_iterations == other.num_iterations

    def test_sssp(self, scheme, workload):
        _, w, src = workload
        base = run_static(w, src, "sssp", "U_B_QU")
        other = run_static(w, src, "sssp", "U_B_QU", queue_gen=scheme)
        assert np.allclose(base.values, other.values)

    def test_cc(self, scheme, workload):
        g, _, _ = workload
        base = run_static(g, -1, "cc", "U_B_QU")
        other = run_static(g, -1, "cc", "U_B_QU", queue_gen=scheme)
        assert np.array_equal(base.values, other.values)

    def test_pagerank(self, scheme, workload):
        g, _, _ = workload
        base = run_static(g, -1, "pagerank", "U_T_QU", tolerance=1e-6)
        other = run_static(
            g, -1, "pagerank", "U_T_QU", tolerance=1e-6, queue_gen=scheme,
        )
        assert np.array_equal(base.values, other.values)

    def test_adaptive(self, scheme, workload):
        g, w, src = workload
        cfg = RuntimeConfig(queue_gen=scheme)
        assert np.array_equal(
            adaptive_run(g, "bfs", src, config=cfg).values,
            adaptive_run(g, "bfs", src).values,
        )
        assert np.allclose(
            adaptive_run(w, "sssp", src, config=cfg).values,
            adaptive_run(w, "sssp", src).values,
        )


class TestSchemeCostOrdering:
    def test_bitmap_variants_unaffected(self, workload):
        """Schemes only touch the queue path; bitmap runs are identical
        down to the simulated time."""
        g, _, src = workload
        times = {
            scheme: run_static(g, src, "bfs", "U_T_BM", queue_gen=scheme).total_seconds
            for scheme in QUEUE_GEN_SCHEMES
        }
        assert len(set(times.values())) == 1

    def test_queue_costs_differ(self, workload):
        g, _, src = workload
        times = {
            scheme: run_static(g, src, "bfs", "U_T_QU", queue_gen=scheme).total_seconds
            for scheme in QUEUE_GEN_SCHEMES
        }
        assert len(set(times.values())) == 3
        assert times["hierarchical"] <= times["atomic"]
