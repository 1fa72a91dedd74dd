"""Tests for repro.core.tuning (threshold sweeps) and the analytical
T1/T2 of repro.core.config."""

import pytest

from repro.core.config import derive_t1, derive_t2
from repro.core.tuning import (
    measure_t2_crossover,
    sweep_t3,
    tune_t3,
    T3SweepPoint,
)
from repro.errors import TuningError
from repro.graph.csr import CSRGraph
from repro.graph.generators import attach_uniform_weights, erdos_renyi_graph, power_law_graph
from repro.gpusim.device import GTX_580, TESLA_C2070


class TestDerivedThresholds:
    def test_t1_is_warp_size(self):
        assert derive_t1(TESLA_C2070) == 32.0

    def test_t2_paper_value(self):
        # "192 * 14 = 2,688 nodes" (Section VII.B).
        assert derive_t2(TESLA_C2070) == 2688

    def test_t2_other_device(self):
        assert derive_t2(GTX_580) == 3072


class TestT2Crossover:
    def test_crossover_in_paper_band(self):
        """B_QU wins small working sets; T_QU catches up in the low
        thousands ("~3000", Section VII.B)."""
        g = erdos_renyi_graph(100_000, 450_000, seed=2)
        crossover, rows = measure_t2_crossover(g, seed=0)
        assert 512 <= crossover <= 16_384
        # The measured rows must actually show B winning in the band just
        # below the crossover (far below it, everything is launch-overhead
        # noise and the two are within a microsecond of each other).
        below = [r for r in rows if crossover // 16 <= r[0] < crossover // 2]
        assert below and all(b <= t for _, t, b in below)

    def test_rows_cover_sizes(self):
        g = erdos_renyi_graph(5_000, 20_000, seed=3)
        _, rows = measure_t2_crossover(g, sizes=[64, 256, 1024], seed=0)
        assert [r[0] for r in rows] == [64, 256, 1024]

    def test_tiny_graph_rejected(self):
        with pytest.raises(TuningError):
            measure_t2_crossover(CSRGraph.empty(1))


class TestT3Sweep:
    @pytest.fixture(scope="class")
    def graph(self):
        return attach_uniform_weights(
            power_law_graph(20_000, alpha=1.9, max_degree=150, seed=4), seed=5
        )

    def test_sweep_points(self, graph):
        points = sweep_t3(graph, 0, "sssp", fractions=[0.01, 0.05, 0.10])
        assert [p.t3_fraction for p in points] == [0.01, 0.05, 0.10]
        assert all(p.seconds > 0 for p in points)

    def test_bfs_sweep(self, graph):
        points = sweep_t3(graph, 0, "bfs", fractions=[0.02, 0.08])
        assert len(points) == 2

    def test_tune_picks_minimum(self):
        points = [
            T3SweepPoint(0.01, 5.0, 0),
            T3SweepPoint(0.05, 2.0, 1),
            T3SweepPoint(0.10, 3.0, 1),
        ]
        assert tune_t3(points) == 0.05

    def test_tune_empty_rejected(self):
        with pytest.raises(TuningError):
            tune_t3([])
