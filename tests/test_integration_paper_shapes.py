"""Integration: the paper's qualitative claims must hold on the simulator
(small scales; the benchmarks reproduce the full tables).

Each test is one claim from the evaluation section:

1. Ordered and unordered BFS perform similarly (Section VII.A).
2. Unordered SSSP is significantly faster than ordered SSSP.
3. The best static variant is dataset-dependent (no single winner).
4. The GPU loses to the CPU on the road network's BFS.
5. B_BM is competitive on CiteSeer but the worst variant elsewhere.
6. BFS processes more nodes/second than SSSP (Figure 12).
7. The working set ramps up then drains (Figure 2).
8. The adaptive runtime is robust: never far behind the best static.
"""

import numpy as np
import pytest

from repro.core import adaptive_run, run_static
from repro.cpu import cpu_bfs
from repro.graph.datasets import make_dataset
from repro.graph.properties import largest_out_component_node
from repro.kernels import unordered_variants


@pytest.fixture(scope="module")
def workloads():
    """Scaled dataset analogues with chosen sources (module-cached)."""
    out = {}
    for key, scale in [
        ("co-road", 0.03),
        ("citeseer", 0.03),
        ("amazon", 0.03),
        ("google", 0.03),
    ]:
        g = make_dataset(key, scale=scale, weighted=True, seed=1)
        src = largest_out_component_node(g, seed=0)
        out[key] = (g, src)
    return out


class TestOrderingClaims:
    def test_bfs_ordered_unordered_similar(self, workloads):
        g, src = workloads["amazon"]
        o = run_static(g, src, "bfs", "O_T_BM").total_seconds
        u = run_static(g, src, "bfs", "U_T_BM").total_seconds
        assert 0.7 < o / u < 1.4

    def test_sssp_unordered_much_faster(self, workloads):
        g, src = workloads["google"]
        o = run_static(g, src, "sssp", "O_T_QU").total_seconds
        u = run_static(g, src, "sssp", "U_T_QU").total_seconds
        assert u < o / 3


class TestStaticVariantClaims:
    def test_no_universal_winner(self, workloads):
        winners = set()
        for key in ("co-road", "citeseer", "amazon"):
            g, src = workloads[key]
            times = {
                v.code: run_static(g, src, "sssp", v).total_seconds
                for v in unordered_variants()
            }
            winners.add(min(times, key=times.get))
        assert len(winners) >= 2, f"single universal winner {winners}"

    def test_gpu_loses_on_road_bfs(self, workloads):
        g, src = workloads["co-road"]
        cpu = cpu_bfs(g, src).seconds
        best_gpu = min(
            run_static(g, src, "bfs", v).total_seconds for v in unordered_variants()
        )
        assert best_gpu > cpu  # speedup < 1

    def test_gpu_wins_on_citeseer(self, workloads):
        g, src = workloads["citeseer"]
        cpu = cpu_bfs(g, src).seconds
        best_gpu = min(
            run_static(g, src, "bfs", v).total_seconds for v in unordered_variants()
        )
        assert best_gpu < cpu

    def test_b_bm_bad_outside_citeseer(self, workloads):
        """U_B_BM: strong on CiteSeer, the worst unordered variant on
        low-degree graphs (Section VII.A)."""
        for key in ("co-road", "google"):
            g, src = workloads[key]
            times = {
                v.code: run_static(g, src, "sssp", v).total_seconds
                for v in unordered_variants()
            }
            assert max(times, key=times.get) == "U_B_BM", key

    def test_citeseer_prefers_block_mapping(self, workloads):
        g, src = workloads["citeseer"]
        t = run_static(g, src, "sssp", "U_T_BM").total_seconds
        b = run_static(g, src, "sssp", "U_B_BM").total_seconds
        assert b < t


class TestThroughputClaims:
    def test_bfs_faster_than_sssp(self, workloads):
        g, src = workloads["citeseer"]
        bfs_speed = run_static(g, src, "bfs", "U_B_QU").nodes_per_second()
        sssp_speed = run_static(g, src, "sssp", "U_B_QU").nodes_per_second()
        assert bfs_speed > sssp_speed


class TestWorksetShape:
    def test_ramp_and_drain(self, workloads):
        """Figure 2: the working set grows from 1, peaks, then shrinks."""
        g, src = workloads["amazon"]
        curve = run_static(g, src, "sssp", "U_T_BM").workset_curve()
        peak = int(np.argmax(curve))
        assert curve[0] == 1
        assert curve[peak] > 100
        assert 0 < peak < len(curve) - 1
        assert curve[-1] < curve[peak] / 10

    def test_sssp_worksets_larger_than_bfs(self, workloads):
        """Section III.B: SSSP working sets exceed BFS's (re-relaxation)."""
        g, src = workloads["google"]
        bfs_total = run_static(g, src, "bfs", "U_T_BM").workset_curve().sum()
        sssp_total = run_static(g, src, "sssp", "U_T_BM").workset_curve().sum()
        assert sssp_total > bfs_total


class TestAdaptiveClaims:
    def test_adaptive_close_to_best_everywhere(self, workloads):
        """Robustness: within 1.3x of the best static on every dataset
        (the paper's adaptive *beats* the best static on most)."""
        for key, (g, src) in workloads.items():
            best = min(
                run_static(g, src, "sssp", v).total_seconds
                for v in unordered_variants()
            )
            ad = adaptive_run(g, "sssp", src).total_seconds
            assert ad <= 1.3 * best, key

    def test_adaptive_beats_worst_static_by_far(self, workloads):
        for key, (g, src) in workloads.items():
            worst = max(
                run_static(g, src, "sssp", v).total_seconds
                for v in unordered_variants()
            )
            ad = adaptive_run(g, "sssp", src).total_seconds
            assert ad < worst, key

    def test_adaptive_beats_best_static_somewhere(self, workloads):
        wins = 0
        for key, (g, src) in workloads.items():
            best = min(
                run_static(g, src, "sssp", v).total_seconds
                for v in unordered_variants()
            )
            if adaptive_run(g, "sssp", src).total_seconds < best:
                wins += 1
        assert wins >= 1
