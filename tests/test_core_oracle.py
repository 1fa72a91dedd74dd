"""Tests for the per-iteration oracle and decision-quality scoring."""

import numpy as np
import pytest

from repro.core import adaptive_run, decision_quality, per_iteration_oracle, run_static
from repro.core.oracle import IterationCosts, OracleReport
from repro.errors import KernelError
from repro.graph.generators import (
    attach_uniform_weights,
    chain_graph,
    erdos_renyi_graph,
    power_law_graph,
)


@pytest.fixture(scope="module")
def workload():
    g = attach_uniform_weights(
        power_law_graph(15_000, alpha=1.9, max_degree=200, seed=13), seed=14
    )
    src = int(np.argmax(g.out_degrees))
    return g, src


class TestOracleReport:
    def test_covers_all_iterations(self, workload):
        g, src = workload
        report = per_iteration_oracle(g, src, "sssp")
        ad = adaptive_run(g, "sssp", src)
        assert len(report.iterations) == ad.num_iterations

    def test_candidate_set(self, workload):
        g, src = workload
        report = per_iteration_oracle(g, src, "bfs")
        assert set(report.iterations[0].seconds_by_variant) == {
            "U_T_BM", "U_T_QU", "U_B_BM", "U_B_QU",
        }

    def test_oracle_lower_bounds_statics(self, workload):
        g, src = workload
        report = per_iteration_oracle(g, src, "sssp")
        for code in ("U_T_BM", "U_T_QU", "U_B_BM", "U_B_QU"):
            assert report.oracle_seconds <= report.static_seconds(code) + 1e-12

    def test_best_static_identified(self, workload):
        g, src = workload
        report = per_iteration_oracle(g, src, "sssp")
        best_code, best_secs = report.best_static()
        assert best_secs == min(
            report.static_seconds(c)
            for c in report.iterations[0].seconds_by_variant
        )

    def test_matches_frame_static_times(self, workload):
        """The oracle's static re-pricing must track the real frame run
        (same tallies, minus host-init bookkeeping)."""
        g, src = workload
        report = per_iteration_oracle(g, src, "sssp")
        real = run_static(g, src, "sssp", "U_T_BM")
        assert report.static_seconds("U_T_BM") == pytest.approx(
            real.total_seconds, rel=0.05
        )

    def test_requires_weights_for_sssp(self):
        g = chain_graph(10)
        with pytest.raises(KernelError):
            per_iteration_oracle(g, 0, "sssp")

    @pytest.mark.parametrize("algorithm", ["cc", "pagerank", "nonsense"])
    def test_rejects_algorithms_it_does_not_price(self, algorithm):
        # Only BFS and SSSP are priced; any other name must fail instead
        # of coming back as a BFS report under its own label.
        with pytest.raises(KernelError, match="'bfs' or 'sssp'"):
            per_iteration_oracle(chain_graph(10), 0, algorithm)


class TestSinglePropertySource:
    def test_launch_geometry_derived_once_per_variant(self, workload, monkeypatch):
        """Regression: the oracle used to re-read the graph's average
        outdegree and re-derive each variant's launch geometry on every
        iteration — |variants| x |iterations| recomputations of the same
        numbers, and a second property source that could drift from the
        average outdegree the adaptive policy decides with."""
        from repro.kernels.variants import Variant

        calls = []
        original = Variant.threads_per_block

        def counting(self, avg_out_degree, device):
            calls.append(avg_out_degree)
            return original(self, avg_out_degree, device)

        monkeypatch.setattr(Variant, "threads_per_block", counting)
        g, src = workload
        report = per_iteration_oracle(g, src, "sssp")
        assert len(report.iterations) > 1
        # Once per candidate variant, not once per (variant, iteration).
        assert len(calls) == len(report.iterations[0].seconds_by_variant)
        # And every derivation saw the graph's one average outdegree.
        assert set(calls) == {g.avg_out_degree}


class TestDecisionQuality:
    def test_adaptive_low_regret(self, workload):
        g, src = workload
        report = per_iteration_oracle(g, src, "sssp")
        q = decision_quality(adaptive_run(g, "sssp", src), report)
        assert 0.0 <= q.agreement <= 1.0
        assert q.regret < 0.25

    def test_static_regret_at_least_adaptive(self, workload):
        """The adaptive runtime's realized time is within the static
        envelope the oracle computes."""
        g, src = workload
        report = per_iteration_oracle(g, src, "sssp")
        q = decision_quality(adaptive_run(g, "sssp", src), report)
        _, best_static_secs = report.best_static()
        assert q.realized_seconds <= best_static_secs * 1.05

    def test_oracle_schedule_has_zero_regret(self, workload):
        g, src = workload
        report = per_iteration_oracle(g, src, "bfs")
        oracle_time = report.seconds_for(lambda it: it.best_variant)
        assert oracle_time == pytest.approx(report.oracle_seconds)

    def test_mismatched_iteration_counts(self, workload):
        g, src = workload
        report = per_iteration_oracle(g, src, "bfs")
        other = adaptive_run(erdos_renyi_graph(500, 2_000, seed=1), "bfs", 0)
        with pytest.raises(KernelError, match="mismatch"):
            decision_quality(other, report)

    def test_unknown_variant_rejected(self):
        report = OracleReport(
            algorithm="bfs",
            iterations=[
                IterationCosts(0, 1, {"U_T_BM": 1e-6}),
            ],
        )
        g = chain_graph(3)
        real = run_static(g, 0, "bfs", "U_B_QU")
        with pytest.raises(KernelError):
            decision_quality(real, report)
