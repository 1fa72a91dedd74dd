"""Tests for repro.core.policies (the adaptive policy's sampling and
monitoring) and repro.core.telemetry."""

import pytest

from repro.core.config import RuntimeConfig
from repro.core.policies import AdaptivePolicy
from repro.core.telemetry import Decision, DecisionTrace
from repro.engine.types import IterationRecord
from repro.graph.generators import erdos_renyi_graph, power_law_graph
from repro.gpusim.device import TESLA_C2070


class TestAdaptivePolicy:
    def test_follows_decision_space(self):
        g = erdos_renyi_graph(100_000, 400_000, seed=0)
        policy = AdaptivePolicy(g, RuntimeConfig(t3_fraction=0.05), device=TESLA_C2070)
        assert policy.choose(0, 10).code == "U_B_QU"          # tiny ws
        assert policy.choose(1, 4000).code == "U_T_QU"        # mid, low deg
        assert policy.choose(2, 50_000).code == "U_T_BM"      # large, low deg

    def test_samples_on_interval_multiples(self):
        # At interval 3 the decision is taken on iterations 0 and 3 only:
        # 1 and 2 keep the held variant without recording a decision.
        g = erdos_renyi_graph(50_000, 200_000, seed=0)
        policy = AdaptivePolicy(
            g, RuntimeConfig(sampling_interval=3), device=TESLA_C2070
        )
        for iteration in range(4):
            policy.choose(iteration, 40_000)
        assert [d.iteration for d in policy.trace.decisions] == [0, 3]

    def test_sampling_freezes_variant(self):
        g = erdos_renyi_graph(50_000, 200_000, seed=0)
        policy = AdaptivePolicy(
            g, RuntimeConfig(sampling_interval=4), device=TESLA_C2070
        )
        first = policy.choose(0, 10)
        # Iterations 1-3 would decide differently but are not sampled.
        assert policy.choose(1, 40_000) == first
        assert policy.choose(2, 40_000) == first
        assert policy.choose(3, 40_000) == first
        assert policy.choose(4, 40_000) != first

    def test_trace_records_switches(self):
        g = erdos_renyi_graph(100_000, 400_000, seed=0)
        policy = AdaptivePolicy(g, device=TESLA_C2070)
        policy.choose(0, 10)
        policy.choose(1, 10)
        policy.choose(2, 50_000)
        assert policy.trace.num_decisions == 3
        assert policy.num_switches == 1
        assert policy.trace.switch_iterations() == [2]

    def test_rebuild_mode_queues_overhead(self):
        g = erdos_renyi_graph(100_000, 400_000, seed=0)
        policy = AdaptivePolicy(
            g, RuntimeConfig(switch_mode="rebuild"), device=TESLA_C2070
        )
        policy.choose(0, 10)        # B_QU
        policy.choose(1, 50_000)    # T_BM: representation switch
        tallies = policy.overhead_tallies(1, 50_000, g.num_nodes, TESLA_C2070)
        assert len(tallies) > 0
        assert tallies[0].name.startswith("switch_rebuild")

    def test_shared_mode_no_overhead(self):
        g = erdos_renyi_graph(100_000, 400_000, seed=0)
        policy = AdaptivePolicy(g, device=TESLA_C2070)
        policy.choose(0, 10)
        policy.choose(1, 50_000)
        assert policy.overhead_tallies(1, 50_000, g.num_nodes, TESLA_C2070) == []

    def test_precise_monitoring_updates_degree(self):
        g = power_law_graph(5000, alpha=1.8, max_degree=200, seed=1)
        policy = AdaptivePolicy(
            g, RuntimeConfig(monitor_workset_degree=True), device=TESLA_C2070
        )
        record = IterationRecord(
            iteration=0, variant="U_B_QU", workset_size=10, processed=10,
            updated=50, edges_scanned=1000, improved_relaxations=50, seconds=1e-6,
        )
        policy.notify(record)
        # 1000 edges / 10 nodes = avg degree 100 for this working set.
        assert policy._avg_degree == pytest.approx(100.0)
        assert len(policy.overhead_tallies(0, 10, g.num_nodes, TESLA_C2070)) > 0


class TestDecisionTrace:
    def _decision(self, i, variant="U_B_QU", switched=False):
        return Decision(
            iteration=i, workset_size=1, avg_out_degree=1.0,
            variant=variant, region="small-ws", switched=switched,
        )

    def test_counts(self):
        trace = DecisionTrace()
        trace.record(self._decision(0))
        trace.record(self._decision(1, "U_T_BM", switched=True))
        assert trace.num_decisions == 2
        assert trace.num_switches == 1
        assert trace.variants_chosen() == {"U_B_QU": 1, "U_T_BM": 1}
