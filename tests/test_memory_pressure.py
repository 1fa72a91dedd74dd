"""End-to-end tests for memory-constrained execution.

Covers the tentpole guarantees: a budget threaded through the traversal
frame charges every resident array and working set; the adaptive policy
steers toward compact representations under pressure; and the guarded
runner's OOM ladder recovers bit-identically when the budget genuinely
overflows.
"""

import numpy as np
import pytest

from repro.core import adaptive_run
from repro.core.config import RuntimeConfig
from repro.cpu import cpu_bfs
from repro.errors import DeviceOOMError
from repro.gpusim.allocator import MemoryBudget
from repro.gpusim.memory import traversal_state_bytes
from repro.graph.generators import attach_uniform_weights, rmat_graph
from repro.obs import Observer, observing
from repro.reliability import GuardConfig, resilient_run


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(10, 8.0, seed=3)


@pytest.fixture(scope="module")
def weighted_graph(graph):
    return attach_uniform_weights(graph, seed=3)


def _resident_bytes(graph):
    return graph.device_bytes() + traversal_state_bytes(graph.num_nodes)


def _bitmap_bytes(graph):
    return (graph.num_nodes + 7) // 8


class TestBudgetedAdaptive:
    def test_ample_budget_is_bit_identical(self, graph):
        baseline = adaptive_run(graph, "bfs", 0)
        memory = MemoryBudget("64M")
        result = adaptive_run(graph, "bfs", 0, memory=memory)
        assert np.array_equal(result.values, baseline.values)
        report = result.memory
        assert report is not None
        assert report.by_category["graph"] == graph.device_bytes()
        assert report.by_category["state"] == traversal_state_bytes(graph.num_nodes)
        assert report.peak_by_category["workset"] > 0
        assert report.oom_events == 0

    def test_workset_released_at_end(self, graph):
        memory = MemoryBudget("64M")
        adaptive_run(graph, "bfs", 0, memory=memory)
        assert memory.by_category["workset"] == 0

    def test_tight_budget_forces_decisions_without_oom(self, graph):
        baseline = adaptive_run(graph, "bfs", 0)
        budget = _resident_bytes(graph) + _bitmap_bytes(graph) + 64
        result = adaptive_run(graph, "bfs", 0, memory=MemoryBudget(budget))
        assert np.array_equal(result.values, baseline.values)
        assert result.trace.num_memory_forced > 0
        assert result.trace.peak_memory_pressure > 0.9
        assert result.memory.oom_events == 0
        forced = [d for d in result.trace.decisions if d.forced_by_memory]
        assert all("/mem-pressure" in d.region or d.forced_by_memory for d in forced)

    @pytest.mark.parametrize("algorithm", ["bfs", "sssp"])
    @pytest.mark.parametrize("interval", [2, 3])
    def test_sampled_run_fit_checks_between_samples(
        self, weighted_graph, algorithm, interval
    ):
        """A held variant whose working set no longer fits takes a full
        decision, as a sample would, instead of running out of memory."""
        baseline = adaptive_run(weighted_graph, algorithm, 0)
        budget = _resident_bytes(weighted_graph) + _bitmap_bytes(weighted_graph) + 64
        config = RuntimeConfig(sampling_interval=interval)
        observer = Observer()
        with observing(observer):
            result = adaptive_run(
                weighted_graph, algorithm, 0, config=config,
                memory=MemoryBudget(budget),
            )
        assert np.array_equal(result.values, baseline.values)
        assert result.memory.oom_events == 0
        decided = [d.iteration for d in result.trace.decisions]
        assert any(i % interval for i in decided)
        assert observer.metrics.counter("runtime.decisions").value == len(decided)

    def test_impossible_budget_raises_oom(self, graph):
        with pytest.raises(DeviceOOMError, match="CSR arrays"):
            adaptive_run(graph, "bfs", 0, memory=MemoryBudget(1024))

    def test_spill_mode_prices_pcie_and_stays_correct(self, graph):
        baseline = adaptive_run(graph, "bfs", 0)
        budget = _resident_bytes(graph) + 16  # no room for any workset
        memory = MemoryBudget(budget, spill=True)
        result = adaptive_run(graph, "bfs", 0, memory=memory)
        assert np.array_equal(result.values, baseline.values)
        assert result.memory.spilled_bytes > 0
        assert result.memory.spill_events > 0

    def test_sssp_under_budget_matches_unbudgeted(self, weighted_graph):
        baseline = adaptive_run(weighted_graph, "sssp", 0)
        budget = _resident_bytes(weighted_graph) + _bitmap_bytes(weighted_graph) + 64
        result = adaptive_run(
            weighted_graph, "sssp", 0, memory=MemoryBudget(budget, spill=True),
        )
        assert np.allclose(result.values, baseline.values)


class TestPressureTelemetry:
    def test_decision_records_pressure(self, graph):
        result = adaptive_run(graph, "bfs", 0, memory=MemoryBudget("64M"))
        assert all(d.memory_pressure >= 0.0 for d in result.trace.decisions)
        assert result.trace.peak_memory_pressure >= 0.0

    def test_unbudgeted_run_reports_no_memory(self, graph):
        result = adaptive_run(graph, "bfs", 0)
        assert result.memory is None
        assert result.trace.num_memory_forced == 0


class TestOOMLadder:
    def test_rung1_spill_recovers_bit_identically(self, graph):
        oracle = cpu_bfs(graph, 0).levels
        budget = _resident_bytes(graph) + 16  # resident fits, no workset does
        guard = GuardConfig(mem_budget=budget)
        result = resilient_run(graph, "bfs", 0, guard=guard)
        assert np.array_equal(result.values, oracle)
        assert result.oom_rung == 1
        assert not result.degraded
        assert any(e.kind == "device_oom" for e in result.faults)
        assert result.recovery_actions().get("workset_spill") == 1
        assert result.memory is not None
        assert result.memory.spilled_bytes > 0

    def test_ladder_exhaustion_degrades_to_cpu(self, graph):
        oracle = cpu_bfs(graph, 0).levels
        guard = GuardConfig(mem_budget=_resident_bytes(graph) // 2)
        result = resilient_run(graph, "bfs", 0, guard=guard)
        assert np.array_equal(result.values, oracle)
        assert result.degraded
        assert result.stage == "cpu"
        assert result.oom_rung == 4
        actions = result.recovery_actions()
        assert actions.get("workset_spill") == 1
        assert actions.get("force_bitmap") == 1
        assert actions.get("checkpoint_relief") == 1
        assert actions.get("cpu_degradation") == 1

    def test_no_budget_means_no_rung(self, graph):
        result = resilient_run(graph, "bfs", 0)
        assert result.oom_rung == 0
        assert result.memory is None

    def test_oom_events_recorded_as_faults(self, graph):
        guard = GuardConfig(mem_budget=_resident_bytes(graph) + 16)
        result = resilient_run(graph, "bfs", 0, guard=guard)
        oom_faults = [e for e in result.faults if e.kind == "device_oom"]
        assert len(oom_faults) == 1
        assert oom_faults[0].site == "allocator"
