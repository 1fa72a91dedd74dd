"""Tests for repro.gpusim.kernel (tally validation + cost assembly)."""

import pytest

from repro.errors import KernelError
from repro.gpusim.device import TESLA_C2070
from repro.gpusim.kernel import (
    ATOMIC_CYCLES_PER_OP,
    MAX_LATENCY_PENALTY,
    CostModel,
    KernelTally,
)
from repro.gpusim.launch import LaunchConfig


def make_tally(**kwargs) -> KernelTally:
    defaults = dict(
        name="k",
        launch=LaunchConfig(100, 192),
        issue_cycles=10_000.0,
        useful_lane_cycles=100_000.0,
        max_block_cycles=200.0,
        mem_transactions=1_000.0,
        active_threads=10_000,
    )
    defaults.update(kwargs)
    return KernelTally(**defaults)


class TestKernelTally:
    def test_rejects_negative_fields(self):
        with pytest.raises(KernelError):
            make_tally(issue_cycles=-1.0)
        with pytest.raises(KernelError):
            make_tally(mem_transactions=-5.0)

    def test_simt_efficiency_bounds(self):
        t = make_tally(issue_cycles=1000.0, useful_lane_cycles=32_000.0)
        assert t.simt_efficiency == pytest.approx(1.0)
        t2 = make_tally(issue_cycles=1000.0, useful_lane_cycles=1000.0)
        assert t2.simt_efficiency == pytest.approx(1 / 32)

    def test_zero_issue_efficiency_one(self):
        assert make_tally(issue_cycles=0.0).simt_efficiency == 1.0

    def test_thread_utilization(self):
        t = make_tally(active_threads=9_600)
        assert t.thread_utilization == pytest.approx(9600 / 19200)


class TestCostModel:
    def test_total_includes_launch_overhead(self):
        cost = CostModel(TESLA_C2070).price(make_tally())
        assert cost.seconds >= TESLA_C2070.kernel_launch_overhead_s
        assert cost.launch_overhead_seconds == TESLA_C2070.kernel_launch_overhead_s

    def test_compute_memory_overlap(self):
        # Total pays max(compute, memory), not the sum.
        model = CostModel(TESLA_C2070)
        cost = model.price(make_tally())
        core = cost.seconds - cost.launch_overhead_seconds - cost.atomic_seconds
        assert core == pytest.approx(max(cost.issue_seconds, cost.memory_seconds))

    def test_atomics_add_serial_time(self):
        model = CostModel(TESLA_C2070)
        quiet = model.price(make_tally())
        noisy = model.price(make_tally(atomics_same_address=100_000.0))
        assert noisy.seconds > quiet.seconds
        assert noisy.atomic_seconds == pytest.approx(
            TESLA_C2070.cycles_to_seconds(100_000 * ATOMIC_CYCLES_PER_OP)
        )

    def test_critical_path_floor(self):
        model = CostModel(TESLA_C2070)
        # One gigantic block cannot be spread across SMs.
        cost = model.price(
            make_tally(issue_cycles=1_000.0, max_block_cycles=1_000_000.0)
        )
        assert cost.issue_seconds >= TESLA_C2070.cycles_to_seconds(1_000_000)

    def test_latency_penalty_for_tiny_kernels(self):
        model = CostModel(TESLA_C2070)
        tiny = make_tally(
            launch=LaunchConfig(1, 32),
            issue_cycles=10.0,
            mem_transactions=1_000.0,
            active_threads=32,
            active_warps=1,
        )
        big = make_tally(
            launch=LaunchConfig(1000, 192),
            issue_cycles=10.0,
            mem_transactions=1_000.0,
            active_threads=192_000,
            active_warps=6000,
        )
        tiny_cost = model.price(tiny)
        big_cost = model.price(big)
        assert tiny_cost.latency_penalty > 1.0
        assert big_cost.latency_penalty == 1.0
        assert tiny_cost.memory_seconds > big_cost.memory_seconds

    def test_latency_penalty_capped(self):
        model = CostModel(TESLA_C2070)
        cost = model.price(
            make_tally(launch=LaunchConfig(1, 32), active_warps=1, active_threads=1)
        )
        assert cost.latency_penalty <= MAX_LATENCY_PENALTY

    def test_block_dispatch_charged(self):
        model = CostModel(TESLA_C2070)
        few = model.price(make_tally(launch=LaunchConfig(10, 192)))
        many = model.price(make_tally(launch=LaunchConfig(100_000, 192)))
        assert many.issue_seconds > few.issue_seconds

    def test_more_issue_cycles_cost_more(self):
        model = CostModel(TESLA_C2070)
        cheap = model.price(make_tally(issue_cycles=1e4, mem_transactions=0.0))
        dear = model.price(make_tally(issue_cycles=1e6, mem_transactions=0.0))
        assert dear.seconds > cheap.seconds
