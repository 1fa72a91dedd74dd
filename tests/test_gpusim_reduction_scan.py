"""Tests for repro.gpusim.reduction, repro.gpusim.scan,
repro.gpusim.transfer and repro.gpusim.timeline."""

import dataclasses
import functools
import operator

import pytest

from repro.gpusim.device import TESLA_C2070
from repro.gpusim.kernel import CostModel, KernelTally
from repro.gpusim.launch import LaunchConfig
from repro.gpusim.reduction import plan_reduction, reduction_tallies
from repro.gpusim.scan import scan_tallies
from repro.gpusim.timeline import Timeline
from repro.gpusim.transfer import TransferRecord, record_transfer, transfer_seconds


class TestReduction:
    def test_plan_pass_structure(self):
        plan = plan_reduction(1_000_000, threads_per_block=256)
        # 2*256 = 512 elements per block: 1e6 -> 1954 -> 4 -> 1.
        assert plan.passes[0] == 1_000_000
        assert plan.num_kernels == 3

    def test_plan_small_input(self):
        assert plan_reduction(10).num_kernels == 1

    def test_plan_single_element(self):
        assert plan_reduction(1).passes == (1,)

    def test_tallies_count_matches_plan(self):
        tallies = reduction_tallies(100_000, TESLA_C2070)
        assert len(tallies) == plan_reduction(100_000).num_kernels

    def test_tallies_priceable(self):
        model = CostModel(TESLA_C2070)
        total = sum(model.price(t).seconds for t in reduction_tallies(50_000, TESLA_C2070))
        assert total > 0

    def test_every_step_costs_the_same(self):
        # Sequential addressing is conflict-free: each of a 256-thread
        # block's 9 steps costs every warp 2 + 4 cycles, so a pass issues
        # blocks x 8 warps x 54 cycles.
        tallies = reduction_tallies(500_000, TESLA_C2070)
        assert [t.issue_cycles for t in tallies] == [422_064.0, 864.0, 432.0]
        assert [t.max_block_cycles for t in tallies] == [432.0] * 3

    def test_larger_inputs_cost_more(self):
        model = CostModel(TESLA_C2070)
        small = sum(model.price(t).seconds for t in reduction_tallies(1_000, TESLA_C2070))
        large = sum(model.price(t).seconds for t in reduction_tallies(1_000_000, TESLA_C2070))
        assert large > small


class TestScan:
    def test_tallies_single_block(self):
        assert len(scan_tallies(100, TESLA_C2070)) == 1

    def test_tallies_multi_block(self):
        assert len(scan_tallies(100_000, TESLA_C2070)) == 3

    def test_tallies_zero(self):
        assert scan_tallies(0, TESLA_C2070) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            scan_tallies(-1, TESLA_C2070)


class TestTransfer:
    def test_zero_bytes_free(self):
        assert transfer_seconds(0, TESLA_C2070) == 0.0

    def test_latency_floor(self):
        assert transfer_seconds(4, TESLA_C2070) >= TESLA_C2070.pcie_latency_s

    def test_bandwidth_term(self):
        one_mb = transfer_seconds(2**20, TESLA_C2070)
        ten_mb = transfer_seconds(10 * 2**20, TESLA_C2070)
        assert ten_mb > 5 * one_mb

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transfer_seconds(-1, TESLA_C2070)

    def test_record_direction_validation(self):
        with pytest.raises(ValueError):
            record_transfer("sideways", 10, TESLA_C2070)


class TestTimeline:
    def _kernel(self, name="k", seconds_scale=1.0):
        tally = KernelTally(
            name=name, launch=LaunchConfig(1, 32), issue_cycles=1000.0 * seconds_scale
        )
        cost = CostModel(TESLA_C2070).price(tally)
        return tally, cost

    def test_totals_accumulate(self):
        tl = Timeline()
        tally, cost = self._kernel()
        tl.add_kernel(0, tally, cost, "U_T_BM")
        tl.add_transfer(record_transfer("h2d", 1000, TESLA_C2070))
        tl.add_host_seconds(0.5)
        assert tl.total_seconds == pytest.approx(
            cost.seconds + tl.transfer_seconds + 0.5
        )
        assert tl.num_launches == 1

    def test_negative_host_time_rejected(self):
        with pytest.raises(ValueError):
            Timeline().add_host_seconds(-1)

    def test_seconds_by_kernel_groups_prefix(self):
        tl = Timeline()
        for name in ("reduce[0]", "reduce[1]", "comp"):
            tally, cost = self._kernel(name)
            tl.add_kernel(0, tally, cost)
        by = tl.seconds_by_kernel()
        assert set(by) == {"reduce", "comp"}

    def test_seconds_by_variant(self):
        tl = Timeline()
        for variant in ("U_T_BM", "U_T_BM", "U_B_QU"):
            tally, cost = self._kernel()
            tl.add_kernel(0, tally, cost, variant)
        by = tl.seconds_by_variant()
        assert by["U_T_BM"] == pytest.approx(2 * by["U_B_QU"])

    def test_iter_iterations_unique(self):
        tl = Timeline()
        for it in (0, 0, 1, 2, 2):
            tally, cost = self._kernel()
            tl.add_kernel(it, tally, cost)
        assert list(tl.iter_iterations()) == [0, 1, 2]

    def test_running_totals_equal_sums_bit_for_bit(self):
        """The totals are running sums; after interleaved adds of zero,
        subnormal and ordinary seconds each must still equal, bit for
        bit, its records' seconds added left to right from zero (``sum()``
        up to Python 3.11, and what the golden fixtures hold)."""

        def left_to_right(records):
            return functools.reduce(operator.add, (r.seconds for r in records), 0)

        tl = Timeline()
        assert (tl.gpu_seconds, tl.transfer_seconds) == (0, 0)
        tally, model_cost = self._kernel()
        subnormal = 5e-324
        # 1.0 then two 1e-16s: a compensated sum keeps what these lose
        kernel_seconds = [0.0, subnormal, 0.1, 1e-9, subnormal, 1.0, 1e-16, 1e-16, 0.0]
        transfer_secs = [subnormal, 0.0, 0.3, 1e-12, 0.7, subnormal, 1e-5]
        for i in range(max(len(kernel_seconds), len(transfer_secs))):
            if i < len(kernel_seconds):
                cost = dataclasses.replace(model_cost, seconds=kernel_seconds[i])
                tl.add_kernel(i, tally, cost)
            if i < len(transfer_secs):
                tl.add_transfer(TransferRecord("h2d", i, transfer_secs[i]))
            assert float.hex(tl.gpu_seconds) == float.hex(left_to_right(tl.kernels))
            assert float.hex(tl.transfer_seconds) == float.hex(
                left_to_right(tl.transfers)
            )
        assert float.hex(tl.total_seconds) == float.hex(
            left_to_right(tl.kernels) + left_to_right(tl.transfers) + tl.host_seconds
        )
        # A timeline built with records already in it totals them the same way.
        rebuilt = Timeline(kernels=list(tl.kernels), transfers=list(tl.transfers))
        assert float.hex(rebuilt.gpu_seconds) == float.hex(tl.gpu_seconds)
        assert float.hex(rebuilt.transfer_seconds) == float.hex(tl.transfer_seconds)
