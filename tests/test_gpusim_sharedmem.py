"""Tests for the shared-memory bank-conflict model."""

import pytest

from repro.gpusim.device import TESLA_C2070
from repro.gpusim.kernel import CostModel
from repro.gpusim.reduction import reduction_tallies
from repro.gpusim.sharedmem import conflict_degree, reduction_step_cycles


class TestConflictDegree:
    def test_unit_stride_conflict_free(self):
        assert conflict_degree(1) == 1

    def test_odd_strides_conflict_free(self):
        for stride in (3, 5, 7, 17, 31):
            assert conflict_degree(stride) == 1, stride

    def test_stride_two_gives_two_way(self):
        assert conflict_degree(2) == 2

    def test_stride_bank_count_worst_case(self):
        assert conflict_degree(32) == 32

    def test_powers_of_two_double(self):
        assert [conflict_degree(2**k) for k in range(6)] == [1, 2, 4, 8, 16, 32]

    def test_broadcast_free(self):
        assert conflict_degree(0) == 1

    def test_partial_warp(self):
        # 8 active lanes at stride 32 serialize at most 8-way.
        assert conflict_degree(32, active_lanes=8) == 8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            conflict_degree(-1)


class TestReductionAddressing:
    def test_sequential_steps_flat(self):
        costs = [reduction_step_cycles(s, sequential_addressing=True) for s in range(8)]
        assert len(set(costs)) == 1

    def test_interleaved_steps_grow(self):
        costs = [
            reduction_step_cycles(s, sequential_addressing=False) for s in range(5)
        ]
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            reduction_step_cycles(-1, sequential_addressing=True)

    def test_naive_reduction_costs_more(self):
        """The classic CUDA optimization: sequential addressing removes
        the bank conflicts of the interleaved tree."""
        model = CostModel(TESLA_C2070)
        good = sum(
            model.price(t).seconds
            for t in reduction_tallies(500_000, TESLA_C2070)
        )
        naive = sum(
            model.price(t).seconds
            for t in reduction_tallies(
                500_000, TESLA_C2070, sequential_addressing=False
            )
        )
        assert naive > 1.5 * good
