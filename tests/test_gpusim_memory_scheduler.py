"""Tests for repro.gpusim.memory and repro.gpusim.smscheduler."""

import pytest

from repro.gpusim.device import TESLA_C2070
from repro.gpusim.memory import bandwidth_cycles, segment_stream_transactions
from repro.gpusim.smscheduler import makespan_cycles


class TestMemoryModel:
    def test_segment_stream(self):
        # two segments of 32 ints each: 1 transaction + misalignment each
        t = segment_stream_transactions([32, 32], 4, TESLA_C2070)
        assert t == pytest.approx(3.0)  # 2 x (1 + 0.5)

    def test_segment_stream_skips_empty(self):
        assert segment_stream_transactions([0, 0], 4, TESLA_C2070) == 0.0

    def test_bandwidth_cycles(self):
        # 1 transaction = 128 bytes ~ 1.02 cycles at 125 B/cycle.
        assert bandwidth_cycles(1, TESLA_C2070) == pytest.approx(
            128 / TESLA_C2070.bytes_per_cycle
        )


class TestScheduler:
    def test_makespan_ideal(self):
        # 1400 equal blocks of 10 cycles spread over 14 SMs.
        m = makespan_cycles(1400 * 10.0, 10.0, TESLA_C2070)
        assert m == pytest.approx(1400 * 10 / 14 * 1.05)

    def test_makespan_straggler(self):
        # one 10,000-cycle block beside ten 1-cycle blocks
        assert makespan_cycles(10_010.0, 10_000.0, TESLA_C2070) == 10_000.0

    def test_makespan_slack(self):
        assert makespan_cycles(140.0, 5.0, TESLA_C2070) == pytest.approx(10.5)

    def test_makespan_empty(self):
        assert makespan_cycles(0.0, 0.0, TESLA_C2070) == 0.0
