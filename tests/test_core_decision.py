"""Tests for repro.core.decision and repro.core.config: the Figure-11
decision space."""

import pytest

from repro.core.config import RuntimeConfig
from repro.core.decision import (
    PRESSURE_THRESHOLD,
    DecisionMaker,
    Thresholds,
    pressure_override,
)
from repro.errors import RuntimeConfigError
from repro.gpusim.device import GTX_580, TESLA_C2070
from repro.kernels.variants import Variant


@pytest.fixture
def maker():
    # T1=32, T2=2688, T3=10000 (a 167k-node graph at 6 %)
    return DecisionMaker(Thresholds(t1=32.0, t2=2688, t3=10_000))


class TestDecisionRegions:
    def test_tiny_workset_always_b_qu(self, maker):
        # Left of T2: B_QU regardless of degree (Figure 11).
        assert maker.decide(10, 2.5)[0].code == "U_B_QU"
        assert maker.decide(2687, 500.0)[0].code == "U_B_QU"

    def test_mid_workset_low_degree(self, maker):
        assert maker.decide(5000, 8.0)[0].code == "U_T_QU"

    def test_mid_workset_high_degree(self, maker):
        assert maker.decide(5000, 73.9)[0].code == "U_B_QU"

    def test_large_workset_low_degree(self, maker):
        assert maker.decide(50_000, 8.0)[0].code == "U_T_BM"

    def test_large_workset_high_degree(self, maker):
        assert maker.decide(50_000, 73.9)[0].code == "U_B_BM"

    def test_boundaries_inclusive_exclusive(self, maker):
        # ws == T2 leaves the small-ws region; ws == T3 enters bitmap.
        assert maker.decide(2688, 8.0)[0].code == "U_T_QU"
        assert maker.decide(10_000, 8.0)[0].code == "U_T_BM"
        assert maker.decide(9_999, 8.0)[0].code == "U_T_QU"

    def test_t1_boundary(self, maker):
        assert maker.decide(5000, 31.9)[0].code == "U_T_QU"
        assert maker.decide(5000, 32.0)[0].code == "U_B_QU"

    def test_only_unordered(self, maker):
        for ws in (1, 5000, 50_000):
            for deg in (2.0, 100.0):
                assert maker.decide(ws, deg)[0].code.startswith("U_")

    def test_region_labels(self, maker):
        assert maker.decide(10, 5.0)[1] == "small-ws"
        assert maker.decide(5000, 5.0)[1] == "mid-ws/low-degree"
        assert maker.decide(50_000, 100.0)[1] == "large-ws/high-degree"


class TestPressureOverride:
    """The one memory-pressure rule both policies apply to their pick."""

    PICK = Variant.parse("U_B_QU")

    def test_below_threshold_passes_through(self):
        out = pressure_override(self.PICK, "mid-ws/high-degree", 5000, 10_000, 0.84)
        assert out == (self.PICK, "mid-ws/high-degree")

    def test_at_threshold_turns_footprint_minimal(self):
        assert PRESSURE_THRESHOLD == 0.85
        variant, region = pressure_override(
            self.PICK, "mid-ws/high-degree", 5000, 10_000, PRESSURE_THRESHOLD
        )
        # 4 B x 5000 queue entries outweigh a 1,250 B bitmap.
        assert variant.code == "U_T_BM"
        assert region == "mid-ws/high-degree/mem-pressure"

    def test_small_queue_stays_a_queue(self):
        variant, _ = pressure_override(self.PICK, "small-ws", 10, 10_000, 0.99)
        assert variant.code == "U_T_QU"


class TestThresholds:
    def test_rejects_bad_t1(self):
        with pytest.raises(RuntimeConfigError):
            Thresholds(t1=0.0, t2=1, t3=1)

    def test_rejects_negative(self):
        with pytest.raises(RuntimeConfigError):
            Thresholds(t1=32.0, t2=-1, t3=1)


class TestRuntimeConfig:
    def test_t1_defaults_to_warp_size(self):
        assert RuntimeConfig().resolve_t1(TESLA_C2070) == 32.0

    def test_t2_defaults_to_tpb_times_sms(self):
        # 192 threads x 14 SMs = 2688 (Section VII.B).
        assert RuntimeConfig().resolve_t2(TESLA_C2070) == 2688

    def test_t2_scales_with_device(self):
        assert RuntimeConfig().resolve_t2(GTX_580) == 192 * 16

    def test_t3_fraction_resolution(self):
        assert RuntimeConfig(t3_fraction=0.06).resolve_t3(435_666) == 26_140

    def test_explicit_overrides(self):
        cfg = RuntimeConfig(t1=16.0, t2=999)
        assert cfg.resolve_t1(TESLA_C2070) == 16.0
        assert cfg.resolve_t2(TESLA_C2070) == 999

    def test_rejects_bad_values(self):
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(t3_fraction=0.0)
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(sampling_interval=0)
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(switch_mode="magic")
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(t1=-2.0)

    def test_with_overrides(self):
        cfg = RuntimeConfig().with_overrides(sampling_interval=4)
        assert cfg.sampling_interval == 4


class TestDecisionInputAudit:
    """Regression: NaN or negative decision inputs used to fall silently
    through every threshold comparison into an arbitrary region."""

    def test_rejects_nan_degree(self, maker):
        with pytest.raises(RuntimeConfigError, match="finite"):
            maker.decide(100, float("nan"))

    def test_rejects_infinite_degree(self, maker):
        with pytest.raises(RuntimeConfigError, match="finite"):
            maker.decide(100, float("inf"))

    def test_rejects_negative_degree(self, maker):
        with pytest.raises(RuntimeConfigError):
            maker.decide(100, -1.0)

    def test_rejects_negative_workset(self, maker):
        with pytest.raises(RuntimeConfigError, match="workset_size"):
            maker.decide(-1, 5.0)

    def test_region_audits_too(self, maker):
        # The region label comes out of the same audited pass as the
        # variant, also where the label reads the degree.
        with pytest.raises(RuntimeConfigError):
            maker.decide(5000, float("nan"))

    def test_empty_workset_is_valid_input(self, maker):
        # An empty working set is a legal (terminal) state, not an error.
        assert maker.decide(0, 0.0)[0].code == "U_B_QU"

    def test_all_zero_outdegree_workset_pins_thread_side(self, maker):
        # Zero average outdegree sits below any sensible T1: the working
        # set maps to threads in both the mid and large regions.
        assert maker.decide(5000, 0.0)[0].code == "U_T_QU"
        assert maker.decide(50_000, 0.0)[0].code == "U_T_BM"


class TestThresholdOrdering:
    """Regression: tiny graphs resolved the T3 fraction below T2,
    inverting the Figure-11 mid/large regions."""

    def test_resolved_clamps_t3_up_to_t2(self):
        t = Thresholds(t1=32.0, t2=2688, t3=100).resolved()
        assert t.t3 == t.t2 == 2688

    def test_resolved_is_identity_when_ordered(self):
        t = Thresholds(t1=32.0, t2=100, t3=200)
        assert t.resolved() is t

    def test_rejects_nan_t1(self):
        with pytest.raises(RuntimeConfigError):
            Thresholds(t1=float("nan"), t2=1, t3=1)

    @pytest.mark.parametrize("num_nodes", [1, 2, 31, 200])
    def test_resolve_thresholds_on_tiny_graphs(self, num_nodes):
        # T3 = 6 % of a tiny node count resolves far below T2 = 2688;
        # the resolved thresholds must still be ordered and valid.
        t = RuntimeConfig().resolve_thresholds(TESLA_C2070, num_nodes)
        assert t.t3 >= t.t2
        assert 0 < t.t1_low <= t.t1

    def test_clamped_thresholds_decide_consistently(self):
        t = RuntimeConfig().resolve_thresholds(TESLA_C2070, 31)
        maker = DecisionMaker(t)
        # At the clamped boundary a working set is unambiguously in the
        # bitmap region, never "both mid and large" as pre-clamp.
        assert maker.decide(int(t.t2), 5.0)[0].code.endswith("BM")
        assert maker.decide(int(t.t2) - 1, 5.0)[0].code == "U_B_QU"
