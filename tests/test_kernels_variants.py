"""Tests for repro.kernels.variants and repro.kernels.workset."""

import pytest

from repro.errors import KernelError, WorksetError
from repro.gpusim.device import TESLA_C2070
from repro.kernels.variants import (
    Mapping,
    Ordering,
    THREAD_MAPPING_TPB,
    Variant,
    WorksetRepr,
    all_variants,
    block_mapping_tpb,
    unordered_variants,
)
from repro.kernels.workset import workset_gen_tallies


class TestVariantNaming:
    def test_code_format(self):
        v = Variant(Ordering.UNORDERED, Mapping.BLOCK, WorksetRepr.QUEUE)
        assert v.code == "U_B_QU"
        assert str(v) == "U_B_QU"

    def test_parse_roundtrip(self):
        for v in all_variants():
            assert Variant.parse(v.code) == v

    def test_parse_case_insensitive(self):
        assert Variant.parse("u_t_bm").code == "U_T_BM"

    def test_parse_rejects_garbage(self):
        with pytest.raises(KernelError):
            Variant.parse("U_T")
        with pytest.raises(KernelError):
            Variant.parse("X_T_BM")

    def test_all_variants_table_order(self):
        codes = [v.code for v in all_variants()]
        assert codes == [
            "O_T_BM", "O_T_QU", "O_B_BM", "O_B_QU",
            "U_T_BM", "U_T_QU", "U_B_BM", "U_B_QU",
        ]

    def test_unordered_only(self):
        assert all(v.ordering is Ordering.UNORDERED for v in unordered_variants())
        assert len(unordered_variants()) == 4


class TestLaunchConfiguration:
    def test_thread_mapping_uses_192(self):
        v = Variant.parse("U_T_BM")
        assert v.threads_per_block(50.0, TESLA_C2070) == THREAD_MAPPING_TPB

    def test_block_mapping_follows_avg_degree(self):
        # "the multiple of 32 closest to the average node outdegree"
        assert block_mapping_tpb(73.9, TESLA_C2070) == 64
        assert block_mapping_tpb(100.0, TESLA_C2070) == 96
        assert block_mapping_tpb(8.4, TESLA_C2070) == 32

    def test_block_mapping_clamped(self):
        assert block_mapping_tpb(0.5, TESLA_C2070) == 32
        assert block_mapping_tpb(1e9, TESLA_C2070) == TESLA_C2070.max_threads_per_block


class TestWorksetGen:
    def test_bitmap_has_no_atomics(self):
        tallies = workset_gen_tallies(10_000, 500, WorksetRepr.BITMAP, TESLA_C2070)
        assert len(tallies) == 1
        assert tallies[0].atomics_same_address == 0

    def test_queue_atomics_equal_updates(self):
        tallies = workset_gen_tallies(10_000, 500, WorksetRepr.QUEUE, TESLA_C2070)
        assert tallies[-1].atomics_same_address == 500

    def test_scan_based_queue_replaces_atomics(self):
        tallies = workset_gen_tallies(
            100_000, 5_000, WorksetRepr.QUEUE, TESLA_C2070, scheme="scan"
        )
        assert len(tallies) > 1  # scan kernels prepended
        assert all(t.atomics_same_address == 0 for t in tallies)

    def test_updated_bounded_by_nodes(self):
        with pytest.raises(WorksetError):
            workset_gen_tallies(10, 11, WorksetRepr.QUEUE, TESLA_C2070)

    def test_scan_cheaper_for_huge_updates(self):
        from repro.gpusim.kernel import CostModel

        model = CostModel(TESLA_C2070)
        n, u = 1_000_000, 400_000
        atomic = sum(
            model.price(t).seconds
            for t in workset_gen_tallies(n, u, WorksetRepr.QUEUE, TESLA_C2070)
        )
        scan = sum(
            model.price(t).seconds
            for t in workset_gen_tallies(
                n, u, WorksetRepr.QUEUE, TESLA_C2070, scheme="scan"
            )
        )
        assert scan < atomic  # Merrill et al.'s observation

    def test_atomic_cheaper_for_tiny_updates(self):
        from repro.gpusim.kernel import CostModel

        model = CostModel(TESLA_C2070)
        n, u = 1_000_000, 50
        atomic = sum(
            model.price(t).seconds
            for t in workset_gen_tallies(n, u, WorksetRepr.QUEUE, TESLA_C2070)
        )
        scan = sum(
            model.price(t).seconds
            for t in workset_gen_tallies(
                n, u, WorksetRepr.QUEUE, TESLA_C2070, scheme="scan"
            )
        )
        assert atomic < scan  # scan pays fixed multi-kernel overhead
