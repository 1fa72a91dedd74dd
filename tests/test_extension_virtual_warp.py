"""Tests for the virtual-warp mapping extension (beyond the paper's
T/B space; Section IV.B's "intermediate solutions can be devised")."""

import numpy as np
import pytest

from repro.core import RuntimeConfig, adaptive_run, run_static
from repro.core.decision import DecisionMaker, Thresholds
from repro.cpu import cpu_bfs, cpu_dijkstra
from repro.errors import RuntimeConfigError
from repro.graph.generators import (
    attach_uniform_weights,
    erdos_renyi_graph,
    power_law_graph,
)
from repro.gpusim.device import TESLA_C2070
from repro.kernels.costs import C_EDGE
from repro.kernels.mapping import ComputationShape, computation_tally
from repro.kernels.variants import Mapping, Variant, WorksetRepr, extended_variants


class TestExtendedVariants:
    def test_six_variants(self):
        codes = [v.code for v in extended_variants()]
        assert codes == ["U_T_BM", "U_T_QU", "U_W_BM", "U_W_QU", "U_B_BM", "U_B_QU"]

    def test_parse_warp_code(self):
        v = Variant.parse("U_W_QU")
        assert v.mapping is Mapping.WARP

    def test_warp_uses_192_tpb(self):
        v = Variant.parse("U_W_QU")
        assert v.threads_per_block(50.0, TESLA_C2070) == 192

    @pytest.mark.parametrize("code", ["U_W_BM", "U_W_QU", "O_W_QU"])
    def test_correctness(self, code, random_graph, random_weighted):
        assert np.array_equal(
            run_static(random_graph, 0, "bfs", code).values,
            cpu_bfs(random_graph, 0).levels,
        )
        assert np.allclose(
            run_static(random_weighted, 0, "sssp", code).values,
            cpu_dijkstra(random_weighted, 0).distances,
        )


class TestWarpTallyMechanics:
    def _shape(self, degrees):
        active = np.arange(len(degrees), dtype=np.int64)
        return ComputationShape(
            name="w",
            num_nodes=100_000,
            active_ids=active,
            degrees=np.asarray(degrees, dtype=np.int64),
            edge_cost=C_EDGE,
            improved=0,
            updated_count=1,
        )

    def test_no_divergence_on_skew(self):
        """A hub node occupies its own warp: no lane waits for it."""
        uniform = self._shape([8] * 3200)
        skewed_deg = [8] * 3200
        skewed_deg[0] = 8 * 320
        skewed = self._shape(skewed_deg)
        t_u = computation_tally(uniform, Mapping.WARP, WorksetRepr.QUEUE, 192, TESLA_C2070)
        t_s = computation_tally(skewed, Mapping.WARP, WorksetRepr.QUEUE, 192, TESLA_C2070)
        # The extra edges add proportional cost, not a warp-max blowup.
        assert t_s.issue_cycles < 1.3 * t_u.issue_cycles

    def test_cheaper_than_block_on_low_degree(self):
        """Same per-element rounds, but 6 elements share one block's
        dispatch and occupancy slot instead of one block each."""
        from repro.gpusim.kernel import CostModel

        model = CostModel(TESLA_C2070)
        shape = self._shape([8] * 2000)
        warp = computation_tally(shape, Mapping.WARP, WorksetRepr.QUEUE, 192, TESLA_C2070)
        block = computation_tally(shape, Mapping.BLOCK, WorksetRepr.QUEUE, 32, TESLA_C2070)
        assert warp.launch.grid_blocks < block.launch.grid_blocks
        assert model.price(warp).seconds < model.price(block).seconds

    def test_adjacency_coalesced_like_block(self):
        shape = self._shape([256] * 200)
        warp = computation_tally(shape, Mapping.WARP, WorksetRepr.QUEUE, 192, TESLA_C2070)
        thread = computation_tally(shape, Mapping.THREAD, WorksetRepr.QUEUE, 192, TESLA_C2070)
        assert warp.mem_transactions < thread.mem_transactions


class TestExtendedDecisionSpace:
    def _maker(self, **kwargs):
        return DecisionMaker(
            Thresholds(t1=32.0, t2=2688, t3=10_000, t1_low=4.0), **kwargs
        )

    def test_disabled_by_default(self):
        maker = self._maker()
        assert maker.decide(5000, 8.0)[0].mapping is Mapping.THREAD

    def test_warp_band(self):
        maker = self._maker(use_warp_mapping=True)
        assert maker.decide(5000, 2.0)[0].mapping is Mapping.THREAD
        assert maker.decide(5000, 8.0)[0].mapping is Mapping.WARP
        assert maker.decide(5000, 64.0)[0].mapping is Mapping.BLOCK

    def test_small_ws_unchanged(self):
        maker = self._maker(use_warp_mapping=True)
        assert maker.decide(10, 8.0)[0].code == "U_B_QU"

    def test_region_labels(self):
        maker = self._maker(use_warp_mapping=True)
        assert maker.decide(5000, 8.0)[1] == "mid-ws/mid-degree"

    def test_thresholds_validate_t1_low(self):
        with pytest.raises(RuntimeConfigError):
            Thresholds(t1=32.0, t2=1, t3=1, t1_low=64.0)
        with pytest.raises(RuntimeConfigError):
            Thresholds(t1=32.0, t2=1, t3=1, t1_low=0.0)


class TestExtendedRuntime:
    def test_config_resolution(self):
        # The warp band's lower bound is warp_size / 8.
        cfg = RuntimeConfig(use_warp_mapping=True)
        assert cfg.resolve_thresholds(TESLA_C2070, 10_000).t1_low == 4.0

    def test_extended_adaptive_correct_and_uses_warp(self):
        g = attach_uniform_weights(
            power_law_graph(40_000, alpha=2.0, min_degree=4, max_degree=200, seed=3),
            seed=4,
        )
        src = int(np.argmax(g.out_degrees))
        result = adaptive_run(
            g, "sssp", src, config=RuntimeConfig(use_warp_mapping=True),
        )
        oracle = cpu_dijkstra(g, src)
        assert np.allclose(result.values, oracle.distances)
        assert any(code.startswith("U_W") for code in result.variants_used())

    def test_extension_never_hurts_much(self):
        g = attach_uniform_weights(erdos_renyi_graph(20_000, 120_000, seed=5), seed=6)
        base = adaptive_run(g, "sssp", 0)
        ext = adaptive_run(g, "sssp", 0, config=RuntimeConfig(use_warp_mapping=True))
        assert ext.total_seconds <= 1.1 * base.total_seconds
