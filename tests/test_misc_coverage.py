"""Targeted tests for smaller modules: findmin, the error hierarchy,
policy protocol defaults, and the queue-generation scheme registry."""

import numpy as np
import pytest

import repro.errors as errors
from repro.core import adaptive_run, run_static
from repro.engine.types import StaticPolicy, VariantPolicy
from repro.errors import ReproError, WorksetError
from repro.gpusim.device import TESLA_C2070
from repro.gpusim.kernel import CostModel
from repro.kernels.findmin import findmin, findmin_tallies
from repro.kernels.variants import Variant, WorksetRepr
from repro.kernels.workset import QUEUE_GEN_SCHEMES, workset_gen_tallies


class TestErrorHierarchy:
    def test_all_exported_errors_derive_from_base(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, ReproError), name

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise errors.GraphFormatError("bad file")

    def test_format_error_is_graph_error(self):
        assert issubclass(errors.GraphFormatError, errors.GraphError)


class TestFindmin:
    def test_minimum_over_finite(self):
        assert findmin(np.array([3.0, np.inf, 1.5])) == 1.5

    def test_all_infinite_is_identity(self):
        # The reduction's identity, not a crash: an all-+inf working set
        # means "nothing left to settle" and the ordered frame treats it
        # as clean convergence.
        assert findmin(np.array([np.inf, np.inf])) == float("inf")

    def test_empty_is_identity(self):
        assert findmin(np.array([], dtype=np.float64)) == float("inf")

    def test_queue_reduces_workset_only(self):
        q = findmin_tallies(1000, 100_000, WorksetRepr.QUEUE, TESLA_C2070)
        b = findmin_tallies(1000, 100_000, WorksetRepr.BITMAP, TESLA_C2070)
        model = CostModel(TESLA_C2070)
        q_time = sum(model.price(t).seconds for t in q)
        b_time = sum(model.price(t).seconds for t in b)
        # Bitmap findmin must reduce over all n slots: strictly costlier.
        assert b_time > q_time

    def test_empty_workset_still_launches(self):
        tallies = findmin_tallies(0, 100, WorksetRepr.QUEUE, TESLA_C2070)
        assert len(tallies) >= 1


class TestPolicyProtocol:
    def test_default_not_ordered(self):
        class Dummy(VariantPolicy):
            def choose(self, iteration, ws):
                return Variant.parse("U_T_BM")

        assert Dummy().is_ordered() is False

    def test_default_overhead_empty(self):
        class Dummy(VariantPolicy):
            def choose(self, iteration, ws):
                return Variant.parse("U_T_BM")

        assert Dummy().overhead_tallies(0, 1, 10, TESLA_C2070) == []

    def test_static_policy_ordered_flag(self):
        assert StaticPolicy(Variant.parse("O_T_QU")).is_ordered() is True
        assert StaticPolicy(Variant.parse("U_T_QU")).is_ordered() is False

    def test_notify_default_noop(self):
        StaticPolicy(Variant.parse("U_T_BM")).notify(None)


class TestQueueGenSchemes:
    def test_registry(self):
        assert QUEUE_GEN_SCHEMES == ("atomic", "scan", "hierarchical")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(WorksetError, match="unknown queue generation"):
            workset_gen_tallies(
                100, 10, WorksetRepr.QUEUE, TESLA_C2070, scheme="quantum"
            )

    def test_hierarchical_one_global_atomic_per_block(self):
        tallies = workset_gen_tallies(
            100_000, 40_000, WorksetRepr.QUEUE, TESLA_C2070, scheme="hierarchical"
        )
        main = tallies[-1]
        assert main.atomics_same_address == main.launch.grid_blocks

    def test_hierarchical_beats_atomic_on_large_frontier(self):
        model = CostModel(TESLA_C2070)
        n, u = 500_000, 200_000
        flat = sum(
            model.price(t).seconds
            for t in workset_gen_tallies(n, u, WorksetRepr.QUEUE, TESLA_C2070)
        )
        hier = sum(
            model.price(t).seconds
            for t in workset_gen_tallies(
                n, u, WorksetRepr.QUEUE, TESLA_C2070, scheme="hierarchical"
            )
        )
        assert hier < flat

    def test_bitmap_ignores_scheme(self):
        for scheme in QUEUE_GEN_SCHEMES:
            tallies = workset_gen_tallies(
                1000, 100, WorksetRepr.BITMAP, TESLA_C2070, scheme=scheme
            )
            assert len(tallies) == 1
            assert tallies[0].atomics_same_address == 0


class TestDeviceMemoryCapacity:
    def test_oversized_graph_rejected(self):
        from repro.errors import KernelError
        from repro.graph.generators import chain_graph

        tiny_device = TESLA_C2070.with_overrides(global_mem_bytes=1024)
        with pytest.raises(KernelError, match="device memory"):
            run_static(chain_graph(10_000), 0, "bfs", "U_T_BM", device=tiny_device)

    def test_fitting_graph_accepted(self):
        from repro.graph.generators import chain_graph

        run_static(chain_graph(100), 0, "bfs", "U_T_BM")  # 6 GB is plenty


class TestRuntimeQueueGenConfig:
    def test_adaptive_honors_queue_gen(self):
        from repro.core import RuntimeConfig
        from repro.errors import RuntimeConfigError
        from repro.graph.generators import attach_uniform_weights, erdos_renyi_graph

        g = attach_uniform_weights(erdos_renyi_graph(5000, 30_000, seed=20), seed=21)
        base = adaptive_run(g, "sssp", 0, config=RuntimeConfig(queue_gen="atomic"))
        hier = adaptive_run(
            g, "sssp", 0, config=RuntimeConfig(queue_gen="hierarchical"),
        )
        assert np.allclose(base.values, hier.values)
        assert hier.total_seconds <= base.total_seconds

        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(queue_gen="psychic")


class TestOrderedConvergence:
    """Regression: an ordered working set holding only stale +inf
    entries crashed the findmin reduction with ValueError instead of
    letting the traversal terminate cleanly."""

    def test_all_stale_workset_terminates_cleanly(self, tiny_weighted):
        from repro.engine.spec import FrameState
        from repro.kernels.computation import OrderedSsspState
        from repro.kernels.frame import OrderedSsspSpec
        from repro.kernels.variants import Variant

        class Ctx:
            def __init__(self, graph):
                self.graph = graph
                self.device = TESLA_C2070
                self.priced = []

            def price(self, tally, label=None):
                self.priced.append(tally)

        ordered = OrderedSsspState(
            dist=np.zeros(tiny_weighted.num_nodes),
            ws_nodes=np.array([3, 4], dtype=np.int64),
            ws_keys=np.array([np.inf, np.inf]),
            dedupe=False,
        )
        state = FrameState(
            ordered.dist, np.empty(0, dtype=np.int64), ordered=ordered
        )
        ctx = Ctx(tiny_weighted)
        outcome = OrderedSsspSpec().compute(
            ctx, state, Variant.parse("O_T_QU"), 128
        )
        # None = the step itself detected termination; the findmin
        # reduction still launched and was priced.
        assert outcome is None
        assert len(ctx.priced) >= 1
