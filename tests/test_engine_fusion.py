"""The spec-fusion pass and the launch-accounting bug sweep.

Tentpole coverage: :mod:`repro.engine.fusion` lowering (refusal
conditions, the tally merge rule, plan kinds), fused-run value parity,
H2D hoisting, and batched-frame fusion.

Satellite regressions:

- **S1 launch accounting** — every Figure-8 iteration prices exactly
  one computation kernel, one generation kernel and one 4-byte size
  readback; skip-generation exits (DOBFS pull termination) and k-core's
  refill filter charge nothing extra.
- **S2 entry width** — every pricing path honors
  ``StepOutcome.gen_count`` / ``workset_entry_bytes``: ordered queues
  stream 8-byte ``(node, key)`` pairs through generation, find-min and
  the batched generation sweep.
- **S3 zero-work gate** — a ``first_choose_size`` hint of 0 exits the
  loop without consulting the policy or pricing its overhead region, in
  the single-source driver and in batch admission alike.
"""

import hashlib

import numpy as np
import pytest

from repro.core import run_default, run_static
from repro.engine.batch import BatchFrame, QueryPlan, run_batch_frame
from repro.engine.driver import run_frame
from repro.engine.fusion import FusionStats, LaunchPlan, fuse_tallies, lower
from repro.engine.registry import get_algorithm, registered_algorithms
from repro.engine.types import StaticPolicy, VariantPolicy
from repro.graph.csr import CSRGraph
from repro.graph.datasets import make_dataset
from repro.gpusim.device import TESLA_C2070
from repro.gpusim.kernel import CostModel
from repro.kernels.findmin import findmin_tallies
from repro.kernels.frame import BfsSpec, OrderedSsspSpec
from repro.kernels.multisource import fused_workset_gen_tallies
from repro.kernels.pagerank import PagerankSpec
from repro.kernels.variants import Variant, WorksetRepr
from repro.kernels.workset import workset_gen_tallies


@pytest.fixture(scope="module")
def graph():
    return make_dataset("p2p", scale=0.1, seed=7, weighted=True)


@pytest.fixture(scope="module")
def empty_graph():
    return CSRGraph(
        np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), name="empty"
    )


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _kernel_counts(result) -> dict:
    counts = {}
    for k in result.timeline.kernels:
        base = k.tally.name.split("[")[0]
        counts[base] = counts.get(base, 0) + 1
    return counts


def _readbacks(result) -> int:
    return sum(
        1
        for t in result.timeline.transfers
        if t.direction == "d2h" and t.num_bytes == 4
    )


class _BoomPolicy(VariantPolicy):
    """A policy that must never be consulted."""

    name = "boom"

    def choose(self, iteration, workset_size):
        raise AssertionError("policy consulted despite zero work")

    def overhead_tallies(self, iteration, workset_size, num_nodes, device):
        raise AssertionError("policy overhead priced despite zero work")


# ---------------------------------------------------------------------------
# Tentpole: the lowering pass
# ---------------------------------------------------------------------------


def test_lower_pins_static_plan():
    plan = lower(BfsSpec(), StaticPolicy(Variant.parse("U_T_BM")))
    assert isinstance(plan, LaunchPlan)
    assert plan.fusible and plan.fuse_always and not plan.fuse_bitmap_only
    assert plan.specialized and plan.fixed_variant == "U_T_BM"
    assert plan.refusals == ()


def test_lower_adaptive_plan_is_bitmap_only(graph):
    from repro.core.policies import AdaptivePolicy

    policy = AdaptivePolicy(graph, device=TESLA_C2070)
    plan = lower(BfsSpec(), policy)
    assert plan.fusible and plan.fuse_bitmap_only and not plan.fuse_always
    assert plan.fixed_variant is None


def test_lower_refuses_ordered_and_scan():
    plan = lower(OrderedSsspSpec(), StaticPolicy(Variant.parse("O_T_QU")))
    assert not plan.fusible
    reasons = " ".join(plan.refusals)
    assert "find-min" in reasons and "ordered" in reasons

    plan = lower(
        BfsSpec(),
        StaticPolicy(Variant.parse("U_T_BM")),
        queue_gen="scan",
    )
    assert not plan.fusible
    assert any("scan" in r for r in plan.refusals)


def test_fuse_tallies_never_costs_more_than_parts(graph):
    base = run_static(graph, 0, "bfs", "U_T_BM")
    model = CostModel(TESLA_C2070)
    kernels = base.timeline.kernels
    comp, gen = kernels[0].tally, kernels[1].tally
    fused = fuse_tallies([comp, gen])
    assert "[" not in fused.name  # Timeline.seconds_by_kernel splits on it
    assert fused.name.startswith("fused:")
    separate = model.price(comp).seconds + model.price(gen).seconds
    assert model.price(fused).seconds <= separate + 1e-15
    # One launch overhead instead of two is the guaranteed floor.
    assert separate - model.price(fused).seconds >= (
        TESLA_C2070.kernel_launch_overhead_s - 1e-15
    )


def test_fuse_tallies_rejects_empty():
    with pytest.raises(ValueError):
        fuse_tallies([])


@pytest.mark.parametrize("variant", ["U_T_BM", "U_B_QU"])
def test_fused_static_run_is_bit_identical(graph, variant):
    base = run_static(graph, 0, "bfs", variant)
    fused = run_static(graph, 0, "bfs", variant, fuse=True)
    assert _sha(base.values) == _sha(fused.values)
    assert [r.variant for r in base.iterations] == [
        r.variant for r in fused.iterations
    ]
    stats = fused.fusion
    assert isinstance(stats, FusionStats)
    assert stats.fused_iterations == len(fused.iterations)
    assert stats.refused_iterations == 0
    assert stats.overhead_saved_s == pytest.approx(
        stats.fused_iterations * TESLA_C2070.kernel_launch_overhead_s
    )
    assert fused.total_seconds < base.total_seconds
    # One merged launch replaces the comp+gen pair each iteration.
    assert len(fused.timeline.kernels) == len(base.timeline.kernels) - (
        stats.fused_iterations
    )
    # The size readback is never fused away.
    assert _readbacks(fused) == _readbacks(base)


def test_fused_ordered_run_refuses_but_matches(graph):
    base = run_static(graph, 0, "sssp", "O_T_QU")
    fused = run_static(graph, 0, "sssp", "O_T_QU", fuse=True)
    assert _sha(base.values) == _sha(fused.values)
    assert fused.fusion.plan.fusible is False
    assert fused.fusion.fused_iterations == 0
    assert fused.total_seconds == base.total_seconds


def test_fused_triangles_hoists_h2d(graph):
    base = run_static(graph, -1, "triangles", "U_T_QU")
    fused = run_static(graph, -1, "triangles", "U_T_QU", fuse=True)
    assert np.array_equal(base.values, fused.values)
    stats = fused.fusion
    assert stats.fused_iterations == len(fused.iterations)
    # The 64-byte chunk descriptor ships once instead of per iteration.
    assert stats.hoisted_h2d_bytes == 64 * (len(fused.iterations) - 1)
    base_h2d = sum(
        t.num_bytes for t in base.timeline.transfers if t.direction == "h2d"
    )
    fused_h2d = sum(
        t.num_bytes for t in fused.timeline.transfers if t.direction == "h2d"
    )
    assert base_h2d - fused_h2d == stats.hoisted_h2d_bytes


def test_fusion_metrics_reported(graph):
    from repro.obs import Observer, observing

    observer = Observer()
    with observing(observer):
        run_static(graph, 0, "bfs", "U_T_BM", fuse=True)
    snap = observer.metrics.snapshot()
    assert snap["fusion.fused_launches"]["value"] > 0
    assert snap["fusion.launches_eliminated"]["value"] > 0
    assert snap["fusion.overhead_saved_s"]["value"] > 0
    assert snap["fusion.refused_iterations"]["value"] == 0


def test_batch_fusion_parity_and_savings(graph):
    info = get_algorithm("bfs")

    def plans():
        return [
            QueryPlan(
                spec=info.make_spec(),
                source=s,
                policy=StaticPolicy(Variant.parse("U_T_BM")),
            )
            for s in (0, 1, 2, 3)
        ]

    base = run_batch_frame(graph, plans())
    fused = run_batch_frame(graph, plans(), fusion=True)
    for b, f in zip(base.queries, fused.queries):
        assert _sha(b.values) == _sha(f.values)
        assert len(b.iterations) == len(f.iterations)
    assert fused.fused_supersteps > 0
    assert fused.fusion_overhead_saved_s == pytest.approx(
        fused.fused_supersteps * TESLA_C2070.kernel_launch_overhead_s
    )
    assert fused.timeline.total_seconds < base.timeline.total_seconds
    assert base.fused_supersteps == 0


def test_batch_fusion_refuses_mixed_variants(graph):
    info = get_algorithm("bfs")

    def plans():
        return [
            QueryPlan(
                spec=info.make_spec(),
                source=0,
                policy=StaticPolicy(Variant.parse("U_T_BM")),
            ),
            QueryPlan(
                spec=info.make_spec(),
                source=1,
                policy=StaticPolicy(Variant.parse("U_B_QU")),
            ),
        ]

    base = run_batch_frame(graph, plans())
    fused = run_batch_frame(graph, plans(), fusion=True)
    for b, f in zip(base.queries, fused.queries):
        assert _sha(b.values) == _sha(f.values)


# ---------------------------------------------------------------------------
# S1: launch accounting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["U_T_BM", "U_B_QU"])
def test_bfs_prices_one_pair_and_one_readback_per_iteration(graph, variant):
    result = run_static(graph, 0, "bfs", variant)
    counts = _kernel_counts(result)
    iters = result.num_iterations
    assert counts == {"bfs_comp": iters, "workset_gen": iters}
    assert _readbacks(result) == iters


def test_ordered_sssp_prices_findmin_once_per_iteration(graph):
    result = run_static(graph, 0, "sssp", "O_T_QU")
    counts = _kernel_counts(result)
    iters = result.num_iterations
    assert counts == {
        "sssp_ordered_comp": iters,
        "findmin": iters,
        "workset_gen": iters,
    }
    assert _readbacks(result) == iters


def test_dobfs_label_override_charges_no_extra_launches(graph):
    result = run_default(graph, 0, "dobfs")
    counts = _kernel_counts(result)
    iters = result.num_iterations
    # Push and pull iterations together cover every iteration exactly
    # once; label-overridden pull steps charge no extra generation.
    assert counts.get("bfs_comp", 0) + counts.get("bfs_pull", 0) == iters
    assert counts["workset_gen"] <= iters
    assert _readbacks(result) <= iters
    assert len(result.timeline.kernels) <= 2 * iters


def test_kcore_refill_charges_filter_only(graph):
    result = run_static(graph, -1, "kcore", "U_B_QU")
    counts = _kernel_counts(result)
    iters = result.num_iterations
    assert counts["kcore_comp"] == iters
    assert counts["workset_gen"] == iters
    refills = counts.get("kcore_filter", 0)
    # Each refill prices one filter kernel and one 4-byte readback; no
    # iteration is double-charged.
    assert _readbacks(result) == iters + refills
    assert len(result.timeline.kernels) == 2 * iters + refills


# ---------------------------------------------------------------------------
# S2: workset entry width
# ---------------------------------------------------------------------------


def _mem_total(tallies):
    return sum(t.mem_transactions for t in tallies)


@pytest.mark.parametrize("scheme", ["atomic", "hierarchical", "scan"])
def test_workset_gen_honors_entry_bytes(scheme):
    device = TESLA_C2070
    narrow = workset_gen_tallies(
        4096, 2048, WorksetRepr.QUEUE, device, scheme=scheme, entry_bytes=4
    )
    wide = workset_gen_tallies(
        4096, 2048, WorksetRepr.QUEUE, device, scheme=scheme, entry_bytes=8
    )
    assert _mem_total(wide) > _mem_total(narrow)
    # Bitmaps write bits, not records: width must not change them.
    nb = workset_gen_tallies(
        4096, 2048, WorksetRepr.BITMAP, device, scheme=scheme, entry_bytes=4
    )
    wb = workset_gen_tallies(
        4096, 2048, WorksetRepr.BITMAP, device, scheme=scheme, entry_bytes=8
    )
    assert _mem_total(nb) == _mem_total(wb)


def test_findmin_streams_ordered_pairs():
    device = TESLA_C2070
    narrow = findmin_tallies(2048, 4096, WorksetRepr.QUEUE, device, entry_bytes=4)
    wide = findmin_tallies(2048, 4096, WorksetRepr.QUEUE, device, entry_bytes=8)
    assert _mem_total(wide) > _mem_total(narrow)


def test_fused_workset_gen_honors_entry_bytes():
    device = TESLA_C2070
    narrow = fused_workset_gen_tallies(
        1024, [256, 256], WorksetRepr.QUEUE, device, entry_bytes=4
    )
    wide = fused_workset_gen_tallies(
        1024, [256, 256], WorksetRepr.QUEUE, device, entry_bytes=8
    )
    assert _mem_total(wide) > _mem_total(narrow)


def test_ordered_spec_declares_wide_entries(graph):
    assert OrderedSsspSpec().workset_entry_bytes == 8
    # Integration: the ordered run's generation traffic reflects the
    # 8-byte pairs — pricing the same run with 4-byte entries (the old
    # hard-code) must come out cheaper.
    wide = run_static(graph, 0, "sssp", "O_T_QU")

    class _NarrowOrdered(OrderedSsspSpec):
        workset_entry_bytes = 4

    narrow = run_frame(
        graph, 0, StaticPolicy(Variant.parse("O_T_QU")), _NarrowOrdered()
    )
    assert np.array_equal(wide.values, narrow.values)
    assert wide.gpu_seconds > narrow.gpu_seconds


# ---------------------------------------------------------------------------
# S3: the zero-work gate
# ---------------------------------------------------------------------------


def test_zero_work_graph_never_consults_policy(empty_graph):
    for info in registered_algorithms():
        if info.source_based or not info.supports_variants:
            continue  # a source on a 0-node graph is a validation error
        result = run_frame(empty_graph, -1, _BoomPolicy(), info.make_spec())
        assert result.num_iterations == 0, info.name
        assert len(result.timeline.kernels) == 0, info.name


def test_pagerank_converged_at_init_skips_policy(graph):
    # tolerance=1.0 swallows the initial residuals: the hint is 0 and
    # the loop exits before any kernel or policy-overhead launch.
    result = run_frame(graph, -1, _BoomPolicy(), PagerankSpec(tolerance=1.0))
    assert result.num_iterations == 0
    assert len(result.timeline.kernels) == 0


def test_batch_admit_zero_work_row_skips_policy(graph):
    info = get_algorithm("bfs")

    class _DrainedSpec(type(info.make_spec())):
        def init_state(self, ctx):
            state = super().init_state(ctx)
            state.frontier = np.zeros(0, dtype=state.frontier.dtype)
            return state

        def first_choose_size(self, state):
            return 0

    frame = BatchFrame(graph)
    frame.admit([QueryPlan(spec=_DrainedSpec(), source=0, policy=_BoomPolicy())])
    result = frame.finish()
    assert result.queries[0].error is None
    assert len(result.queries[0].iterations) == 0
