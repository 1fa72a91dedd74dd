"""Tests for the batched multi-source frame: repro.engine.batch and the
fused pricing kernels in repro.kernels.multisource.

The load-bearing contract: batching fuses *pricing* only — every row
keeps its own values, frontier, policy and decision trace, so a batched
query's answer AND its decision sequence are bit-identical to the same
query run through the single-source driver.
"""

import numpy as np
import pytest

from repro.core.config import RuntimeConfig
from repro.core.policies import AdaptivePolicy
from repro.core.runtime import adaptive_run, run_static
from repro.engine import QueryPlan, get_algorithm, run_batch_frame
from repro.engine.types import StaticPolicy
from repro.errors import KernelError
from repro.gpusim.device import TESLA_C2070
from repro.kernels.frame import OrderedSsspSpec
from repro.kernels.multisource import (
    RowRelaxation,
    fused_computation_tally,
    fused_readback_bytes,
    fused_workset_gen_tallies,
)
from repro.kernels.variants import Variant, WorksetRepr


def _adaptive_plan(graph, algorithm, source, device=TESLA_C2070):
    info = get_algorithm(algorithm)
    policy = AdaptivePolicy(graph, RuntimeConfig(), device=device)
    return QueryPlan(info.make_spec(), source, policy)


def _static_plan(algorithm, source, code):
    info = get_algorithm(algorithm)
    return QueryPlan(info.make_spec(), source, StaticPolicy(Variant.parse(code)))


def _decisions(trace):
    return [(d.iteration, d.workset_size, d.variant) for d in trace.decisions]


class TestBatchParity:
    def test_bfs_values_and_traces_match_single_source(self, random_graph):
        sources = [0, 3, 17, 55, 199]
        frame = run_batch_frame(
            random_graph, [_adaptive_plan(random_graph, "bfs", s) for s in sources]
        )
        assert frame.ok_count == len(sources)
        for outcome, source in zip(frame.queries, sources):
            single = adaptive_run(random_graph, "bfs", source)
            assert np.array_equal(outcome.values, single.values)
            assert outcome.num_iterations == single.num_iterations
            # Same decision points, same inputs, same variants — the
            # fused frame mirrors run_frame's choose() sequence exactly.
            assert _decisions(outcome.trace) == _decisions(single.trace)

    def test_sssp_values_match_single_source(self, random_weighted):
        sources = [0, 5, 42]
        frame = run_batch_frame(
            random_weighted,
            [_adaptive_plan(random_weighted, "sssp", s) for s in sources],
        )
        for outcome, source in zip(frame.queries, sources):
            single = adaptive_run(random_weighted, "sssp", source)
            # Bit-identical, not merely close: same relaxation order.
            assert np.array_equal(outcome.values, single.values)

    def test_static_variant_parity(self, random_graph):
        frame = run_batch_frame(
            random_graph,
            [_static_plan("bfs", 7, "U_T_QU"), _static_plan("bfs", 90, "U_B_BM")],
        )
        for outcome, (source, code) in zip(
            frame.queries, [(7, "U_T_QU"), (90, "U_B_BM")]
        ):
            single = run_static(random_graph, source, "bfs", code)
            assert np.array_equal(outcome.values, single.values)
            assert all(rec.variant == code for rec in outcome.iterations)

    def test_mixed_algorithm_batch(self, random_weighted):
        frame = run_batch_frame(
            random_weighted,
            [
                _adaptive_plan(random_weighted, "bfs", 0),
                _adaptive_plan(random_weighted, "sssp", 0),
            ],
        )
        assert frame.ok_count == 2
        bfs, sssp = frame.queries
        assert np.array_equal(bfs.values, adaptive_run(random_weighted, "bfs", 0).values)
        assert np.array_equal(
            sssp.values, adaptive_run(random_weighted, "sssp", 0).values
        )


class TestBatchDispatch:
    def test_empty_batch_rejected(self, random_graph):
        with pytest.raises(KernelError, match="at least one query"):
            run_batch_frame(random_graph, [])

    def test_non_batchable_spec_rejected(self, random_weighted):
        # Ordered SSSP keeps per-query findmin structures: routing it
        # into the fused frame is a dispatch bug, not a query fault.
        plan = QueryPlan(
            OrderedSsspSpec(), 0, StaticPolicy(Variant.parse("O_T_QU"))
        )
        with pytest.raises(KernelError, match="batched multi-source"):
            run_batch_frame(random_weighted, [plan])


class TestBatchIsolation:
    def test_bad_source_is_isolated(self, random_graph):
        frame = run_batch_frame(
            random_graph,
            [
                _adaptive_plan(random_graph, "bfs", 0),
                _adaptive_plan(random_graph, "bfs", 10_000),
                _adaptive_plan(random_graph, "bfs", 3),
            ],
        )
        ok0, bad, ok2 = frame.queries
        assert not bad.ok and bad.values is None and "10000" in bad.error
        for outcome, source in ((ok0, 0), (ok2, 3)):
            assert outcome.ok
            assert np.array_equal(
                outcome.values, adaptive_run(random_graph, "bfs", source).values
            )

    def test_cap_exceeded_is_isolated(self, chain10):
        # On the bidirectional 10-chain, source 0 needs 9 iterations but
        # the middle node drains within 6 — it must still finish.
        frame = run_batch_frame(
            chain10,
            [
                _static_plan("bfs", 0, "U_T_QU"),
                _static_plan("bfs", 4, "U_T_QU"),
            ],
            max_iterations=6,
        )
        capped, ok = frame.queries
        assert not capped.ok and "iteration" in capped.error
        assert ok.ok
        assert np.array_equal(ok.values, run_static(chain10, 4, "bfs", "U_T_QU").values)


class TestBatchAmortization:
    def test_fused_stats_and_shared_timeline(self, random_graph):
        sources = [0, 11, 22, 33]
        frame = run_batch_frame(
            random_graph, [_adaptive_plan(random_graph, "bfs", s) for s in sources]
        )
        assert frame.fused_launches > 0
        assert frame.launches_saved > 0
        assert frame.readbacks_saved > 0
        assert frame.super_iterations == max(q.num_iterations for q in frame.queries)
        assert frame.total_seconds > 0
        # Per-query records carry no time: it lives on the one timeline.
        for outcome in frame.queries:
            assert all(rec.seconds == 0.0 for rec in outcome.iterations)

    def test_batch_cheaper_than_sequential(self, random_graph):
        sources = list(range(0, 160, 20))
        frame = run_batch_frame(
            random_graph, [_adaptive_plan(random_graph, "bfs", s) for s in sources]
        )
        sequential = sum(
            adaptive_run(random_graph, "bfs", s).total_seconds for s in sources
        )
        assert frame.total_seconds < sequential


class TestMultisourceKernels:
    def test_fused_tally_needs_rows(self):
        with pytest.raises(ValueError):
            fused_computation_tally([], Variant.parse("U_T_QU"), 128, 10, TESLA_C2070)

    def test_fused_grid_covers_row_slabs(self):
        rows = [
            RowRelaxation(
                active_ids=np.array([0, 3], dtype=np.int64),
                degrees=np.array([2, 1], dtype=np.int64),
                improved=2,
                updated_count=2,
            ),
            RowRelaxation(
                active_ids=np.array([1], dtype=np.int64),
                degrees=np.array([4], dtype=np.int64),
                improved=1,
                updated_count=1,
            ),
        ]
        tally = fused_computation_tally(
            rows, Variant.parse("U_T_QU"), 128, 10, TESLA_C2070
        )
        single = fused_computation_tally(
            rows[:1], Variant.parse("U_T_QU"), 128, 10, TESLA_C2070
        )
        # Stacking a second row grows the fused launch, and the whole
        # batch still pays exactly one launch overhead.
        assert tally.issue_cycles > single.issue_cycles
        assert tally.mem_transactions > single.mem_transactions

    def test_fused_gen_empty_counts_no_launch(self):
        assert fused_workset_gen_tallies(10, [], WorksetRepr.QUEUE, TESLA_C2070) == []

    def test_fused_gen_single_launch(self):
        tallies = fused_workset_gen_tallies(
            100, [5, 0, 12], WorksetRepr.QUEUE, TESLA_C2070
        )
        assert len(tallies) >= 1

    def test_fused_readback_payload(self):
        assert fused_readback_bytes(1) == 4
        assert fused_readback_bytes(8) == 32
        # Never a zero-byte transfer: the host always reads one size.
        assert fused_readback_bytes(0) == 4


class TestBatchFrameContinuous:
    """The steppable frame: continuous admission, per-row ejection."""

    def _drain(self, frame):
        while frame.step():
            pass
        return frame.finish()

    def test_late_admission_matches_single_source(self, random_graph):
        from repro.engine.batch import BatchFrame

        frame = BatchFrame(random_graph)
        frame.admit([_adaptive_plan(random_graph, "bfs", 0)])
        frame.step()
        frame.step()  # first row is mid-flight when the second joins
        frame.admit([_adaptive_plan(random_graph, "bfs", 42)])
        result = self._drain(frame)
        assert result.ok_count == 2
        for outcome in result.queries:
            single = adaptive_run(random_graph, "bfs", outcome.source)
            assert np.array_equal(outcome.values, single.values)
            assert _decisions(outcome.trace) == _decisions(single.trace)

    def test_take_finished_hands_each_row_once(self, random_graph):
        from repro.engine.batch import BatchFrame

        frame = BatchFrame(random_graph)
        frame.admit([
            _adaptive_plan(random_graph, "bfs", s) for s in (0, 7, 21)
        ])
        seen = []
        while frame.step():
            seen.extend(frame.take_finished())
        seen.extend(frame.take_finished())
        assert sorted(o.index for o in seen) == [0, 1, 2]
        assert frame.take_finished() == []

    def test_isolate_capacity_refuses_rows_individually(self, random_graph):
        from repro.engine.batch import BatchFrame
        from repro.gpusim.device import DeviceSpec

        tiny = TESLA_C2070.__class__(
            **{**TESLA_C2070.__dict__,
               "global_mem_bytes": random_graph.device_bytes() + 8_000}
        )
        frame = BatchFrame(random_graph, device=tiny)
        rows = frame.admit(
            [_adaptive_plan(random_graph, "bfs", s) for s in range(6)],
            isolate_capacity=True,
        )
        result = self._drain(frame)
        refused = [q for q in result.queries
                   if q.error and "admission refused" in q.error]
        answered = [q for q in result.queries if q.ok]
        assert refused and answered
        assert len(refused) + len(answered) == 6
