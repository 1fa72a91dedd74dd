"""Tests for the reliability layer: fault plans and injection,
checkpoint/restore, the watchdog, and the guarded runners.

The load-bearing guarantee is the acceptance criterion from the issue:
under a seeded fault plan (transient launch failures plus state
corruption), ``resilient_run`` returns BFS and SSSP values
bit-identical to a fault-free run, and the trace lists every injected
fault together with the recovery action that answered it.
"""

import json

import numpy as np
import pytest

from repro.core import adaptive_run, run_static
from repro.core.telemetry import RECOVERY_ACTIONS, FaultEvent
from repro.cpu import cpu_bfs
from repro.errors import (
    CheckpointError,
    DeviceLostError,
    FaultPlanError,
    KernelError,
    LaunchError,
    MemoryFaultError,
    NonConvergenceError,
    ReproError,
)
from repro.graph.generators import attach_uniform_weights, erdos_renyi_graph
from repro.reliability import (
    CheckpointKeeper,
    FaultInjector,
    FaultPlan,
    GuardConfig,
    Watchdog,
    load_fault_plan,
    resilient_run,
)


def small_graph(weighted=False, seed=11):
    g = erdos_renyi_graph(400, 2400, seed=seed)
    return attach_uniform_weights(g, seed=seed + 1) if weighted else g


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_defaults_are_empty(self):
        assert FaultPlan().is_empty

    def test_rate_out_of_range(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(launch_failure_rate=1.5)
        with pytest.raises(FaultPlanError):
            FaultPlan(memory_fault_rate=-0.1)

    def test_spike_factor_below_one(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(latency_spike_rate=0.1, latency_spike_factor=0.5)

    def test_max_faults_zero_means_empty(self):
        plan = FaultPlan(launch_failure_rate=0.5, max_faults=0)
        assert plan.is_empty

    def test_roundtrip_dict(self):
        plan = FaultPlan(seed=3, launch_failure_rate=0.1)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_key_rejected(self):
        with pytest.raises(FaultPlanError) as exc:
            FaultPlan.from_dict({"launch_rate": 0.1})
        assert "launch_rate" in str(exc.value)

    def test_load_inline_json(self):
        plan = load_fault_plan('{"seed": 9, "launch_failure_rate": 0.2}')
        assert plan.seed == 9
        assert plan.launch_failure_rate == 0.2

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"memory_fault_rate": 0.05}))
        assert load_fault_plan(str(path)).memory_fault_rate == 0.05

    def test_load_missing_file(self):
        with pytest.raises(FaultPlanError):
            load_fault_plan("/no/such/plan.json")

    def test_load_bad_json(self):
        with pytest.raises(FaultPlanError):
            load_fault_plan("{not json")

    def test_errors_catchable_via_base(self):
        with pytest.raises(ReproError):
            load_fault_plan("[1, 2]")

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(FaultPlanError) as exc:
            FaultPlan.from_dict({"kinds": ["launch_failure", "cosmic_ray"]})
        assert "cosmic_ray" in str(exc.value)

    def test_kinds_filter_gates_injection(self):
        plan = FaultPlan(
            seed=1, launch_failure_rate=1.0, kinds=("memory_fault",)
        )
        assert not plan.enables("launch_failure")
        assert plan.enables("memory_fault")
        assert FaultPlan(kinds=()).is_empty

    def test_device_scope_validation(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(device=-2)

    def test_for_device_scoping(self):
        plan = FaultPlan(seed=4, device_loss_rate=0.2, device=1)
        assert plan.for_device(0, 4) is None
        derived = plan.for_device(1, 4)
        assert derived is not None
        assert derived.device is None  # scope resolved, not re-applied
        assert derived.seed != plan.seed

    def test_for_device_seeds_are_distinct(self):
        plan = FaultPlan(seed=4, device_loss_rate=0.2)
        seeds = {plan.for_device(i, 4).seed for i in range(4)}
        assert len(seeds) == 4

    def test_for_device_out_of_range_scope(self):
        plan = FaultPlan(seed=4, device_loss_rate=0.2, device=7)
        with pytest.raises(FaultPlanError, match="only 4 devices"):
            plan.for_device(0, 4)


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_deterministic_sequence(self):
        plan = FaultPlan(seed=4, launch_failure_rate=0.3, latency_spike_rate=0.2)

        def drive(injector):
            fired = []
            for _ in range(200):
                try:
                    injector.latency_multiplier("bfs_step")
                except ReproError:
                    pass
            return [(f.kind, f.sequence) for f in injector.log]

        a = drive(FaultInjector(plan))
        b = drive(FaultInjector(plan))
        assert a == b
        assert a  # the plan does fire at these rates

    def test_memory_fault_corrupts_live_arrays(self):
        plan = FaultPlan(seed=0, memory_fault_rate=1.0)
        injector = FaultInjector(plan)
        values = np.arange(64, dtype=np.int64)
        frontier = np.arange(4, dtype=np.int64) + 1
        with pytest.raises(MemoryFaultError) as exc:
            injector.on_iteration(3, values, frontier)
        assert "iteration 3" in str(exc.value)
        assert (values < 0).any()  # scribbled
        assert frontier[0] == 0

    def test_max_faults_budget(self):
        plan = FaultPlan(seed=0, memory_fault_rate=1.0, max_faults=1)
        injector = FaultInjector(plan)
        values = np.zeros(8, dtype=np.int64)
        frontier = np.ones(2, dtype=np.int64)
        with pytest.raises(MemoryFaultError):
            injector.on_iteration(0, values, frontier)
        # budget spent: no further injection
        injector.on_iteration(1, values, frontier)
        assert injector.num_injected == 1

    def test_drain_pending(self):
        plan = FaultPlan(seed=0, memory_fault_rate=1.0)
        injector = FaultInjector(plan)
        with pytest.raises(MemoryFaultError):
            injector.on_iteration(0, np.zeros(8, dtype=np.int64),
                                  np.ones(2, dtype=np.int64))
        assert len(injector.drain_pending()) == 1
        assert injector.drain_pending() == []
        assert injector.num_injected == 1  # log keeps everything

    def test_launch_failure_is_launch_error(self):
        graph = small_graph()
        plan = FaultPlan(seed=1, launch_failure_rate=1.0)
        injector = FaultInjector(plan)
        with injector.installed():
            with pytest.raises(LaunchError) as exc:
                adaptive_run(graph, "bfs", 0)
        assert "injected transient launch failure" in str(exc.value)

    def test_device_loss_injected_and_attributed(self):
        plan = FaultPlan(seed=0, device_loss_rate=1.0)
        injector = FaultInjector(plan, device_index=3)
        with pytest.raises(DeviceLostError) as exc:
            injector.on_super_iteration(2)
        assert "device 3" in str(exc.value)
        fault = injector.log[0]
        assert fault.kind == "device_loss"
        assert fault.device == 3
        assert fault.site == "device3"

    def test_device_loss_gated_by_kinds_filter(self):
        plan = FaultPlan(
            seed=0, device_loss_rate=1.0, kinds=("launch_failure",)
        )
        injector = FaultInjector(plan, device_index=0)
        injector.on_super_iteration(0)  # must not raise
        assert injector.num_injected == 0


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

class TestCheckpoint:
    def _bfs(self, graph, **kwargs):
        return run_static(graph, 0, "bfs", "U_T_QU", **kwargs)

    def test_snapshot_is_deep_copy(self):
        keeper = CheckpointKeeper(every=1)
        values = np.arange(16, dtype=np.int64)
        frontier = np.array([3, 4], dtype=np.int64)
        keeper.offer(
            algorithm="bfs", source=0, iteration=0, values=values,
            frontier=frontier, variant_code="U_T_QU", records=(), seconds=0.1,
        )
        values[:] = -1
        frontier[:] = 0
        cp = keeper.latest
        assert cp.values[3] == 3 and cp.frontier[0] == 3
        assert cp.next_iteration == 1

    def test_resume_equals_uninterrupted(self):
        graph = small_graph()
        baseline = self._bfs(graph)

        keeper = CheckpointKeeper(every=2)
        self._bfs(graph, checkpoint_keeper=keeper)
        cp = keeper.restore("bfs", 0)
        assert cp is not None and cp.next_iteration >= 2

        resumed = self._bfs(graph, resume_from=cp)
        assert np.array_equal(resumed.values, baseline.values)
        # the result carries the checkpointed history plus the replayed
        # tail, so iteration numbering matches the uninterrupted run
        assert [r.iteration for r in resumed.iterations] == [
            r.iteration for r in baseline.iterations
        ]
        assert keeper.restores == 1

    def test_restore_rejects_mismatched_query(self):
        keeper = CheckpointKeeper(every=1)
        keeper.offer(
            algorithm="bfs", source=0, iteration=0,
            values=np.zeros(4, dtype=np.int64),
            frontier=np.zeros(1, dtype=np.int64),
            variant_code="U_T_QU", records=(), seconds=0.1,
        )
        with pytest.raises(KernelError):
            keeper.restore("sssp", 0)
        with pytest.raises(KernelError):
            keeper.restore("bfs", 7)

    def test_cost_aware_policy_respects_budget(self):
        graph = small_graph()
        from repro.gpusim.device import TESLA_C2070

        baseline = self._bfs(graph)
        keeper = CheckpointKeeper(device=TESLA_C2070)
        guarded = self._bfs(graph, checkpoint_keeper=keeper)
        # The cost-aware rule only checkpoints when the copy fits the
        # overhead budget, so total simulated time stays within ~2%.
        assert guarded.total_seconds <= 1.05 * baseline.total_seconds
        # ... unlike a naive every-iteration policy, which on this tiny
        # graph pays far more than the budget in copies.
        eager = CheckpointKeeper(every=1)
        assert self._bfs(graph, checkpoint_keeper=eager).total_seconds > (
            guarded.total_seconds
        )
        assert eager.saves > keeper.saves

    def test_interval_validation(self):
        with pytest.raises(KernelError):
            CheckpointKeeper(every=0)

    @staticmethod
    def _offered_keeper(extra=None):
        keeper = CheckpointKeeper(every=1)
        keeper.offer(
            algorithm="bfs", source=0, iteration=0,
            values=np.arange(8, dtype=np.int64),
            frontier=np.array([2, 5], dtype=np.int64),
            variant_code="U_T_QU", records=(), seconds=0.1, extra=extra,
        )
        return keeper

    def test_corrupted_values_rejected_on_restore(self):
        keeper = self._offered_keeper()
        keeper.latest.values[3] = -42  # bit-rot between capture and resume
        with pytest.raises(CheckpointError, match="'values'"):
            keeper.restore("bfs", 0)
        assert keeper.restores == 0

    def test_corrupted_frontier_rejected_on_restore(self):
        keeper = self._offered_keeper()
        keeper.latest.frontier[0] = 7
        with pytest.raises(CheckpointError, match="'frontier'"):
            keeper.restore("bfs", 0)

    def test_corrupted_extra_rejected_on_restore(self):
        keeper = self._offered_keeper(
            extra={"ranks": np.ones(4, dtype=np.float64)}
        )
        keeper.latest.extra["ranks"][0] = 0.0
        with pytest.raises(CheckpointError, match="'extra'"):
            keeper.restore("bfs", 0)

    def test_intact_checkpoint_passes_verification(self):
        keeper = self._offered_keeper()
        cp = keeper.restore("bfs", 0)
        assert cp is not None and keeper.restores == 1


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------

class TestWatchdog:
    def test_iteration_budget(self):
        dog = Watchdog(max_iterations=5)
        dog.check(4)
        with pytest.raises(NonConvergenceError) as exc:
            dog.check(5)
        assert "5" in str(exc.value)

    def test_wall_clock_deadline(self):
        now = [0.0]
        dog = Watchdog(deadline_s=1.0, clock=lambda: now[0])
        dog.check(0)
        now[0] = 2.0
        with pytest.raises(NonConvergenceError) as exc:
            dog.check(1)
        assert "deadline" in str(exc.value)

    def test_simulated_budget_spans_retries(self):
        dog = Watchdog(simulated_deadline_s=1.0)
        dog.check(0, simulated_seconds=0.5)
        dog.bank_simulated(0.8)  # a failed attempt's spend
        with pytest.raises(NonConvergenceError):
            dog.check(0, simulated_seconds=0.5)

    def test_traversal_frame_enforces_budget(self):
        graph = small_graph()
        with pytest.raises(NonConvergenceError):
            adaptive_run(graph, "bfs", 0, watchdog=Watchdog(max_iterations=1))

    def test_arm_starts_the_clock_explicitly(self):
        now = [0.0]
        dog = Watchdog(deadline_s=1.0, clock=lambda: now[0])
        assert not dog.armed
        now[0] = 10.0  # time before arming never counts
        dog.arm()
        assert dog.armed
        assert dog.elapsed_s == 0.0
        assert dog.remaining_s == 1.0
        now[0] = 10.4
        assert dog.elapsed_s == pytest.approx(0.4)
        assert dog.remaining_s == pytest.approx(0.6)
        dog.check(0)  # still within budget
        now[0] = 11.5
        with pytest.raises(NonConvergenceError):
            dog.check(1)

    def test_arm_is_idempotent(self):
        now = [0.0]
        dog = Watchdog(deadline_s=5.0, clock=lambda: now[0])
        dog.arm()
        now[0] = 2.0
        dog.arm()  # a second arm must not restart the clock
        assert dog.elapsed_s == pytest.approx(2.0)

    def test_remaining_clamps_at_zero(self):
        now = [0.0]
        dog = Watchdog(deadline_s=1.0, clock=lambda: now[0])
        dog.arm()
        now[0] = 3.0
        assert dog.remaining_s == 0.0

    def test_unarmed_check_auto_arms(self):
        now = [5.0]
        dog = Watchdog(deadline_s=1.0, clock=lambda: now[0])
        dog.check(0)  # lazily arms here, preserving legacy behavior
        assert dog.armed
        now[0] = 5.5
        dog.check(1)
        now[0] = 7.0
        with pytest.raises(NonConvergenceError):
            dog.check(2)

    def test_remaining_without_deadline_is_none(self):
        dog = Watchdog(max_iterations=3)
        dog.arm()
        assert dog.remaining_s is None


# ----------------------------------------------------------------------
# Guarded runners
# ----------------------------------------------------------------------

class TestResilientFaultFree:
    def test_bfs_no_plan_single_attempt(self):
        graph = small_graph()
        base = adaptive_run(graph, "bfs", 0)
        res = resilient_run(graph, "bfs", 0)
        assert res.attempts == 1
        assert not res.degraded and res.stage == "adaptive"
        assert res.num_faults == 0
        assert np.array_equal(res.values, base.values)

    def test_sssp_no_plan_matches_adaptive(self):
        graph = small_graph(weighted=True)
        base = adaptive_run(graph, "sssp", 0)
        res = resilient_run(graph, "sssp", 0)
        assert np.array_equal(res.values, base.values)
        assert res.replayed_seconds == 0.0

    def test_empty_plan_is_not_installed(self):
        graph = small_graph()
        res = resilient_run(graph, "bfs", 0, plan=FaultPlan())
        assert res.attempts == 1 and res.num_faults == 0

    def test_guard_config_validation(self):
        from repro.errors import RuntimeConfigError

        with pytest.raises(RuntimeConfigError):
            GuardConfig(max_retries=0)


SEEDED_PLAN = FaultPlan(
    seed=13,
    launch_failure_rate=0.10,
    memory_fault_rate=0.05,
    latency_spike_rate=0.05,
    latency_spike_factor=5.0,
)


class TestResilientUnderFaults:
    @pytest.mark.parametrize("algorithm", ["bfs", "sssp"])
    def test_bit_identical_to_fault_free(self, algorithm):
        graph = small_graph(weighted=algorithm == "sssp")
        base = adaptive_run(graph, algorithm, 0)
        guard = GuardConfig(checkpoint_every=2)
        res = resilient_run(graph, algorithm, 0, guard=guard, plan=SEEDED_PLAN)

        assert np.array_equal(res.values, base.values)
        assert res.num_faults > 0  # the plan really fired
        # Every injected fault appears in the trace with a recovery action.
        for event in res.trace.faults:
            assert isinstance(event, FaultEvent)
            assert event.action in RECOVERY_ACTIONS
        kinds = {e.kind for e in res.trace.faults}
        assert kinds <= {"launch_failure", "memory_fault", "latency_spike",
                         "error", "non_convergence"}

    def test_runs_are_reproducible(self):
        graph = small_graph()
        guard = GuardConfig(checkpoint_every=2)
        a = resilient_run(graph, "bfs", 0, guard=guard, plan=SEEDED_PLAN)
        b = resilient_run(graph, "bfs", 0, guard=guard, plan=SEEDED_PLAN)
        assert np.array_equal(a.values, b.values)
        assert [(e.kind, e.attempt, e.action) for e in a.trace.faults] == [
            (e.kind, e.attempt, e.action) for e in b.trace.faults
        ]
        assert a.attempts == b.attempts

    def test_memory_fault_recovers_via_checkpoint(self):
        graph = small_graph()
        plan = FaultPlan(seed=2, memory_fault_rate=0.25, max_faults=2)
        guard = GuardConfig(checkpoint_every=1)
        res = resilient_run(graph, "bfs", 0, guard=guard, plan=plan)
        assert np.array_equal(res.values, cpu_bfs(graph, 0).levels)
        actions = res.recovery_actions()
        assert actions.get("checkpoint_restore", 0) >= 1
        assert res.restores >= 1

    def test_variant_fallback_when_adaptive_keeps_failing(self):
        graph = small_graph()
        # Permanent launch failures but a capped budget: the ladder falls
        # back until the injector runs out of faults, then a static
        # variant finishes on the GPU.
        plan = FaultPlan(seed=5, launch_failure_rate=1.0, max_faults=4)
        res = resilient_run(graph, "bfs", 0, plan=plan)
        assert not res.degraded
        assert res.stage != "adaptive"
        assert res.recovery_actions().get("variant_fallback", 0) >= 1
        assert np.array_equal(res.values, cpu_bfs(graph, 0).levels)

    def test_degrades_to_cpu_when_gpu_unusable(self):
        graph = small_graph()
        plan = FaultPlan(seed=6, launch_failure_rate=1.0)
        res = resilient_run(graph, "bfs", 0, plan=plan)
        assert res.degraded and res.stage == "cpu"
        assert res.recovery_actions().get("cpu_degradation", 0) == 1
        assert np.array_equal(res.values, cpu_bfs(graph, 0).levels)

    def test_max_retries_short_circuits_ladder(self):
        graph = small_graph()
        plan = FaultPlan(seed=6, launch_failure_rate=1.0)
        guard = GuardConfig(max_retries=2)
        res = resilient_run(graph, "bfs", 0, guard=guard, plan=plan)
        assert res.degraded
        assert res.attempts == 3  # 2 tolerated no-progress failures + 1

    def test_non_convergence_degrades(self):
        graph = small_graph()
        guard = GuardConfig(max_iterations=1)
        res = resilient_run(graph, "bfs", 0, guard=guard)
        assert res.degraded
        kinds = [e.kind for e in res.trace.faults]
        assert "non_convergence" in kinds


# ----------------------------------------------------------------------
# Extension algorithms through the guard (PageRank drill)
# ----------------------------------------------------------------------

class TestPagerankRecovery:
    """Satellite drill: the engine refactor gives PageRank the same
    checkpoint/resume and fault-recovery guarantees BFS always had."""

    def _graph(self):
        return erdos_renyi_graph(600, 3600, seed=21)

    def test_checkpoint_resume_bit_identical(self):
        graph = self._graph()
        baseline = run_static(graph, -1, "pagerank", "U_B_QU")

        keeper = CheckpointKeeper(every=2)
        run_static(graph, -1, "pagerank", "U_B_QU", checkpoint_keeper=keeper)
        cp = keeper.restore("pagerank", -1)
        assert cp is not None and cp.next_iteration >= 2
        # The checkpoint carries PageRank's private residual array.
        assert cp.extra is not None and "residual" in cp.extra

        resumed = run_static(graph, -1, "pagerank", "U_B_QU", resume_from=cp)
        assert np.array_equal(resumed.values, baseline.values)
        assert [r.iteration for r in resumed.iterations] == [
            r.iteration for r in baseline.iterations
        ]

    def test_faulted_run_recovers_bit_identical(self):
        graph = self._graph()
        clean = adaptive_run(graph, "pagerank")
        plan = FaultPlan(seed=13, memory_fault_rate=0.3, max_faults=2)
        guard = GuardConfig(checkpoint_every=2)
        res = resilient_run(graph, "pagerank", guard=guard, plan=plan)

        assert res.num_faults > 0  # the plan really fired
        assert not res.degraded
        assert np.array_equal(res.values, clean.values)  # bit-identical ranks
        for event in res.trace.faults:
            assert event.action in RECOVERY_ACTIONS

    def test_faulted_runs_reproducible(self):
        graph = self._graph()
        plan = FaultPlan(seed=13, memory_fault_rate=0.3, max_faults=2)
        guard = GuardConfig(checkpoint_every=2)
        a = resilient_run(graph, "pagerank", guard=guard, plan=plan)
        b = resilient_run(graph, "pagerank", guard=guard, plan=plan)
        assert np.array_equal(a.values, b.values)
        assert a.attempts == b.attempts
        assert [(e.kind, e.attempt, e.action) for e in a.trace.faults] == [
            (e.kind, e.attempt, e.action) for e in b.trace.faults
        ]


class TestResilientSourceValidation:
    """Regression: a bad source used to burn the whole retry/fallback
    ladder on a query that can never succeed."""

    def test_bad_source_rejected_without_retries(self, monkeypatch):
        from repro.errors import GraphError
        from repro.reliability import guard as guard_mod

        def no_attempt(*args, **kwargs):
            raise AssertionError("the ladder ran an attempt")

        monkeypatch.setattr(guard_mod, "_run_stage", no_attempt)
        graph = erdos_renyi_graph(120, 500, seed=3)
        with pytest.raises(GraphError, match="out of range"):
            resilient_run(graph, "bfs", 10_000)
