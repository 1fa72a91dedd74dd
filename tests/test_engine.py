"""Tests for repro.engine: the registry and the cross-cutting seams
(watchdog, checkpointing, fault hook, memory budget, observer) that
every registered algorithm and every execution shape inherits from the
shared iteration engine."""

import numpy as np
import pytest

from repro.core import adaptive_run, hybrid_run, run_default, run_static
from repro.core.policies import AdaptivePolicy
from repro.engine import (
    AlgorithmInfo,
    AlgorithmSpec,
    get_algorithm,
    register_algorithm,
    registered_algorithms,
)
from repro.engine.batch import BatchFrame, QueryPlan
from repro.engine.shard import run_sharded
from repro.errors import (
    DeviceOOMError,
    KernelError,
    MemoryFaultError,
    NonConvergenceError,
)
from repro.graph.datasets import make_dataset
from repro.gpusim.allocator import MemoryBudget
from repro.gpusim.device import TESLA_C2070
from repro.obs import Observer, observing
from repro.reliability import (
    CheckpointKeeper,
    FaultPlan,
    Watchdog,
    resilient_run,
)

BUILTINS = ("bfs", "sssp", "pagerank", "cc", "kcore", "dobfs")
#: every algorithm the decision maker can drive
ADAPTIVE = ("bfs", "sssp", "pagerank", "cc", "kcore")


@pytest.fixture(scope="module")
def graph():
    # Weighted so the same workload serves every algorithm (SSSP needs
    # weights; the others ignore them).
    return make_dataset("p2p", scale=0.15, weighted=True, seed=9)


def _source_for(info, graph):
    return 0 if info.source_based else None


def _matches(info, values, oracle) -> bool:
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.floating):
        return bool(np.array_equal(values, oracle))
    if not info.cpu_exact:
        # Approximate fixpoint (PageRank): GPU and CPU stop at different
        # states, both within tolerance/(1-damping) of the true ranks.
        return bool(np.allclose(values, oracle, rtol=0.0, atol=2e-6 / 0.15))
    return bool(np.allclose(values, oracle))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_builtins_registered(self):
        names = {info.name for info in registered_algorithms()}
        assert set(BUILTINS) <= names

    def test_unknown_name_lists_known(self):
        with pytest.raises(KernelError, match="unknown algorithm") as exc:
            get_algorithm("triangle-count")
        for name in BUILTINS:
            assert name in str(exc.value)

    def test_capability_flags(self):
        flags = {name: get_algorithm(name).capability_flags() for name in BUILTINS}
        assert flags["bfs"]["ordered_support"]
        assert flags["sssp"]["weighted"] and flags["sssp"]["ordered_support"]
        assert not flags["pagerank"]["source_based"]
        assert not flags["pagerank"]["cpu_exact"]
        assert not flags["cc"]["source_based"]
        assert not flags["kcore"]["source_based"]
        assert not flags["dobfs"]["adaptive_eligible"]
        assert not flags["dobfs"]["supports_variants"]
        for name in BUILTINS:
            assert flags[name]["checkpointable"]
        incremental = {i.name for i in registered_algorithms() if i.incremental}
        assert incremental == {"bfs", "sssp", "cc"}

    def test_every_builtin_has_cpu_reference(self, graph):
        for name in BUILTINS:
            info = get_algorithm(name)
            assert info.cpu_run is not None
            values, cpu = info.cpu_run(graph, 0)
            assert len(values) == graph.num_nodes
            assert cpu.seconds > 0

    def test_registration_shadowing_last_wins(self):
        class StubSpec(AlgorithmSpec):
            name = "engine-test-stub"

        info = AlgorithmInfo(
            name="engine-test-stub", summary="stub", make_spec=StubSpec
        )
        register_algorithm(info)
        assert get_algorithm("engine-test-stub") is info
        assert any(
            i.name == "engine-test-stub" for i in registered_algorithms()
        )

    def test_register_rejects_non_spec_factory(self):
        info = AlgorithmInfo(
            name="engine-test-lambda", summary="stub", make_spec=lambda **kw: None
        )
        with pytest.raises(KernelError, match="AlgorithmSpec subclass"):
            register_algorithm(info)
        with pytest.raises(KernelError, match="unknown algorithm"):
            get_algorithm("engine-test-lambda")

    def test_flags_come_from_the_spec_class(self):
        for info in registered_algorithms():
            spec = info.make_spec
            for flag, value in info.capability_flags().items():
                assert value == getattr(spec, flag), (info.name, flag)
            assert info.default_variant == spec.default_variant

    def test_one_relaxation_per_algorithm(self):
        """Every built-in spec states its update once, as ``relax``, and
        inherits the engine's ``compute``; only ordered SSSP (findmin)
        and DOBFS (the pull kernel) launch kernels of their own."""
        from repro.kernels.frame import OrderedSsspSpec

        specs = [get_algorithm(name).make_spec for name in BUILTINS + ("triangles",)]
        specs.append(OrderedSsspSpec)
        own = {spec for spec in specs if spec.compute is not AlgorithmSpec.compute}
        assert own == {OrderedSsspSpec, get_algorithm("dobfs").make_spec}
        for spec in set(specs) - own:
            assert spec.relax is not AlgorithmSpec.relax, spec.name

    def test_triangles_default_variant(self):
        # The spec and the golden fixture's static run use U_T_QU; the
        # registry (and so `repro algorithms`) must report the same.
        assert get_algorithm("triangles").default_variant == "U_T_QU"
        assert get_algorithm("kcore").default_variant == "U_B_QU"


# ----------------------------------------------------------------------
# Generic runners
# ----------------------------------------------------------------------

class TestAdaptiveRun:
    @pytest.mark.parametrize("name", ADAPTIVE)
    def test_matches_cpu_reference(self, graph, name):
        info = get_algorithm(name)
        result = adaptive_run(graph, name, _source_for(info, graph))
        oracle, _ = info.cpu_run(graph, 0 if info.source_based else -1)
        assert _matches(info, result.values, oracle)
        assert result.trace.num_decisions >= 1

    def test_source_required_for_source_based(self, graph):
        with pytest.raises(KernelError, match="requires a source"):
            adaptive_run(graph, "bfs")

    @pytest.mark.parametrize("door", ["static", "adaptive", "resilient"])
    def test_missing_source_is_one_clear_error_at_every_door(self, graph, door):
        run = {
            "static": lambda: run_static(graph, None, "bfs", "U_T_BM"),
            "adaptive": lambda: adaptive_run(graph, "bfs", None),
            "resilient": lambda: resilient_run(graph, "bfs", None),
        }[door]
        with pytest.raises(KernelError, match="'bfs' requires a source node"):
            run()

    def test_rejects_non_adaptive_algorithm(self, graph):
        with pytest.raises(KernelError, match="adaptive-eligible"):
            adaptive_run(graph, "dobfs", 0)


class TestResilientRun:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_fault_free_matches_cpu_reference(self, graph, name):
        info = get_algorithm(name)
        result = resilient_run(graph, name, _source_for(info, graph))
        oracle, _ = info.cpu_run(graph, 0 if info.source_based else -1)
        assert _matches(info, result.values, oracle)
        assert result.attempts == 1 and not result.degraded

    def test_dobfs_served_by_default_stage(self, graph):
        result = resilient_run(graph, "dobfs", 0)
        assert result.stage == "default"


# ----------------------------------------------------------------------
# Cross-cutting seams, per algorithm
# ----------------------------------------------------------------------

def _run(name, graph, **kwargs):
    info = get_algorithm(name)
    source = _source_for(info, graph)
    if info.adaptive_eligible:
        return adaptive_run(graph, name, source, **kwargs)
    return run_default(graph, source, name, **kwargs)


class _OneShotFault:
    """A frame fault hook that raises on its first call only."""

    def __init__(self):
        self.fired = False

    def on_iteration(self, iteration, values, frontier):
        if not self.fired:
            self.fired = True
            raise MemoryFaultError("scripted row fault")


BATCH_SOURCES = (0, 5, 9)


def _batch(graph, algorithm="bfs", *, watchdogs=None, fault_hook=None):
    """A drained three-row batch of adaptive *algorithm* queries."""
    frame = BatchFrame(graph, fault_hook=fault_hook)
    frame.admit(
        [
            QueryPlan(
                get_algorithm(algorithm).make_spec(), source,
                AdaptivePolicy(graph, device=TESLA_C2070),
            )
            for source in BATCH_SOURCES
        ],
        watchdogs=watchdogs,
    )
    return frame.finish()


#: row iterations one door ran: per query, summed over batch rows or
#: shards (each shard row's rounds)
DOOR_ITERATIONS = {
    "batch": lambda g: sum(q.num_iterations for q in _batch(g).queries),
    "shard": lambda g: sum(
        report["rounds_active"]
        for report in run_sharded(g, 0, num_devices=3).shard_reports
    ),
    "hybrid": lambda g: hybrid_run(g, "bfs", 0).num_iterations,
}


class TestEngineSeams:
    """The seam matrix.  Each seam is checked on every door that exposes
    it: the per-algorithm tests drive ``run_frame`` (through the run
    modes); the per-door tests drive the other shapes — batch rows,
    ``run_sharded`` and ``hybrid_run``."""

    @pytest.mark.parametrize("name", BUILTINS)
    def test_watchdog_budget_enforced(self, graph, name):
        with pytest.raises(NonConvergenceError, match="iteration budget"):
            _run(name, graph, watchdog=Watchdog(max_iterations=1))

    @pytest.mark.parametrize("name", BUILTINS)
    def test_checkpoints_offered(self, graph, name):
        keeper = CheckpointKeeper(every=1)
        result = _run(name, graph, checkpoint_keeper=keeper)
        assert keeper.saves >= 1
        cp = keeper.latest
        assert cp.algorithm == name
        assert np.array_equal(cp.values, result.values)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_checkpoint_resume_bit_identical(self, graph, name):
        baseline = _run(name, graph)
        keeper = CheckpointKeeper(every=2)
        _run(name, graph, checkpoint_keeper=keeper)
        source = 0 if get_algorithm(name).source_based else -1
        cp = keeper.restore(name, source)
        assert cp is not None and cp.next_iteration >= 2
        resumed = _run(name, graph, resume_from=cp)
        assert np.array_equal(resumed.values, baseline.values)
        assert resumed.num_iterations == baseline.num_iterations

    @pytest.mark.parametrize("name", BUILTINS)
    def test_memory_budget_charged_and_reported(self, graph, name):
        memory = MemoryBudget("1G", device=TESLA_C2070)
        result = _run(name, graph, memory=memory)
        report = getattr(result, "memory", None) or memory.report()
        assert report.peak_bytes > 0
        assert report.capacity_bytes == 2**30

    @pytest.mark.parametrize("name", BUILTINS)
    def test_observer_sees_every_algorithm(self, graph, name):
        observer = Observer()
        with observing(observer):
            result = _run(name, graph)
        snap = observer.metrics.snapshot()
        assert snap["frame.iterations"]["value"] == result.num_iterations
        assert snap["gpusim.kernel_launches"]["value"] > 0
        names = [s.name for s in observer.spans.spans]
        assert names.count("iteration") == result.num_iterations

    @pytest.mark.parametrize("door", sorted(DOOR_ITERATIONS))
    def test_observer_counts_row_iterations(self, graph, door):
        observer = Observer()
        with observing(observer):
            iterations = DOOR_ITERATIONS[door](graph)
        snap = observer.metrics.snapshot()
        assert iterations > 0
        assert snap["frame.iterations"]["value"] == iterations

    @pytest.mark.parametrize("door", ("batch", "shard"))
    def test_watchdog_per_door(self, graph, door):
        if door == "shard":
            with pytest.raises(NonConvergenceError, match="iteration budget"):
                run_sharded(
                    graph, 0, num_devices=2, watchdog=Watchdog(max_iterations=1)
                )
            return
        now = [0.0]
        dog = Watchdog(deadline_s=1.0, clock=lambda: now[0]).arm()
        now[0] = 5.0  # the first row's admission deadline has expired
        result = _batch(graph, watchdogs=[dog, None, None])
        expired, *rest = result.queries
        assert expired.ejected and expired.eject_kind == "deadline"
        assert "wall-clock deadline" in expired.error
        for outcome in rest:
            single = adaptive_run(graph, "bfs", outcome.source)
            assert np.array_equal(outcome.values, single.values)

    @pytest.mark.parametrize("door", ("frame", "batch", "shard"))
    def test_fault_hook_per_door(self, graph, door):
        if door == "frame":
            with pytest.raises(MemoryFaultError, match="scripted row fault"):
                adaptive_run(graph, "bfs", 0, fault_hook=_OneShotFault())
            return
        if door == "shard":
            reference = run_sharded(graph, 0, algorithm="sssp", num_devices=1)
            result = run_sharded(
                graph, 0, algorithm="sssp", num_devices=3, checkpoint_every=2,
                fault_plan=FaultPlan(seed=5, memory_fault_rate=0.1, max_faults=1),
            )
            assert result.faults and result.restores >= 1
            assert result.device_losses == 0
            assert result.values_sha256 == reference.values_sha256
            return
        result = _batch(graph, fault_hook=_OneShotFault())
        ejected = [q for q in result.queries if q.ejected]
        survivors = [q for q in result.queries if not q.ejected]
        assert len(ejected) == 1 and ejected[0].eject_kind == "fault"
        assert "scripted row fault" in ejected[0].error
        assert result.rows_ejected == 1
        # Survivors are untouched — bit-identical to single-source runs.
        assert len(survivors) == 2
        for outcome in survivors:
            assert outcome.ok
            single = adaptive_run(graph, "bfs", outcome.source)
            assert np.array_equal(outcome.values, single.values)

    @pytest.mark.parametrize("door", ("shard",))
    def test_memory_budget_per_door(self, graph, door):
        with pytest.raises(DeviceOOMError, match="CSR slice"):
            run_sharded(graph, 0, num_devices=2, mem_budget=1024)
        # An ample budget charges every slice and working set without
        # changing the answer.
        plain = run_sharded(graph, 0, num_devices=2)
        budgeted = run_sharded(
            graph, 0, num_devices=2, mem_budget=graph.device_bytes()
        )
        assert budgeted.values_sha256 == plain.values_sha256

    @pytest.mark.parametrize("door", ("shard",))
    def test_checkpoints_per_door(self, graph, door):
        result = run_sharded(graph, 0, num_devices=3, checkpoint_every=1)
        assert result.checkpoints_saved >= result.super_iterations
        assert all(
            report["checkpoint_saves"] == result.super_iterations
            for report in result.shard_reports
        )


# ----------------------------------------------------------------------
# run_static generality
# ----------------------------------------------------------------------

class TestRunStaticGeneric:
    @pytest.mark.parametrize("name", ("pagerank", "cc", "kcore"))
    def test_extension_variants_dispatch(self, graph, name):
        info = get_algorithm(name)
        result = run_static(graph, -1, name, info.default_variant)
        oracle, _ = info.cpu_run(graph, -1)
        assert _matches(info, result.values, oracle)

    @pytest.mark.parametrize("name", ("cc", "pagerank", "kcore", "triangles"))
    def test_ordered_variant_needs_ordered_support(self, graph, name):
        assert not get_algorithm(name).ordered_support
        with pytest.raises(KernelError, match="has no ordered variants"):
            run_static(graph, -1, name, "O_T_BM")

    def test_params_forwarded(self, graph):
        loose = run_static(graph, -1, "pagerank", "U_B_QU", tolerance=1e-3)
        tight = run_static(graph, -1, "pagerank", "U_B_QU", tolerance=1e-7)
        assert loose.num_iterations < tight.num_iterations
