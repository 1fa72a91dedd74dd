"""Tests for repro.engine: the registry and the cross-cutting seams
(watchdog, checkpointing, memory budget, observer) that every
registered algorithm now inherits from the shared iteration engine."""

import numpy as np
import pytest

from repro.core import adaptive_run, run_static
from repro.engine import (
    AlgorithmInfo,
    AlgorithmSpec,
    get_algorithm,
    register_algorithm,
    registered_algorithms,
)
from repro.errors import KernelError, NonConvergenceError
from repro.graph.datasets import make_dataset
from repro.gpusim.allocator import MemoryBudget
from repro.gpusim.device import TESLA_C2070
from repro.obs import Observer
from repro.reliability import CheckpointKeeper, Watchdog, resilient_run

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
    return info.run_default(graph, source if source is not None else -1, **kwargs)


class TestEngineSeams:
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
        result = _run(name, graph, observe=observer)
        snap = observer.metrics.snapshot()
        assert snap["frame.iterations"]["value"] == result.num_iterations
        assert snap["gpusim.kernel_launches"]["value"] > 0
        names = [s.name for s in observer.spans.spans]
        assert names.count("iteration") == result.num_iterations


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

    def test_params_forwarded(self, graph):
        loose = run_static(graph, -1, "pagerank", "U_B_QU", tolerance=1e-3)
        tight = run_static(graph, -1, "pagerank", "U_B_QU", tolerance=1e-7)
        assert loose.num_iterations < tight.num_iterations
