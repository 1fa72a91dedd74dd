"""The exception hierarchy contract.

Every intentional error in the library derives from ``ReproError`` so a
caller can catch one base class; subsystem subclasses let tests and
users discriminate failure modes without string matching.  The watchdog
verdict ``NonConvergenceError`` must surface from the traversal frames
when an iteration budget is exhausted, and its message must name the
cap so logs are actionable.
"""

import pytest

import repro.errors as errors_mod
from repro.core import run_static
from repro.errors import (
    DeviceError,
    FaultPlanError,
    KernelError,
    MemoryFaultError,
    NonConvergenceError,
    ReproError,
    RuntimeConfigError,
)
from repro.graph.generators import attach_uniform_weights, erdos_renyi_graph


class TestHierarchy:
    @pytest.mark.parametrize("name", errors_mod.__all__)
    def test_every_class_raisable_and_catchable_via_base(self, name):
        cls = getattr(errors_mod, name)
        assert isinstance(cls, type) and issubclass(cls, ReproError)
        with pytest.raises(ReproError) as exc:
            raise cls(f"synthetic {name}")
        assert exc.type is cls
        assert f"synthetic {name}" in str(exc.value)

    def test_all_is_exhaustive(self):
        exported = {
            name
            for name, obj in vars(errors_mod).items()
            if isinstance(obj, type) and issubclass(obj, ReproError)
        }
        assert exported == set(errors_mod.__all__)

    def test_reliability_subclass_relations(self):
        # The reliability layer slots into existing subsystems: the
        # watchdog verdict is a kernel-frame error, a simulated memory
        # fault is a device error, and a malformed fault plan is a
        # runtime-configuration error.
        assert issubclass(NonConvergenceError, KernelError)
        assert issubclass(MemoryFaultError, DeviceError)
        assert issubclass(FaultPlanError, RuntimeConfigError)

    def test_distinct_types_discriminate(self):
        with pytest.raises(KernelError):
            raise NonConvergenceError("budget gone")
        with pytest.raises(DeviceError):
            raise MemoryFaultError("bitflip")
        # ... but not across subsystems:
        assert not issubclass(MemoryFaultError, KernelError)


class TestNonConvergence:
    def test_bfs_tiny_iteration_budget(self):
        graph = erdos_renyi_graph(200, 1200, seed=5)
        with pytest.raises(NonConvergenceError) as exc:
            run_static(graph, 0, "bfs", "U_T_QU", max_iterations=1)
        assert "1" in str(exc.value)
        assert "iteration" in str(exc.value)

    def test_sssp_tiny_iteration_budget(self):
        graph = attach_uniform_weights(erdos_renyi_graph(200, 1200, seed=6), seed=7)
        with pytest.raises(NonConvergenceError) as exc:
            run_static(graph, 0, "sssp", "U_T_QU", max_iterations=2)
        assert "2" in str(exc.value)

    def test_generous_budget_converges(self):
        graph = erdos_renyi_graph(200, 1200, seed=5)
        result = run_static(graph, 0, "bfs", "U_T_QU", max_iterations=10_000)
        assert result.values[0] == 0

    def test_catchable_as_kernel_error(self):
        graph = erdos_renyi_graph(120, 700, seed=8)
        with pytest.raises(KernelError):
            run_static(graph, 0, "bfs", "U_T_QU", max_iterations=1)
