"""Deterministic, seeded fault injection for the simulated GPU.

A :class:`FaultPlan` declares *what* can go wrong and how often; a
:class:`FaultInjector` executes the plan against one guarded query.
Three fault kinds, mirroring what a CUDA service actually sees:

- **launch failure** — a transient ``cudaErrorLaunchFailure``: the
  launch validation raises :class:`~repro.errors.LaunchError` before
  any device state changes.  Recoverable by a plain retry.
- **memory fault** — an ECC-detected corruption of the traversal state
  (levels/distances): the injector *actually corrupts the live arrays*
  and raises :class:`~repro.errors.MemoryFaultError`; the state can
  only be recovered from a checkpoint.
- **latency spike** — one kernel's simulated time dilated by a factor;
  no error is raised, the fault is absorbed (and recorded).
- **device loss** — the whole device drops off the bus
  (:class:`~repro.errors.DeviceLostError`): everything resident on it
  is gone.  Only meaningful in sharded runs, where it is survivable by
  the shard-recovery ladder (:mod:`repro.engine.shard`).

A plan may also carry a **device scope** (``device=N``): in a sharded
run only the shard homed on device *N* sees the plan's faults, so a
chaos drill exercises exactly one fault domain.  ``device=None`` (the
default) scopes the plan to every device.

Determinism: every potential injection site draws from one seeded
``numpy`` generator in call order, so a given plan against a given
query produces the same fault sequence every run — tests can assert
bit-identical recovery and the bench can replay incidents.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import (
    DeviceLostError,
    FaultPlanError,
    LaunchError,
    MemoryFaultError,
)
from repro.gpusim.launch import GpuFaultHook, LaunchConfig, install_fault_hook

__all__ = ["FAULT_KINDS", "FaultPlan", "InjectedFault", "FaultInjector", "load_fault_plan"]

FAULT_KINDS = ("launch_failure", "memory_fault", "latency_spike", "device_loss")

#: state-array entries scribbled over by one memory fault
_CORRUPT_ENTRIES = 8


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject (all rates are
    independent per-site probabilities in [0, 1])."""

    seed: int = 0
    #: probability a kernel-launch validation fails transiently
    launch_failure_rate: float = 0.0
    #: probability an iteration starts with corrupted state arrays
    memory_fault_rate: float = 0.0
    #: probability a priced kernel suffers a latency spike
    latency_spike_rate: float = 0.0
    #: dilation factor of a spiked kernel's simulated time
    latency_spike_factor: float = 10.0
    #: probability (per shard, per super-iteration) a whole device is
    #: lost; only fires in sharded runs
    device_loss_rate: float = 0.0
    #: fault-domain scope: restrict every injection to the shard homed
    #: on this device index (None = all devices)
    device: Optional[int] = None
    #: enabled fault kinds (None = all of :data:`FAULT_KINDS`)
    kinds: Optional[Tuple[str, ...]] = None
    #: stop injecting after this many faults (None = unlimited)
    max_faults: Optional[int] = None

    def __post_init__(self):
        for name in (
            "launch_failure_rate",
            "memory_fault_rate",
            "latency_spike_rate",
            "device_loss_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_spike_factor < 1.0:
            raise FaultPlanError(
                f"latency_spike_factor must be >= 1, got {self.latency_spike_factor}"
            )
        if self.max_faults is not None and self.max_faults < 0:
            raise FaultPlanError(f"max_faults must be >= 0, got {self.max_faults}")
        if self.device is not None and self.device < 0:
            raise FaultPlanError(f"device must be >= 0, got {self.device}")
        if self.kinds is not None:
            object.__setattr__(self, "kinds", tuple(self.kinds))
            for kind in self.kinds:
                if kind not in FAULT_KINDS:
                    raise FaultPlanError(
                        f"unknown fault kind {kind!r}; expected one of: "
                        f"{', '.join(FAULT_KINDS)}"
                    )

    def enables(self, kind: str) -> bool:
        """Is *kind* enabled by this plan's ``kinds`` filter?"""
        return self.kinds is None or kind in self.kinds

    @property
    def is_empty(self) -> bool:
        """True when the plan can never inject anything."""
        return (
            self.launch_failure_rate == 0.0
            and self.memory_fault_rate == 0.0
            and self.latency_spike_rate == 0.0
            and self.device_loss_rate == 0.0
        ) or self.max_faults == 0 or self.kinds == ()

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        known = {f.name for f in dataclasses.fields(cls)}
        for key in data:
            if key not in known:
                raise FaultPlanError(
                    f"unknown fault-plan key {key!r}; expected one of: "
                    f"{', '.join(sorted(known))}"
                )
        return cls(**data)

    def for_device(self, device_index: int, num_devices: int) -> Optional["FaultPlan"]:
        """Derive the per-device plan a sharded run hands device
        *device_index*'s injector.

        Returns None when the plan's ``device`` scope excludes this
        device.  Otherwise the derived plan is seeded per device
        (deterministically, from the base seed) so every fault domain
        draws an independent, reproducible fault sequence.
        """
        if self.device is not None and self.device >= num_devices:
            raise FaultPlanError(
                f"fault plan scopes device {self.device} but the run has "
                f"only {num_devices} devices"
            )
        if self.device is not None and self.device != device_index:
            return None
        return dataclasses.replace(
            self, seed=self.seed + 1_000_003 * (device_index + 1), device=None
        )

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        if doc.get("kinds") is not None:
            doc["kinds"] = list(doc["kinds"])
        return doc


def load_fault_plan(spec: str) -> FaultPlan:
    """Parse a fault plan from inline JSON or a JSON file path."""
    text = spec
    if not spec.lstrip().startswith("{"):
        if not os.path.exists(spec):
            raise FaultPlanError(f"fault-plan file not found: {spec!r}")
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FaultPlanError("fault plan JSON must be an object")
    return FaultPlan.from_dict(data)


@dataclass(frozen=True)
class InjectedFault:
    """One fault the injector actually fired."""

    sequence: int
    kind: str
    site: str
    iteration: int
    detail: str = ""
    #: fault domain the injector is scoped to (-1 = unscoped / single
    #: device), set by the sharded driver so every fault is attributed
    #: to exactly one device
    device: int = -1


@dataclass
class _InjectorState:
    launches_seen: int = 0
    kernels_priced: int = 0
    iterations_seen: int = 0
    super_iterations_seen: int = 0


class FaultInjector(GpuFaultHook):
    """Executes a :class:`FaultPlan` against one guarded query.

    Doubles as the simulator hook (:class:`GpuFaultHook`: launch
    failures, latency spikes) and the traversal frame's per-iteration
    hook (memory faults).  ``log`` holds every fault ever injected;
    ``drain_pending()`` hands the guard the faults since it last asked,
    so each can be annotated with the recovery action taken.
    """

    def __init__(self, plan: FaultPlan, *, device_index: int = -1):
        self.plan = plan
        #: fault domain this injector belongs to (sharded runs; -1 when
        #: unscoped)
        self.device_index = device_index
        self.rng = np.random.default_rng(plan.seed)
        self.counters = _InjectorState()
        self.log: List[InjectedFault] = []
        self._pending: List[InjectedFault] = []
        self._iteration = -1

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    @property
    def num_injected(self) -> int:
        return len(self.log)

    def _budget_left(self) -> bool:
        return self.plan.max_faults is None or self.num_injected < self.plan.max_faults

    def _record(self, kind: str, site: str, detail: str = "") -> InjectedFault:
        fault = InjectedFault(
            sequence=self.num_injected,
            kind=kind,
            site=site,
            iteration=self._iteration,
            detail=detail,
            device=self.device_index,
        )
        self.log.append(fault)
        self._pending.append(fault)
        return fault

    def drain_pending(self) -> List[InjectedFault]:
        """Faults injected since the last drain (guard-side)."""
        out, self._pending = self._pending, []
        return out

    def installed(self):
        """Context manager wiring this injector into the simulator's
        launch/kernel paths for the scope of one attempt."""
        return install_fault_hook(self)

    # ------------------------------------------------------------------
    # GpuFaultHook interface (simulator side)
    # ------------------------------------------------------------------

    def on_launch(self, config: LaunchConfig) -> None:
        self.counters.launches_seen += 1
        if (
            self.plan.launch_failure_rate <= 0.0
            or not self.plan.enables("launch_failure")
            or not self._budget_left()
        ):
            return
        if self.rng.random() < self.plan.launch_failure_rate:
            fault = self._record(
                "launch_failure",
                site=f"launch<<<{config.grid_blocks},{config.threads_per_block}>>>",
                detail=f"launch #{self.counters.launches_seen}",
            )
            raise LaunchError(
                f"injected transient launch failure "
                f"(fault #{fault.sequence}, {fault.site})"
            )

    def latency_multiplier(self, kernel_name: str) -> float:
        self.counters.kernels_priced += 1
        if (
            self.plan.latency_spike_rate <= 0.0
            or not self.plan.enables("latency_spike")
            or not self._budget_left()
        ):
            return 1.0
        if self.rng.random() < self.plan.latency_spike_rate:
            self._record(
                "latency_spike",
                site=kernel_name,
                detail=f"x{self.plan.latency_spike_factor:g}",
            )
            return self.plan.latency_spike_factor
        return 1.0

    def on_super_iteration(self, super_iteration: int) -> None:
        """Called by the sharded driver at the top of each
        super-iteration; may raise :class:`DeviceLostError` (this
        injector's whole fault domain drops off the bus)."""
        self._iteration = super_iteration
        self.counters.super_iterations_seen += 1
        if (
            self.plan.device_loss_rate <= 0.0
            or not self.plan.enables("device_loss")
            or not self._budget_left()
        ):
            return
        if self.rng.random() < self.plan.device_loss_rate:
            fault = self._record(
                "device_loss",
                site=f"device{self.device_index}",
                detail=f"super-iteration {super_iteration}",
            )
            raise DeviceLostError(
                f"injected device loss on device {self.device_index} at "
                f"super-iteration {super_iteration} (fault #{fault.sequence})"
            )

    # ------------------------------------------------------------------
    # Frame hook (traversal side)
    # ------------------------------------------------------------------

    def on_iteration(
        self, iteration: int, values: np.ndarray, frontier: np.ndarray
    ) -> None:
        """Called at the top of every traversal iteration; may corrupt
        the live state arrays and raise :class:`MemoryFaultError`."""
        self._iteration = iteration
        self.counters.iterations_seen += 1
        if (
            self.plan.memory_fault_rate <= 0.0
            or not self.plan.enables("memory_fault")
            or not self._budget_left()
        ):
            return
        if self.rng.random() >= self.plan.memory_fault_rate:
            return
        # Scribble over a handful of state entries (the ECC event), then
        # report it: the traversal must not trust these arrays anymore.
        n = values.size
        hit = self.rng.integers(0, n, size=min(_CORRUPT_ENTRIES, n))
        if values.dtype.kind == "f":
            values[hit] = np.nan
        else:
            values[hit] = -(self.rng.integers(2, 2**31, size=hit.size))
        if frontier.size:
            frontier[: min(2, frontier.size)] = 0
        fault = self._record(
            "memory_fault",
            site="state_arrays",
            detail=f"{hit.size} entries corrupted",
        )
        raise MemoryFaultError(
            f"injected memory fault at iteration {iteration} "
            f"(fault #{fault.sequence}: {fault.detail})"
        )
