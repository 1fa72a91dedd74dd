"""Fault-tolerant multi-device sharded traversal.

Scaling past one GPU: the CSR is 1D-partitioned across ``N`` simulated
devices (:func:`repro.graph.partition_graph`), each shard relaxes its
*owned* slice of the global frontier every **super-iteration**, and the
shards meet at an exchange barrier where ghost-vertex updates are
min-combined into the global state and shipped between devices over the
interconnect model (:mod:`repro.gpusim.interconnect`).

**Bit-identity.**  Each shard relaxes its owned frontier subset against
a private scratch copy of the pre-round global values; the barrier
min-combines every shard's proposed improvements.  Because the BFS/SSSP
relaxation is an associative, commutative min-reduction, the combined
values and the next frontier (the sorted unique set of improved
vertices) are exactly what the one-device kernel produces — so a
4-device run is SHA-identical to a 1-device run, fault-free or not.

**Fault domains and recovery.**  Every device is one fault domain with
its own seeded :class:`~repro.reliability.FaultInjector` (derived via
``FaultPlan.for_device``) and its own :class:`~repro.gpusim.MemoryBudget`.
Shards capture **exchange-consistent** checkpoints:
every ``checkpoint_every`` super-iterations all shards snapshot their
owned slice at the same barrier (host-resident, so checkpoints survive
the device they describe).  The recovery ladder:

1. **retry** — a transient launch failure re-runs the shard's round on
   its own device (the scratch copy makes replays side-effect-free), up
   to ``max_retries`` times per incident; one more failure loses the
   device;
2. **restore** — device loss or state corruption rolls every shard back
   to the last coordinated checkpoint and replays; a *lost* device's
   shards are first migrated to the least-loaded surviving device
   (graph + state re-uploaded over PCIe, charged against the survivor's
   memory budget);
3. **cpu** — no surviving device (or the restore budget is exhausted):
   the whole graph degrades to the algorithm's serial CPU reference.

Straggler detection compares each shard's per-round simulated compute
time against the round median; a shard slower than
``STRAGGLER_FACTOR x median`` is recorded (``shard.stragglers``).

Each round runs one :mod:`repro.engine.driver` row per shard, choosing
at the top and priced into the device's seconds; this module keeps
what sharding adds: partitions, the exchange barrier and the recovery
ladder.

See ``docs/sharding.md`` for the full protocol.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import RuntimeConfig
from repro.core.policies import AdaptivePolicy
from repro.engine.driver import (
    FrameContext,
    _Row,
    _choose_top,
    _commit,
    _gate,
    _overhead,
    _state_payload,
)
from repro.engine.registry import get_algorithm
from repro.engine.spec import AlgorithmSpec, FrameState
from repro.engine.types import HOST_INIT_PER_NODE_S
from repro.errors import (
    DeviceLostError,
    DeviceOOMError,
    KernelError,
    LaunchError,
    MemoryFaultError,
)
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphShard, partition_graph
from repro.graph.properties import sorted_unique
from repro.gpusim.allocator import MemoryBudget
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.gpusim.interconnect import (
    InterconnectSpec,
    PCIE_P2P,
    peer_transfer_seconds,
)
from repro.gpusim.kernel import CostModel
from repro.gpusim.memory import traversal_state_bytes
from repro.gpusim.transfer import transfer_seconds
from repro.kernels.multisource import fused_computation_tally
from repro.kernels.workset import workset_gen_tallies
from repro.obs.context import current_observer
from repro.obs.manifest import values_sha256
from repro.reliability.checkpoint import CheckpointKeeper
from repro.reliability.faults import FaultInjector, FaultPlan
from repro.reliability.watchdog import Watchdog

__all__ = ["RECOVERY_RUNGS", "RecoveryEvent", "ShardedResult", "run_sharded"]

#: the device-loss recovery ladder, mildest first
RECOVERY_RUNGS = ("none", "retry", "restore", "cpu")

_RUNG_RANK = {name: rank for rank, name in enumerate(RECOVERY_RUNGS)}

#: checkpoint rollbacks a run may take before it degrades to the CPU
MAX_RESTORES = 4
#: a shard whose round compute exceeds this multiple of the round
#: median is flagged a straggler
STRAGGLER_FACTOR = 4.0


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery action the sharded driver took, attributed to
    exactly one shard's fault domain."""

    super_iteration: int
    shard_index: int
    device_index: int
    fault_kind: str
    rung: str
    detail: str = ""


@dataclass
class ShardedResult:
    """One sharded run's full story: values, cost, recovery verdict."""

    algorithm: str
    source: int
    values: np.ndarray
    num_devices: int
    partition: str
    #: committed super-iterations (replays not double-counted)
    super_iterations: int
    #: super-iterations re-executed after rollbacks
    replayed_super_iterations: int
    #: end-to-end simulated makespan (slowest device per round, plus
    #: exchange, checkpoints and recovery overhead)
    sim_seconds: float
    exchange_bytes: int
    exchange_transfers: int
    exchange_seconds: float
    recovery_rung: str
    recovery_events: List[RecoveryEvent] = field(default_factory=list)
    degraded: bool = False
    #: every injected fault, each attributed to one device (fault domain)
    faults: List[dict] = field(default_factory=list)
    shard_reports: List[dict] = field(default_factory=list)
    #: per-shard decision traces, each entry tagged ``shard_index``
    decisions: List[dict] = field(default_factory=list)
    stragglers: int = 0
    device_losses: int = 0
    migrations: int = 0
    restores: int = 0
    checkpoints_saved: int = 0

    @property
    def values_sha256(self) -> str:
        return values_sha256(self.values)

    def reliability_dict(self) -> dict:
        """The manifest's recovery story."""
        return {
            "recovery_rung": self.recovery_rung,
            "degraded": self.degraded,
            "device_losses": self.device_losses,
            "migrations": self.migrations,
            "restores": self.restores,
            "replayed_super_iterations": self.replayed_super_iterations,
            "checkpoints_saved": self.checkpoints_saved,
            "events": [dataclasses.asdict(e) for e in self.recovery_events],
        }

    def result_dict(self) -> dict:
        """The manifest's free-form ``result`` payload (JSON-shaped)."""
        return {
            "kind": "sharded",
            "algorithm": self.algorithm,
            "source": self.source,
            "num_devices": self.num_devices,
            "partition": self.partition,
            "super_iterations": self.super_iterations,
            "sim_seconds": self.sim_seconds,
            "values_sha256": self.values_sha256,
            "exchange": {
                "bytes": self.exchange_bytes,
                "transfers": self.exchange_transfers,
                "seconds": self.exchange_seconds,
            },
            "stragglers": self.stragglers,
            "shards": self.shard_reports,
            "reliability": self.reliability_dict(),
        }


# ----------------------------------------------------------------------
# Internal run state
# ----------------------------------------------------------------------


@dataclass
class _DeviceState:
    """One simulated device: the fault domain the plan scopes to."""

    index: int
    spec: DeviceSpec
    budget: Optional[MemoryBudget]
    injector: Optional[FaultInjector]
    lost: bool = False


@dataclass
class _ShardRun:
    """One shard's mutable execution state across super-iterations."""

    shard: GraphShard
    #: the shard's row: its policy, variant and records
    row: _Row
    keeper: CheckpointKeeper
    device_index: int
    compute_seconds: float = 0.0
    rounds_active: int = 0


class _RoundFault(Exception):
    """Internal: a round must be abandoned and recovered (not a user
    error — always caught by :func:`run_sharded`)."""

    def __init__(
        self,
        device_index: int,
        shard_index: int,
        kind: str,
        detail: str,
        *,
        lose_device: bool,
    ):
        super().__init__(detail)
        self.device_index = device_index
        self.shard_index = shard_index
        self.kind = kind
        self.detail = detail
        self.lose_device = lose_device


class _Degrade(Exception):
    """Internal: no recovery path on any device — fall to the CPU."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _installed(injector: Optional[FaultInjector]):
    return injector.installed() if injector is not None else contextlib.nullcontext()


def _min_combine(
    values: np.ndarray, ids: np.ndarray, vals: np.ndarray
) -> np.ndarray:
    """The exchange barrier's min-combine: commit to each proposed id in
    *ids* the minimum of its proposals *vals*, whatever its committed
    value was (a corrupted scratch copy may propose above it), and
    return the sorted distinct ids, the next frontier.  Mutates
    *values*: each proposed id is reset to the combine's identity, then
    its proposals are min-ed in.
    """
    if np.issubdtype(values.dtype, np.floating):
        values[ids] = np.inf
    else:
        values[ids] = np.iinfo(values.dtype).max
    np.minimum.at(values, ids, vals)
    return sorted_unique(ids)


def _shard_resident_bytes(shard: GraphShard) -> int:
    """Device bytes one shard keeps resident: CSR slice + its owned
    slice of the traversal state."""
    return shard.csr.device_bytes() + traversal_state_bytes(
        max(1, shard.num_owned)
    )


def _allocate_shard(budget: MemoryBudget, shard: GraphShard, how: str = "") -> None:
    """Charge one shard's resident CSR slice and state slice."""
    budget.allocate(
        shard.csr.device_bytes(), "graph",
        label=f"{how}CSR slice of shard {shard.shard_index}",
    )
    budget.allocate(
        traversal_state_bytes(max(1, shard.num_owned)), "state",
        label=f"{how}state slice of shard {shard.shard_index}",
    )


def _shard_h2d_bytes(shard: GraphShard) -> int:
    """Initial host-to-device payload for one shard (mirrors the
    single-device frame's opening copy, scaled to the owned range)."""
    return shard.csr.device_bytes() + _state_payload(shard.num_owned)


def _inc(name: str, amount: int = 1) -> None:
    observer = current_observer()
    if observer is not None:
        observer.metrics.counter(name).inc(amount)


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


def run_sharded(
    graph: CSRGraph,
    source: int,
    *,
    algorithm: str = "bfs",
    num_devices: int = 2,
    partition: str = "contiguous",
    device: DeviceSpec = TESLA_C2070,
    config=None,
    interconnect: InterconnectSpec = PCIE_P2P,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_every: int = 4,
    max_retries: int = 2,
    mem_budget=None,
    max_super_iterations: Optional[int] = None,
    watchdog: Optional[Watchdog] = None,
    **params,
) -> ShardedResult:
    """Run *algorithm* from *source* sharded across *num_devices*
    simulated devices, surviving the faults *fault_plan* injects.

    Only batchable algorithms (BFS, SSSP) shard: their relaxation is
    the min-combine the exchange barrier relies on for bit-identity.
    *mem_budget* (bytes or a ``"512M"``-style string) attaches one
    :class:`~repro.gpusim.MemoryBudget` per device in spill mode, so
    worksets and checkpoint staging overflow to the host instead of
    failing.  *checkpoint_every* is the coordinated-checkpoint cadence
    in super-iterations; *max_retries* bounds same-device launch
    retries per incident (the failure after the last retry loses the
    device) and :data:`MAX_RESTORES` bounds checkpoint
    rollbacks before the run degrades to the CPU reference.  *config* (a
    :class:`~repro.core.config.RuntimeConfig`) drives every shard's
    adaptive policy, and its ``queue_gen`` picks the generation scheme.
    """
    info = get_algorithm(algorithm)
    spec: AlgorithmSpec = info.make_spec(**params)
    if not spec.batchable:
        raise KernelError(
            f"{spec.name} does not support sharded execution (the exchange "
            "barrier needs the batchable min-combine relaxation)"
        )
    if checkpoint_every < 1:
        raise KernelError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    spec.validate(graph, source)
    shards = partition_graph(graph, num_devices, strategy=partition)
    n = graph.num_nodes
    model = CostModel(device)
    plan = fault_plan if fault_plan is not None and not fault_plan.is_empty else None

    devices: List[_DeviceState] = []
    for i in range(num_devices):
        injector = None
        if plan is not None:
            derived = plan.for_device(i, num_devices)
            if derived is not None:
                injector = FaultInjector(derived, device_index=i)
        budget = (
            MemoryBudget(mem_budget, device=device, spill=True)
            if mem_budget is not None
            else None
        )
        devices.append(_DeviceState(i, device, budget, injector))

    runs: List[_ShardRun] = []
    for shard in shards:
        policy = AdaptivePolicy(
            shard.view(n),
            config,
            device=device,
            memory=devices[shard.shard_index].budget,
        )
        runs.append(
            _ShardRun(
                shard=shard,
                row=_Row(spec, policy, top=True),
                keeper=CheckpointKeeper(every=1, device=device),
                device_index=shard.shard_index,
            )
        )

    # -- initial state and transfers (parallel h2d across devices) -----
    # Kernels are priced into each device's seconds, not a timeline.
    queue_gen = (config or RuntimeConfig()).queue_gen
    ctx = FrameContext(graph, device, model, None, queue_gen, source)
    run_row = _Row(spec, None, top=True)
    values, frontier = _opening_state(run_row, ctx, max_super_iterations)
    sim_seconds = _initial_transfers(runs, devices, device)
    sim_seconds += n * HOST_INIT_PER_NODE_S

    events: List[RecoveryEvent] = []
    rung = "none"
    degraded = False
    k = 0
    replayed = 0
    restores_used = 0
    exchange_bytes = 0
    exchange_transfers = 0
    exchange_seconds = 0.0
    stragglers = 0
    device_losses = 0
    migrations = 0
    checkpoints_saved = 0

    def _raise_rung(name: str) -> None:
        nonlocal rung
        if _RUNG_RANK[name] > _RUNG_RANK[rung]:
            rung = name

    while frontier.size:
        # The run's gate: one cap and one watchdog over every shard.
        run_row.iteration = k
        _gate(run_row, watchdog, None, sim_seconds)
        try:
            round_out = _execute_round(
                k,
                frontier,
                values,
                runs,
                devices,
                ctx,
                max_retries,
                events,
                _raise_rung,
                interconnect,
            )
        except _RoundFault as fault:
            _inc("shard.restores")
            _raise_rung("restore")
            try:
                if fault.lose_device:
                    device_losses += 1
                    _inc("shard.device_losses")
                    moved, move_seconds = _lose_device(
                        devices[fault.device_index], devices, runs, k,
                        fault, events,
                    )
                    migrations += moved
                    sim_seconds += move_seconds
                else:
                    events.append(
                        RecoveryEvent(
                            super_iteration=k,
                            shard_index=fault.shard_index,
                            device_index=fault.device_index,
                            fault_kind=fault.kind,
                            rung="restore",
                            detail=fault.detail,
                        )
                    )
                restores_used += 1
                if restores_used > MAX_RESTORES:
                    raise _Degrade(
                        f"restore budget exhausted ({MAX_RESTORES} rollbacks)"
                    )
                values, frontier, restored_k = _rollback(
                    runs, run_row, ctx, max_super_iterations, values.dtype
                )
                replayed += k - restored_k
                _inc("shard.replayed_super_iterations", max(0, k - restored_k))
                k = restored_k
                continue
            except _Degrade as fall:
                values, cpu_seconds = _cpu_degrade(
                    info, graph, source, fall.reason, k, events, params
                )
                sim_seconds += cpu_seconds
                _raise_rung("cpu")
                degraded = True
                break

        (
            frontier,
            round_seconds,
            round_exchange_bytes,
            round_exchange_transfers,
            round_exchange_seconds,
            round_stragglers,
        ) = round_out
        sim_seconds += round_seconds
        exchange_bytes += round_exchange_bytes
        exchange_transfers += round_exchange_transfers
        exchange_seconds += round_exchange_seconds
        stragglers += round_stragglers
        _inc("shard.super_iterations")

        if (k + 1) % checkpoint_every == 0:
            cp_seconds, cp_saves = _coordinated_checkpoint(
                runs, devices, spec, source, k, values, frontier, device
            )
            sim_seconds += cp_seconds
            checkpoints_saved += cp_saves
        k += 1

    if not degraded:
        # Final owned-values readback, one d2h per device in parallel.
        per_device = [0] * num_devices
        for run in runs:
            per_device[run.device_index] += 4 * run.shard.num_owned
        sim_seconds += max(
            (transfer_seconds(b, device) for b in per_device if b), default=0.0
        )

    faults: List[dict] = []
    for dev in devices:
        if dev.injector is not None:
            faults.extend(dataclasses.asdict(f) for f in dev.injector.log)

    decisions: List[dict] = []
    shard_reports: List[dict] = []
    for run in runs:
        for decision in run.row.policy.trace.decisions:
            doc = dataclasses.asdict(decision)
            doc["shard_index"] = run.shard.shard_index
            decisions.append(doc)
        shard_reports.append(
            {
                "shard_index": run.shard.shard_index,
                "device_index": run.device_index,
                "start": run.shard.start,
                "stop": run.shard.stop,
                "num_owned": run.shard.num_owned,
                "num_edges": run.shard.num_edges,
                "num_ghosts": run.shard.num_ghosts,
                "rounds_active": run.rounds_active,
                "compute_seconds": run.compute_seconds,
                "checkpoint_saves": run.keeper.saves,
                "checkpoint_restores": run.keeper.restores,
            }
        )

    return ShardedResult(
        algorithm=spec.name,
        source=source,
        values=values,
        num_devices=num_devices,
        partition=partition,
        super_iterations=k,
        replayed_super_iterations=replayed,
        sim_seconds=sim_seconds,
        exchange_bytes=exchange_bytes,
        exchange_transfers=exchange_transfers,
        exchange_seconds=exchange_seconds,
        recovery_rung=rung,
        recovery_events=events,
        degraded=degraded,
        faults=faults,
        shard_reports=shard_reports,
        decisions=decisions,
        stragglers=stragglers,
        device_losses=device_losses,
        migrations=migrations,
        restores=restores_used,
        checkpoints_saved=checkpoints_saved,
    )


# ----------------------------------------------------------------------
# Round execution
# ----------------------------------------------------------------------


def _opening_state(
    run_row: _Row, ctx: FrameContext, max_super_iterations: Optional[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """The row start over the whole graph: the run's cap and its initial
    (values, sorted frontier)."""
    state = run_row.start(ctx, max_super_iterations).state
    return state.values, np.sort(np.asarray(state.frontier, dtype=np.int64))


def _initial_transfers(
    runs: Sequence[_ShardRun],
    devices: Sequence[_DeviceState],
    device: DeviceSpec,
) -> float:
    """Charge each device's resident allocations and price the opening
    h2d copies (devices upload in parallel: the makespan term is the
    slowest device)."""
    per_device_bytes = [0] * len(devices)
    for run in runs:
        dev = devices[run.device_index]
        if dev.budget is not None:
            _allocate_shard(dev.budget, run.shard)
        per_device_bytes[run.device_index] += _shard_h2d_bytes(run.shard)
    return max(
        (transfer_seconds(b, device) for b in per_device_bytes if b),
        default=0.0,
    )


def _execute_round(
    k: int,
    frontier: np.ndarray,
    values: np.ndarray,
    runs: Sequence[_ShardRun],
    devices: Sequence[_DeviceState],
    ctx: FrameContext,
    max_retries: int,
    events: List[RecoveryEvent],
    raise_rung,
    interconnect: InterconnectSpec,
) -> Tuple[np.ndarray, float, int, int, float, int]:
    """One super-iteration: per-shard relaxation, barrier min-combine,
    ghost exchange.  Mutates *values* only on successful commit.

    Returns ``(next_frontier, makespan_seconds, exchange_bytes,
    exchange_transfers, exchange_seconds, stragglers)``.  Raises
    :class:`_RoundFault` when the round must be rolled back.
    """
    n = ctx.graph.num_nodes
    device = ctx.device
    # Device-loss site: one draw per fault domain per super-iteration.
    for dev in devices:
        if dev.lost or dev.injector is None:
            continue
        try:
            dev.injector.on_super_iteration(k)
        except DeviceLostError as exc:
            domain = next(
                (r.shard.shard_index for r in runs
                 if r.device_index == dev.index),
                dev.index,
            )
            raise _RoundFault(
                dev.index, domain, "device_loss", str(exc), lose_device=True
            ) from exc

    per_device_seconds: Dict[int, float] = {}
    shard_seconds: List[Tuple[_ShardRun, float]] = []
    proposals: List[Tuple[_ShardRun, np.ndarray, np.ndarray]] = []
    active = 0
    for run in runs:
        owned = run.shard.owned_slice(frontier)
        if owned.size == 0:
            continue
        active += 1
        dev = devices[run.device_index]
        attempt = 0
        while True:
            try:
                seconds, updated, proposed = _relax_shard(
                    run, owned, values, k, dev, ctx
                )
                break
            except LaunchError as exc:
                attempt += 1
                if attempt > max_retries:
                    raise _RoundFault(
                        dev.index,
                        run.shard.shard_index,
                        "launch_failure",
                        f"retries exhausted on device {dev.index}: {exc}",
                        lose_device=True,
                    ) from exc
                raise_rung("retry")
                events.append(
                    RecoveryEvent(
                        super_iteration=k,
                        shard_index=run.shard.shard_index,
                        device_index=dev.index,
                        fault_kind="launch_failure",
                        rung="retry",
                        detail=f"attempt {attempt}/{max_retries}: {exc}",
                    )
                )
            except MemoryFaultError as exc:
                raise _RoundFault(
                    dev.index,
                    run.shard.shard_index,
                    "memory_fault",
                    str(exc),
                    lose_device=False,
                ) from exc
        per_device_seconds[dev.index] = (
            per_device_seconds.get(dev.index, 0.0) + seconds
        )
        shard_seconds.append((run, seconds))
        if updated.size:
            proposals.append((run, updated, proposed))

    observer = current_observer()
    if observer is not None:
        observer.metrics.histogram("shard.active_shards").observe(active)

    # -- barrier: min-combine every shard's proposals ------------------
    if proposals:
        next_frontier = _min_combine(
            values,
            np.concatenate([p[1] for p in proposals]),
            np.concatenate([p[2] for p in proposals]),
        )
    else:
        next_frontier = np.empty(0, dtype=np.int64)

    # -- ghost exchange: ship cross-shard updates over the interconnect
    bounds = np.array([r.shard.start for r in runs] + [n], dtype=np.int64)
    exch_bytes = 0
    exch_transfers = 0
    per_device_exchange: Dict[int, float] = {}
    entry_bytes = 4 + values.dtype.itemsize
    for run, updated, _ in proposals:
        owners = np.searchsorted(bounds, updated, side="right") - 1
        counts = np.bincount(owners, minlength=len(runs))
        src_dev = run.device_index
        for owner_index in np.flatnonzero(counts):
            owner_run = runs[int(owner_index)]
            if owner_run.shard.shard_index == run.shard.shard_index:
                continue
            count = int(counts[owner_index])
            dst_dev = owner_run.device_index
            if dst_dev == src_dev:
                continue  # co-resident after migration: no link traffic
            nbytes = count * entry_bytes
            exch_bytes += nbytes
            exch_transfers += 1
            seconds = peer_transfer_seconds(nbytes, interconnect, device=device)
            src_budget = devices[src_dev].budget
            if src_budget is not None:
                with src_budget.transient(
                    nbytes, "other", label="exchange staging"
                ):
                    pass
            per_device_exchange[src_dev] = (
                per_device_exchange.get(src_dev, 0.0) + seconds
            )
    exch_seconds = max(per_device_exchange.values(), default=0.0)
    _inc("shard.exchange_bytes", exch_bytes)
    _inc("shard.exchange_transfers", exch_transfers)

    # -- straggler detection over this round's compute times -----------
    round_stragglers = 0
    if len(shard_seconds) >= 2:
        times = np.array([s for _, s in shard_seconds])
        median = float(np.median(times))
        if median > 0:
            for run, seconds in shard_seconds:
                if seconds > STRAGGLER_FACTOR * median:
                    round_stragglers += 1
                    _inc("shard.stragglers")

    # Fused per-shard size readbacks land in parallel: one PCIe latency.
    readback = transfer_seconds(4, device) if active else 0.0
    makespan = max(per_device_seconds.values(), default=0.0)
    return (
        next_frontier,
        makespan + exch_seconds + readback,
        exch_bytes,
        exch_transfers,
        exch_seconds,
        round_stragglers,
    )


def _relax_shard(
    run: _ShardRun,
    owned: np.ndarray,
    values: np.ndarray,
    k: int,
    dev: _DeviceState,
    ctx: FrameContext,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """One round of the shard's row: its owned frontier relaxed on a
    scratch copy.

    The scratch copy is what makes every recovery rung safe: a faulted
    or retried attempt never touched the committed global state, so
    replays are exact.  Returns ``(simulated_seconds, updated_global_ids,
    proposed_values)``.
    """
    shard, row = run.shard, run.row
    n = ctx.graph.num_nodes
    row.iteration = k
    variant = _choose_top(row, int(owned.size))
    scratch = values.copy()
    work = owned.astype(np.int64, copy=True)
    row.state = FrameState(scratch, work)
    ctx.seconds = 0.0
    with _installed(dev.injector):
        if dev.injector is not None:
            # Memory-fault site: corruption lands on the scratch copy
            # (the simulated device's resident slice), never on the
            # committed host-side state.
            dev.injector.on_iteration(k, scratch, work)
        outcome, relaxation = row.spec.relax(shard.view(n), row.state)
        tpb = variant.threads_per_block(
            shard.csr.avg_out_degree if shard.num_owned else 1.0, ctx.device
        )
        ctx.price(fused_computation_tally(
            # The launch covers the shard's owned slots only.
            [dataclasses.replace(relaxation, active_ids=work - shard.start)],
            variant,
            tpb,
            max(1, shard.num_owned),
            ctx.device,
            edge_cost=row.spec.edge_cost,
            weight_streams=row.spec.weight_streams,
            name=f"shard{shard.shard_index}_comp",
        ))
        _overhead(ctx, row, outcome.processed, variant.code)
        # The shard's update vector is full graph width (ghost vertices
        # must be flaggable), so generation scans n flags, not num_owned.
        for gen in workset_gen_tallies(
            max(1, n),
            outcome.updated_count,
            variant.workset,
            ctx.device,
            scheme=ctx.queue_gen,
            name=f"shard{shard.shard_index}_workset_gen",
        ):
            ctx.price(gen)
    if dev.budget is not None:
        # The working set is charged once generated, at its new size.
        spilled = dev.budget.charge_workset(
            variant.workset,
            outcome.updated_count,
            max(1, n),
            entry_bytes=row.spec.workset_entry_bytes,
        )
        if spilled:
            ctx.seconds += 2 * transfer_seconds(spilled, ctx.device)
    _commit(ctx, row, outcome.processed, outcome, variant, ctx.seconds)
    run.compute_seconds += ctx.seconds
    run.rounds_active += 1
    updated = outcome.next_frontier
    row.state = None  # the scratch copy dies with the round
    return ctx.seconds, updated, scratch[updated].copy()


# ----------------------------------------------------------------------
# Checkpoints and the recovery ladder
# ----------------------------------------------------------------------


def _coordinated_checkpoint(
    runs: Sequence[_ShardRun],
    devices: Sequence[_DeviceState],
    spec: AlgorithmSpec,
    source: int,
    k: int,
    values: np.ndarray,
    frontier: np.ndarray,
    device: DeviceSpec,
) -> Tuple[float, int]:
    """Every shard snapshots its owned slice at the same barrier, so
    the checkpoint set is exchange-consistent (one global rollback
    point).  Copies are host-resident: they survive device loss."""
    per_device_seconds: Dict[int, float] = {}
    saves = 0
    for run in runs:
        shard = run.shard
        nbytes = run.keeper.offer(
            algorithm=spec.name,
            source=source,
            iteration=k,
            values=values[shard.start : shard.stop],
            frontier=shard.owned_slice(frontier),
            variant_code=run.row.variant.code if run.row.variant else "",
            records=run.row.records,
            seconds=0.0,
        )
        if not nbytes:
            continue
        saves += 1
        _inc("frame.checkpoint_bytes", nbytes)
        dev = devices[run.device_index]
        seconds = transfer_seconds(nbytes, device)
        if dev.budget is not None:
            with dev.budget.transient(
                nbytes, "checkpoint", label="checkpoint staging"
            ):
                pass
        per_device_seconds[dev.index] = (
            per_device_seconds.get(dev.index, 0.0) + seconds
        )
    return max(per_device_seconds.values(), default=0.0), saves


def _rollback(
    runs: Sequence[_ShardRun],
    run_row: _Row,
    ctx: FrameContext,
    max_super_iterations: Optional[int],
    values_dtype,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Restore the last exchange-consistent checkpoint set (or restart
    from scratch when none was taken).  Returns ``(values, frontier,
    super_iteration)`` to resume from."""
    spec = run_row.spec
    checkpoints = [run.keeper.restore(spec.name, ctx.source) for run in runs]
    if any(cp is None for cp in checkpoints):
        values, frontier = _opening_state(run_row, ctx, max_super_iterations)
        for run in runs:
            run.row.records = []
        return values, frontier, 0
    target = checkpoints[0].next_iteration
    values = np.empty(ctx.graph.num_nodes, dtype=values_dtype)
    pieces = []
    for run, cp in zip(runs, checkpoints):
        if cp.next_iteration != target:
            raise KernelError(
                "checkpoint set is not exchange-consistent: shard "
                f"{run.shard.shard_index} is at super-iteration "
                f"{cp.next_iteration}, expected {target}"
            )
        values[run.shard.start : run.shard.stop] = cp.values
        pieces.append(cp.frontier)
        run.row.records = list(cp.records)
    frontier = np.sort(np.concatenate(pieces)) if pieces else np.empty(
        0, dtype=np.int64
    )
    return values, frontier.astype(np.int64, copy=False), target


def _lose_device(
    lost: _DeviceState,
    devices: Sequence[_DeviceState],
    runs: Sequence[_ShardRun],
    k: int,
    fault: _RoundFault,
    events: List[RecoveryEvent],
) -> Tuple[int, float]:
    """Mark *lost* dead and migrate its shards to the least-loaded
    surviving device (graph + state re-uploaded, charged against the
    survivor's budget).  Raises :class:`_Degrade` when no survivor can
    take the load."""
    lost.lost = True
    survivors = [d for d in devices if not d.lost]
    if not survivors:
        raise _Degrade(f"device {lost.index} lost; no surviving devices")

    def _load(dev: _DeviceState) -> int:
        return sum(
            _shard_resident_bytes(r.shard)
            for r in runs
            if r.device_index == dev.index
        )

    moved = 0
    move_seconds = 0.0
    for run in runs:
        if run.device_index != lost.index:
            continue
        placed = False
        for target in sorted(survivors, key=_load):
            if target.budget is not None:
                try:
                    _allocate_shard(target.budget, run.shard, "migrated ")
                except DeviceOOMError:
                    continue
            run.device_index = target.index
            run.row.policy.memory = target.budget
            move_seconds += transfer_seconds(
                _shard_h2d_bytes(run.shard), target.spec
            )
            moved += 1
            _inc("shard.migrations")
            events.append(
                RecoveryEvent(
                    super_iteration=k,
                    shard_index=run.shard.shard_index,
                    device_index=lost.index,
                    fault_kind=fault.kind,
                    rung="restore",
                    detail=(
                        f"shard {run.shard.shard_index} migrated from lost "
                        f"device {lost.index} to device {target.index}"
                    ),
                )
            )
            placed = True
            break
        if not placed:
            raise _Degrade(
                f"no surviving device can host shard "
                f"{run.shard.shard_index} after losing device {lost.index}"
            )
    return moved, move_seconds


def _cpu_degrade(
    info,
    graph: CSRGraph,
    source: int,
    reason: str,
    k: int,
    events: List[RecoveryEvent],
    params: dict,
) -> Tuple[np.ndarray, float]:
    """The ladder's last rung: the whole graph on the CPU reference."""
    if info.cpu_run is None:
        raise KernelError(
            f"{info.name} has no CPU reference to degrade to ({reason})"
        )
    values, cpu_result = info.cpu_run(graph, source, **params)
    events.append(
        RecoveryEvent(
            super_iteration=k,
            shard_index=-1,
            device_index=-1,
            fault_kind="degradation",
            rung="cpu",
            detail=reason,
        )
    )
    return np.asarray(values), float(getattr(cpu_result, "seconds", 0.0))
