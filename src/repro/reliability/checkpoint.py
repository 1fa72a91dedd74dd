"""Iteration-granular checkpointing of traversal state.

A :class:`TraversalCheckpoint` is everything the traversal frame needs
to resume a query from the end of a known-good iteration: the value
array (levels/distances), the next frontier, the iteration index, and
the per-iteration records accumulated so far.  Arrays are deep copies —
a later memory fault corrupting the live traversal state cannot reach
the checkpoint.

The :class:`CheckpointKeeper` decides *when* to checkpoint and charges
the simulated cost of doing so (a device-to-host copy of the state
arrays).  Two policies:

- ``every=N`` — fixed interval, used by tests and fault drills that
  want tight recovery points;
- cost-aware (the default) — checkpoint only once enough simulated
  compute has accumulated since the last checkpoint that the copy stays
  within the overhead budget :data:`CHECKPOINT_BUDGET` (a simplified
  Young/Daly rule: with checkpoint cost ``C`` and budget ``b``,
  checkpoint every ``C / b`` simulated seconds, so steady-state overhead
  is at most ``b``).

Every checkpoint is **integrity-sealed** at capture: SHA-256 digests of
``values``, ``frontier``, and ``extra`` are computed when the snapshot
is taken, and :meth:`TraversalCheckpoint.verify` recomputes them on
restore.  A mismatch raises :class:`~repro.errors.CheckpointError`
naming the corrupted field — resuming from a silently-rotted checkpoint
would corrupt the whole run, so the keeper refuses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError, KernelError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.transfer import transfer_seconds
from repro.obs.manifest import values_sha256

__all__ = ["CHECKPOINT_BUDGET", "TraversalCheckpoint", "CheckpointKeeper"]

#: the cost-aware policy's ceiling on checkpoint copies, as a fraction of
#: the simulated compute they protect
CHECKPOINT_BUDGET = 0.02


def _extra_bytes(extra: Optional[dict]) -> int:
    """Device bytes of an algorithm-private checkpoint payload (scalars
    count as one 8-byte word)."""
    if not extra:
        return 0
    return sum(
        int(v.nbytes) if isinstance(v, np.ndarray) else 8 for v in extra.values()
    )


def _extra_digest(extra: Optional[dict]) -> str:
    """SHA-256 over an algorithm-private payload: keys in sorted order,
    arrays by raw bytes, scalars by repr."""
    h = hashlib.sha256()
    if extra:
        for key in sorted(extra):
            value = extra[key]
            h.update(key.encode("utf-8"))
            if isinstance(value, np.ndarray):
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(repr(value).encode("utf-8"))
    return h.hexdigest()


@dataclass(frozen=True)
class TraversalCheckpoint:
    """Resumable traversal state as of the end of one iteration."""

    #: which frame produced this ("bfs" or "sssp"; unordered frames only)
    algorithm: str
    source: int
    #: the iteration the resumed traversal should execute next
    next_iteration: int
    #: levels / distances after the checkpointed iteration (private copy)
    values: np.ndarray
    #: the frontier the next iteration consumes (private copy)
    frontier: np.ndarray
    #: variant chosen for the next iteration (informational; the policy
    #: re-decides on resume and agrees under deterministic configs)
    variant_code: str
    #: iteration records 0..next_iteration-1 (immutable snapshot)
    records: Tuple
    #: algorithm-private payload beyond (values, frontier) — PageRank's
    #: residuals, k-core's degrees (private copies; None for BFS/SSSP)
    extra: Optional[dict] = None
    #: integrity seals computed at capture (never pass explicitly)
    values_sha256: str = field(default="")
    frontier_sha256: str = field(default="")
    extra_sha256: str = field(default="")

    def __post_init__(self):
        if not self.values_sha256:
            object.__setattr__(self, "values_sha256", values_sha256(self.values))
        if not self.frontier_sha256:
            object.__setattr__(
                self, "frontier_sha256", values_sha256(self.frontier)
            )
        if not self.extra_sha256:
            object.__setattr__(self, "extra_sha256", _extra_digest(self.extra))

    def matches(self, algorithm: str, source: int) -> bool:
        return self.algorithm == algorithm and self.source == source

    def verify(self) -> None:
        """Recompute the integrity seals; raise
        :class:`~repro.errors.CheckpointError` naming the first field
        whose current bytes no longer match the digest taken at
        capture."""
        checks = (
            ("values", self.values_sha256, lambda: values_sha256(self.values)),
            (
                "frontier",
                self.frontier_sha256,
                lambda: values_sha256(self.frontier),
            ),
            ("extra", self.extra_sha256, lambda: _extra_digest(self.extra)),
        )
        for name, sealed, recompute in checks:
            current = recompute()
            if current != sealed:
                raise CheckpointError(
                    f"checkpoint integrity failure: field {name!r} of the "
                    f"{self.algorithm} source={self.source} checkpoint "
                    f"(next_iteration={self.next_iteration}) does not match "
                    f"its capture-time digest "
                    f"({current[:12]}… != {sealed[:12]}…)"
                )


class CheckpointKeeper:
    """Owns checkpoint policy and storage for one guarded query.

    The traversal frame calls :meth:`offer` after every completed
    iteration; the keeper snapshots the state when its policy says so
    and returns the number of bytes to charge as a device-to-host
    transfer (0 when it declined).
    """

    def __init__(
        self,
        *,
        every: Optional[int] = None,
        device: Optional[DeviceSpec] = None,
    ):
        if every is not None and every < 1:
            raise KernelError(f"checkpoint interval must be >= 1, got {every}")
        self.every = every
        self.device = device
        self.latest: Optional[TraversalCheckpoint] = None
        self.saves = 0
        self.restores = 0
        #: simulated seconds of traversal work since the last checkpoint
        self._since_last_s = 0.0
        #: simulated iteration seconds ever offered (across retries —
        #: replayed iterations count again, so the guard can report the
        #: compute cost of recovery)
        self.work_seconds = 0.0

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------

    def _should_save(self, iteration: int, state_bytes: int) -> bool:
        if self.every is not None:
            return (iteration + 1) % self.every == 0
        if self.device is None:
            return False
        cost_s = transfer_seconds(state_bytes, self.device)
        return self._since_last_s >= cost_s / CHECKPOINT_BUDGET

    # ------------------------------------------------------------------
    # Frame interface
    # ------------------------------------------------------------------

    def offer(
        self,
        *,
        algorithm: str,
        source: int,
        iteration: int,
        values: np.ndarray,
        frontier: np.ndarray,
        variant_code: str,
        records: Sequence,
        seconds: float,
        extra: Optional[dict] = None,
    ) -> int:
        """Consider checkpointing after *iteration* finished; return the
        bytes to charge to the timeline (0 if no checkpoint was taken).

        *extra* is the algorithm's private payload beyond (values,
        frontier) — arrays are deep-copied like the core state and their
        bytes are charged too."""
        self._since_last_s += float(seconds)
        self.work_seconds += float(seconds)
        state_bytes = int(values.nbytes + frontier.nbytes + 8) + _extra_bytes(extra)
        if not self._should_save(iteration, state_bytes):
            return 0
        self.latest = TraversalCheckpoint(
            algorithm=algorithm,
            source=source,
            next_iteration=iteration + 1,
            values=values.copy(),
            frontier=frontier.copy(),
            variant_code=variant_code,
            records=tuple(records),
            extra=None
            if extra is None
            else {
                k: (v.copy() if isinstance(v, np.ndarray) else v)
                for k, v in extra.items()
            },
        )
        self.saves += 1
        self._since_last_s = 0.0
        return state_bytes

    # ------------------------------------------------------------------
    # Guard interface
    # ------------------------------------------------------------------

    def restore(self, algorithm: str, source: int) -> Optional[TraversalCheckpoint]:
        """The checkpoint to resume from after a failure (None = restart
        from scratch).  Verifies the integrity seals before handing the
        checkpoint out; counts the restore for telemetry."""
        cp = self.latest
        if cp is None:
            return None
        if not cp.matches(algorithm, source):
            raise KernelError(
                f"checkpoint for {cp.algorithm!r} source {cp.source} cannot "
                f"resume a {algorithm!r} query from source {source}"
            )
        cp.verify()
        self.restores += 1
        return cp
