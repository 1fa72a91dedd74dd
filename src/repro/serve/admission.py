"""Admission control: the bounded queue in front of the serve loop.

A serving process that accepts unboundedly eventually answers nobody —
queue wait grows past every deadline and memory grows past the box.
The :class:`AdmissionQueue` is the explicit alternative: a fixed
*capacity*, a deadline clock that starts the moment a query is
**admitted** (queue wait counts against the budget — the
:class:`~repro.reliability.watchdog.Watchdog` is armed here, not when
the query first touches the GPU), and a shed policy that turns
overload into explicit, attributable error responses instead of
crashes or silent drops.

Shed policy under backpressure, in order:

1. A query arriving at a full queue displaces the lowest-priority
   queued entry *only if* it outranks it (strictly higher
   ``priority``); ties shed the newcomer, preserving FIFO fairness.
2. Entries whose deadline expires while still queued are collected by
   :meth:`AdmissionQueue.expire_overdue` — the loop answers them with a
   deadline error without ever spending GPU time on them.

Every outcome is observable: ``serve.admitted`` / ``serve.shed``
counters and the ``serve.queue_depth`` gauge (high-water mark in its
``max`` field) in the metrics catalog.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import RuntimeConfigError
from repro.obs.context import current_observer
from repro.reliability.watchdog import Watchdog
from repro.serve.batch import BatchQuery

__all__ = ["AdmittedQuery", "AdmissionOutcome", "AdmissionQueue"]


@dataclass
class AdmittedQuery:
    """One queued request and its admission-time bookkeeping."""

    #: monotonically increasing submission number (exactly-once key)
    seq: int
    query: BatchQuery
    #: input line number when the query came over the wire (None for
    #: programmatic submissions); echoed back in the response
    line: Optional[int]
    priority: int
    #: effective deadline (query's own, or the loop default); None = none
    deadline_s: Optional[float]
    #: wall clock at admission (latency measurements start here)
    admitted_at: float
    #: simulated clock at admission
    admitted_sim: float
    #: armed at admission, so queue wait burns deadline budget
    watchdog: Watchdog

    @property
    def overdue(self) -> bool:
        return (
            self.deadline_s is not None
            and self.watchdog.remaining_s == 0.0
        )


@dataclass
class AdmissionOutcome:
    """What :meth:`AdmissionQueue.offer` did with one submission."""

    #: the entry now sitting in the queue (None when the newcomer shed)
    admitted: Optional[AdmittedQuery]
    #: the entry shed to make the decision — either a displaced queued
    #: entry or the (never-admitted) newcomer; None when nobody shed
    shed: Optional[AdmittedQuery] = None


class AdmissionQueue:
    """Bounded, priority-aware FIFO of :class:`AdmittedQuery` entries."""

    def __init__(
        self,
        *,
        capacity: int = 64,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise RuntimeConfigError(
                f"admission-queue capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._clock = clock
        self._entries: List[AdmittedQuery] = []
        self._seq = 0
        self.admitted_total = 0
        self.shed_total = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def depth(self) -> int:
        return len(self._entries)

    def _entry(
        self,
        query: BatchQuery,
        line: Optional[int],
        deadline_s: Optional[float],
        sim_now: float,
    ) -> AdmittedQuery:
        self._seq += 1
        return AdmittedQuery(
            seq=self._seq,
            query=query,
            line=line,
            priority=query.priority,
            deadline_s=deadline_s,
            admitted_at=self._clock(),
            admitted_sim=sim_now,
            watchdog=Watchdog(deadline_s=deadline_s, clock=self._clock),
        )

    def offer(
        self,
        query: BatchQuery,
        *,
        line: Optional[int] = None,
        deadline_s: Optional[float] = None,
        sim_now: float = 0.0,
    ) -> AdmissionOutcome:
        """Admit *query* or shed somebody; never raises on overload.

        Returns an :class:`AdmissionOutcome`; when its ``shed`` field is
        set, the caller owes that entry an explicit shed response
        (exactly-once accounting — shed queries are answered, not
        dropped).
        """
        entry = self._entry(query, line, deadline_s, sim_now)
        if len(self._entries) >= self.capacity:
            victim = min(
                self._entries, key=lambda e: (e.priority, -e.seq)
            )
            if entry.priority > victim.priority:
                self._entries.remove(victim)
                self._admit(entry)
                self._shed()
                return AdmissionOutcome(admitted=entry, shed=victim)
            self._shed()
            return AdmissionOutcome(admitted=None, shed=entry)
        self._admit(entry)
        return AdmissionOutcome(admitted=entry)

    def _admit(self, entry: AdmittedQuery) -> None:
        entry.watchdog.arm()
        self._entries.append(entry)
        self.admitted_total += 1
        observer = current_observer()
        if observer is not None:
            observer.metrics.counter("serve.admitted").inc()
            observer.metrics.gauge("serve.queue_depth").set(len(self._entries))

    def _shed(self) -> None:
        self.shed_total += 1
        observer = current_observer()
        if observer is not None:
            observer.metrics.counter("serve.shed").inc()
            observer.metrics.gauge("serve.queue_depth").set(len(self._entries))

    # ------------------------------------------------------------------

    def expire_overdue(self) -> List[AdmittedQuery]:
        """Remove and return entries whose deadline expired while they
        waited — the loop answers them without spending GPU time.

        Each entry's ``overdue`` (a clock read) is evaluated once, so an
        entry is either returned or kept, never dropped unanswered.
        """
        overdue, kept = [], []
        for entry in self._entries:
            (overdue if entry.overdue else kept).append(entry)
        if overdue:
            self._entries = kept
            observer = current_observer()
            if observer is not None:
                observer.metrics.gauge("serve.queue_depth").set(
                    len(self._entries)
                )
        return overdue

    def pop(self, limit: int) -> List[AdmittedQuery]:
        """Dequeue up to *limit* entries, highest priority first, FIFO
        within a priority level."""
        if limit <= 0 or not self._entries:
            return []
        ordered = sorted(self._entries, key=lambda e: (-e.priority, e.seq))
        taken = ordered[:limit]
        taken_ids = {id(e) for e in taken}
        self._entries = [e for e in self._entries if id(e) not in taken_ids]
        observer = current_observer()
        if observer is not None:
            observer.metrics.gauge("serve.queue_depth").set(len(self._entries))
        return taken
