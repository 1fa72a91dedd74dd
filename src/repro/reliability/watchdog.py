"""Execution watchdog: iteration and wall-clock budgets.

A production traversal service cannot let one query spin forever — a
non-converging query (negative-weight-like pathologies, corrupted
state that keeps re-activating nodes, adversarial inputs) must be cut
off deterministically.  The :class:`Watchdog` is consulted by the
traversal frame at the top of every iteration and raises
:class:`~repro.errors.NonConvergenceError` naming the exhausted budget.

Budgets:

- ``max_iterations`` — iterations across the whole guarded query
  (shared across retries: a retry resuming from iteration *k* has *k*
  iterations already on the meter via the checkpointed records);
- ``deadline_s`` — *real* wall-clock seconds for the whole query (the
  service-level deadline);
- ``simulated_deadline_s`` — simulated seconds budget, useful when the
  simulated device is the thing being modelled.

The deadline clock starts when the watchdog is **armed**
(:meth:`Watchdog.arm`), not when it is constructed.  That distinction
is what lets the serving layer start a query's deadline at *admission*
— queue wait counts against the budget — while the guarded runner arms
immediately and batch rows arm when their query enters the system.  A
watchdog that is never armed explicitly arms itself on its first
:meth:`check`, so single-query callers that just pass one into a frame
keep their old behavior.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import NonConvergenceError

__all__ = ["Watchdog"]


class Watchdog:
    """Enforces iteration / wall-clock budgets over one guarded query."""

    def __init__(
        self,
        *,
        max_iterations: Optional[int] = None,
        deadline_s: Optional[float] = None,
        simulated_deadline_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_iterations is not None and max_iterations < 1:
            raise NonConvergenceError(
                f"max_iterations budget must be >= 1, got {max_iterations}"
            )
        self.max_iterations = max_iterations
        self.deadline_s = deadline_s
        self.simulated_deadline_s = simulated_deadline_s
        self._clock = clock
        self._started_at: Optional[float] = None
        self._simulated_s = 0.0

    def arm(self) -> "Watchdog":
        """Start the deadline clock.  Idempotent: the first call wins, so
        a guard retrying a query does not reset the budget.  Returns
        ``self`` so construction and arming can be one expression."""
        if self._started_at is None:
            self._started_at = self._clock()
        return self

    @property
    def armed(self) -> bool:
        return self._started_at is not None

    @property
    def elapsed_s(self) -> float:
        """Real seconds since the watchdog was armed (0.0 before)."""
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    @property
    def remaining_s(self) -> Optional[float]:
        """Wall-clock budget left (None without a deadline; never
        negative — an expired budget reads 0.0)."""
        if self.deadline_s is None:
            return None
        return max(0.0, self.deadline_s - self.elapsed_s)

    def check(self, iteration: int, simulated_seconds: float = 0.0) -> None:
        """Called at the top of each traversal iteration.

        *simulated_seconds* is the simulated time accumulated *this
        attempt*; the watchdog adds it to time banked by prior attempts
        via :meth:`bank_simulated`.  An unarmed watchdog arms itself
        here, so direct single-query callers need no extra call.
        """
        self.arm()
        if self.max_iterations is not None and iteration >= self.max_iterations:
            raise NonConvergenceError(
                f"traversal exceeded its iteration budget of "
                f"{self.max_iterations} iterations without convergence"
            )
        if self.deadline_s is not None and self.elapsed_s > self.deadline_s:
            raise NonConvergenceError(
                f"traversal exceeded its wall-clock deadline of "
                f"{self.deadline_s} s (elapsed {self.elapsed_s:.3f} s)"
            )
        if (
            self.simulated_deadline_s is not None
            and self._simulated_s + simulated_seconds > self.simulated_deadline_s
        ):
            raise NonConvergenceError(
                f"traversal exceeded its simulated-time budget of "
                f"{self.simulated_deadline_s} s"
            )

    def bank_simulated(self, seconds: float) -> None:
        """Credit simulated time spent by a finished (or failed) attempt
        so the budget spans retries."""
        self._simulated_s += max(0.0, float(seconds))
