"""Circuit breaker: stop sending queries down a path that keeps failing.

The guarded runner (:mod:`repro.reliability.guard`) makes one query
survive one failure.  A *service* has the complementary problem: when a
whole (algorithm, path) combination is broken — a variant whose fused
kernel keeps faulting, a fallback ladder that burns its full retry
budget on every query — re-walking the ladder per query multiplies the
damage.  The :class:`CircuitBreaker` watches failures per routing key
and, after ``failure_threshold`` consecutive failures, *trips*: the
serving layer routes around the path (batch rows go straight to the
single-source fallback; a broken fallback is answered with an explicit
error) instead of paying the failure again.

States per key, the classic three:

- **closed** — healthy; failures are counted, a success resets them.
- **open** — tripped; :meth:`allow` answers False until ``cooldown_s``
  wall-clock seconds (or ``cooldown_probes`` denied requests, whichever
  comes first) have passed.
- **half-open** — cooldown elapsed; one probe request is allowed
  through.  Success closes the circuit, failure re-opens it and
  restarts the cooldown.

Trips, short-circuited requests and resets are reported to the current
observer (``breaker.*`` in the metrics catalog),
:meth:`CircuitBreaker.snapshot` is JSON-shaped for the serve manifest,
and every state transition is appended to
:meth:`CircuitBreaker.transition_log` — (key, from, to, cause) — so a
chaos run can show *which* path tripped and when, not just that some
trip happened.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional

from repro.errors import RuntimeConfigError
from repro.obs.context import current_observer

__all__ = ["CircuitBreaker"]


@dataclass
class _Circuit:
    """Per-key breaker state (private)."""

    state: str = "closed"  # "closed" | "open" | "half_open"
    consecutive_failures: int = 0
    trips: int = 0
    short_circuits: int = 0
    opened_at: float = 0.0
    denied_since_open: int = 0
    probe_in_flight: bool = False


class CircuitBreaker:
    """Tracks failure streaks per routing key and trips open.

    Keys are anything hashable — the serving layer uses
    ``(path, algorithm, mode)`` tuples so a broken ``("batch", "sssp",
    "U_T_BM")`` slab does not take ``("batch", "bfs", "adaptive")``
    down with it.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        cooldown_probes: Optional[int] = 8,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise RuntimeConfigError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise RuntimeConfigError(f"cooldown_s must be >= 0, got {cooldown_s}")
        if cooldown_probes is not None and cooldown_probes < 1:
            raise RuntimeConfigError(
                f"cooldown_probes must be >= 1, got {cooldown_probes}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.cooldown_probes = cooldown_probes
        self._clock = clock
        self._circuits: Dict[Hashable, _Circuit] = {}
        self._transitions: List[dict] = []

    # ------------------------------------------------------------------

    def _circuit(self, key: Hashable) -> _Circuit:
        circuit = self._circuits.get(key)
        if circuit is None:
            circuit = self._circuits[key] = _Circuit()
        return circuit

    def _move(
        self, key: Hashable, circuit: _Circuit, to_state: str, cause: str
    ) -> None:
        """Move *circuit* to *to_state*, logging the transition."""
        self._transitions.append(
            {
                "key": self._key_str(key),
                "from": circuit.state,
                "to": to_state,
                "cause": cause,
            }
        )
        circuit.state = to_state

    def state(self, key: Hashable) -> str:
        """The key's current state ("closed" / "open" / "half_open")."""
        return self._refresh(key, self._circuit(key)).state

    def _refresh(self, key: Hashable, circuit: _Circuit) -> _Circuit:
        if circuit.state == "open":
            cooled = self._clock() - circuit.opened_at >= self.cooldown_s
            probed_out = (
                self.cooldown_probes is not None
                and circuit.denied_since_open >= self.cooldown_probes
            )
            if cooled or probed_out:
                self._move(key, circuit, "half_open", "cooldown")
                circuit.probe_in_flight = False
        return circuit

    def allow(self, key: Hashable) -> bool:
        """May a request take this path right now?

        Closed circuits always allow.  Open circuits deny (counted as a
        short-circuit).  A half-open circuit allows exactly one probe at
        a time; its outcome decides the next state.
        """
        circuit = self._refresh(key, self._circuit(key))
        if circuit.state == "closed":
            return True
        if circuit.state == "half_open" and not circuit.probe_in_flight:
            circuit.probe_in_flight = True
            return True
        circuit.short_circuits += 1
        circuit.denied_since_open += 1
        self._observe("short_circuits")
        return False

    def record_success(self, key: Hashable) -> None:
        """A request on this path succeeded: reset the streak; a
        successful half-open probe closes the circuit."""
        circuit = self._circuit(key)
        if circuit.state != "closed":
            self._observe("resets")
            self._move(key, circuit, "closed", "reset")
        circuit.consecutive_failures = 0
        circuit.probe_in_flight = False

    def record_failure(self, key: Hashable) -> bool:
        """A request on this path failed.  Returns True when this
        failure tripped (or re-tripped) the circuit open."""
        circuit = self._refresh(key, self._circuit(key))
        circuit.consecutive_failures += 1
        circuit.probe_in_flight = False
        should_trip = (
            circuit.state == "half_open"
            or circuit.consecutive_failures >= self.failure_threshold
        )
        if should_trip and circuit.state != "open":
            self._move(key, circuit, "open", "trip")
            circuit.trips += 1
            circuit.opened_at = self._clock()
            circuit.denied_since_open = 0
            self._observe("trips")
            return True
        return False

    # ------------------------------------------------------------------

    @property
    def open_count(self) -> int:
        return sum(
            1
            for key, c in self._circuits.items()
            if self._refresh(key, c).state == "open"
        )

    @property
    def total_trips(self) -> int:
        return sum(c.trips for c in self._circuits.values())

    @property
    def total_short_circuits(self) -> int:
        return sum(c.short_circuits for c in self._circuits.values())

    def snapshot(self) -> dict:
        """JSON-shaped per-key state for the serve manifest."""
        return {
            self._key_str(key): {
                "state": self._refresh(key, circuit).state,
                "consecutive_failures": circuit.consecutive_failures,
                "trips": circuit.trips,
                "short_circuits": circuit.short_circuits,
            }
            for key, circuit in sorted(
                self._circuits.items(), key=lambda kv: self._key_str(kv[0])
            )
        }

    def transition_log(self) -> List[dict]:
        """Every state transition so far, in order: JSON-shaped dicts
        with ``key`` / ``from`` / ``to`` / ``cause`` (``trip``,
        ``cooldown``, or ``reset``)."""
        return list(self._transitions)

    @staticmethod
    def _key_str(key: Hashable) -> str:
        if isinstance(key, tuple):
            return "/".join(str(part) for part in key)
        return str(key)

    def _observe(self, event: str) -> None:
        observer = current_observer()
        if observer is not None:
            observer.metrics.counter(f"breaker.{event}").inc()
            observer.metrics.gauge("breaker.open_circuits").set(self.open_count)
