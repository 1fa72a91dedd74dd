"""The current-observer context: how instrumented code finds the observer.

Observability must cost nothing when nobody is watching.  Instead of
threading an observer object through every call signature in the stack,
instrumented sites (the traversal frame, the launch validator, the
allocator, the guard) ask this module for the *currently installed*
observer and do nothing when there is none — a single ``is None`` test,
which is what keeps the disabled-observability overhead at ~0 %
(``benchmarks/bench_observability_overhead.py`` guards this).

The module deliberately imports nothing from the rest of :mod:`repro`
so every layer — :mod:`repro.gpusim` included — can depend on it
without cycles.

>>> from repro.obs import Observer, current_observer, observing
>>> current_observer() is None
True
>>> with observing(Observer()) as obs:
...     current_observer() is obs
True
>>> current_observer() is None
True
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

__all__ = ["current_observer", "observing"]

#: the process-wide installed observer (None = observability off)
_observer = None


def current_observer():
    """The installed :class:`~repro.obs.Observer`, or ``None`` when
    observability is off (the default)."""
    return _observer


@contextlib.contextmanager
def observing(observer) -> Iterator[Optional[object]]:
    """Install *observer* for the scope of the ``with`` block.

    Nested installs restore the outer observer on exit, so a guarded
    retry loop can observe each attempt under the caller's observer.
    ``observing(None)`` is a no-op scope (convenient for callers whose
    observer is optional, like ``repro run`` without ``--manifest``).
    """
    global _observer
    previous = _observer
    if observer is not None:
        _observer = observer
    try:
        yield observer
    finally:
        _observer = previous
