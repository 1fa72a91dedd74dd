"""The observer: one object bundling a run's metrics and spans.

An :class:`Observer` is what you install with
:func:`~repro.obs.observing`; instrumented code throughout the stack
reports into its :class:`~repro.obs.MetricsRegistry` and
:class:`~repro.obs.SpanProfiler` while it is current.  After the run it is the raw material for a
:class:`~repro.obs.RunManifest` and for the combined Perfetto trace.

>>> from repro.obs import Observer
>>> obs = Observer()
>>> with obs.span("inspect"):
...     obs.metrics.counter("frame.iterations").inc()
>>> obs.metrics.snapshot()["frame.iterations"]["value"]
1
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanProfiler

__all__ = ["Observer"]


class Observer:
    """Collects one run's observability: metrics + spans.

    The object is cheap to create and carries no global state; install
    it with :func:`~repro.obs.observing` to make it current for the
    runs inside the ``with`` block.
    """

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.spans = SpanProfiler()

    def span(self, name: str, **attrs):
        """Open a nestable profiling span (see :class:`SpanProfiler`)."""
        return self.spans.span(name, **attrs)

    def to_dict(self) -> dict:
        """Snapshot of everything collected so far (manifest form)."""
        return {
            "metrics": self.metrics.snapshot(),
            "spans": self.spans.to_dicts(),
        }

    def __repr__(self) -> str:
        return (
            f"Observer(metrics={len(self.metrics)}, "
            f"spans={len(self.spans.spans)})"
        )
