"""Merge kernels, decisions, faults and profiler spans into one
Perfetto timeline.

:mod:`repro.gpusim.traceexport` renders a traversal's kernel and
transfer stream; this module adds the *why* on extra tracks of the same
process: every decision-maker invocation (track ``decisions``), every
fault event and recovery action (track ``faults``), and the span
profiler's regions (track ``spans``).  Load the exported JSON at
https://ui.perfetto.dev and the whole story — which kernel ran, which
decision picked it, which fault interrupted it, which OOM rung answered
— scrubs on one simulated-time axis.

>>> from repro.core import adaptive_run
>>> from repro.graph.generators import balanced_tree
>>> from repro.obs.trace import combined_trace_events
>>> result = adaptive_run(balanced_tree(2, 6), "bfs", 0)
>>> events = combined_trace_events(result.timeline, trace=result.trace)
>>> any(e.get("tid") == TID_DECISIONS for e in events)
True
"""

from __future__ import annotations

import json
import os
from typing import List, Union

from repro.gpusim.timeline import Timeline
from repro.gpusim.traceexport import iteration_start_times, timeline_to_trace_events

__all__ = [
    "TID_DECISIONS",
    "TID_FAULTS",
    "TID_SPANS",
    "combined_trace_events",
    "export_combined_trace",
]

_US = 1e6

#: thread rows added next to the exporter's kernels (1) / transfers (2)
TID_DECISIONS = 3
TID_FAULTS = 4
TID_SPANS = 5


def _thread_meta(tid: int, name: str) -> dict:
    return {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": name}}


def _decision_events(trace, starts: dict, fallback_ts: float) -> List[dict]:
    events = []
    for d in trace.decisions:
        ts = starts.get(d.iteration, fallback_ts)
        events.append(
            {
                "name": f"decide {d.variant}",
                "ph": "i",
                "pid": 1,
                "tid": TID_DECISIONS,
                "ts": ts * _US,
                "s": "t",
                "args": {
                    "iteration": d.iteration,
                    "workset_size": d.workset_size,
                    "avg_out_degree": round(d.avg_out_degree, 3),
                    "region": d.region,
                    "switched": d.switched,
                    "memory_pressure": round(d.memory_pressure, 4),
                    "forced_by_memory": d.forced_by_memory,
                },
            }
        )
    return events


def _fault_events(trace, starts: dict) -> List[dict]:
    events = []
    for f in trace.faults:
        ts = starts.get(f.iteration, 0.0)
        events.append(
            {
                "name": f"{f.kind} -> {f.action}",
                "ph": "i",
                "pid": 1,
                "tid": TID_FAULTS,
                # Global scope: a fault and its recovery rung cut across
                # every track, like iteration boundaries do.
                "s": "g",
                "ts": ts * _US,
                "args": {
                    "attempt": f.attempt,
                    "iteration": f.iteration,
                    "site": f.site,
                    "action": f.action,
                    "detail": f.detail,
                },
            }
        )
    return events


def _span_events(profiler) -> List[dict]:
    events = []
    for span in profiler.spans:
        args = {"depth": span.depth, "wall_us": span.wall_seconds * _US}
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": TID_SPANS,
                "ts": span.sim_start * _US,
                "dur": span.sim_seconds * _US,
                "args": args,
            }
        )
    return events


def combined_trace_events(
    timeline: Timeline,
    *,
    trace=None,
    observer=None,
    process_name: str = "simulated GPU",
) -> List[dict]:
    """Chrome trace-event dicts for kernels + decisions + faults + spans.

    *trace* is a :class:`~repro.core.telemetry.DecisionTrace` (decision
    and fault markers); *observer* a :class:`~repro.obs.Observer` (span
    track).  Either may be ``None``, degrading gracefully to the plain
    kernel/transfer timeline.
    """
    events = timeline_to_trace_events(timeline, process_name=process_name)
    starts = iteration_start_times(timeline)
    end_ts = max(
        (e["ts"] + e.get("dur", 0.0) for e in events if "ts" in e), default=0.0
    ) / _US
    if trace is not None and trace.decisions:
        events.append(_thread_meta(TID_DECISIONS, "decisions"))
        events.extend(_decision_events(trace, starts, end_ts))
    if trace is not None and trace.faults:
        events.append(_thread_meta(TID_FAULTS, "faults"))
        events.extend(_fault_events(trace, starts))
    if observer is not None and observer.spans.spans:
        events.append(_thread_meta(TID_SPANS, "spans"))
        events.extend(_span_events(observer.spans))
    return events


def export_combined_trace(
    timeline: Timeline,
    path: Union[str, os.PathLike],
    *,
    trace=None,
    observer=None,
    process_name: str = "simulated GPU",
) -> str:
    """Write the combined Perfetto trace JSON; returns the path."""
    events = combined_trace_events(
        timeline, trace=trace, observer=observer, process_name=process_name
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return str(path)
