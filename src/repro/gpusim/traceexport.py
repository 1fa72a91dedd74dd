"""Lay a traversal timeline out as Chrome trace events (chrome://tracing /
Perfetto JSON).

Each kernel launch becomes a duration event on a per-kernel-name row;
transfers get their own row; iteration boundaries are instant events.
:func:`repro.obs.trace.export_combined_trace` writes these events (plus
decision and host-span tracks when given) to a file; load it at
https://ui.perfetto.dev or chrome://tracing to scrub through a
traversal's kernels visually.
"""

from __future__ import annotations

from typing import List, Optional

from repro.gpusim.timeline import Timeline

__all__ = [
    "timeline_to_trace_events",
    "iteration_start_times",
]

#: Chrome traces use microseconds
_US = 1e6


def iteration_start_times(timeline: Timeline) -> dict:
    """Map each iteration number to its start on the simulated axis
    (seconds), matching :func:`timeline_to_trace_events`' layout: the
    opening host-to-device transfers first, then the kernel stream laid
    end-to-end.  Used to place decision and fault markers from a
    :class:`~repro.core.telemetry.DecisionTrace` on the same timeline
    (:mod:`repro.obs.trace`)."""
    cursor = sum(t.seconds for t in timeline.transfers if t.direction == "h2d")
    starts = {}
    for record in timeline.kernels:
        if record.iteration not in starts:
            starts[record.iteration] = cursor
        cursor += record.cost.seconds
    return starts


def timeline_to_trace_events(
    timeline: Timeline, *, process_name: str = "simulated GPU"
) -> List[dict]:
    """Convert a :class:`Timeline` to Chrome trace-event dicts.

    Kernels are laid end-to-end on the simulated-time axis in launch
    order (the simulator prices kernels serially, which is how the
    traversal's dependent kernels execute); transfers occupy a separate
    track, placed before/after the kernel stream they bracket.
    """
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": process_name},
        },
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "kernels"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2,
         "args": {"name": "transfers"}},
    ]

    cursor = 0.0
    # Opening transfers (H2D) come first on the transfer track.
    kernel_records = timeline.kernels
    transfers = timeline.transfers
    h2d = [t for t in transfers if t.direction == "h2d"]
    d2h = [t for t in transfers if t.direction == "d2h"]

    for t in h2d:
        events.append(
            {
                "name": f"h2d {t.num_bytes}B",
                "ph": "X",
                "pid": 1,
                "tid": 2,
                "ts": cursor * _US,
                "dur": t.seconds * _US,
                "args": {"bytes": t.num_bytes},
            }
        )
        cursor += t.seconds

    last_iteration: Optional[int] = None
    for record in kernel_records:
        if record.iteration != last_iteration:
            events.append(
                {
                    "name": f"iteration {record.iteration}",
                    "ph": "i",
                    "pid": 1,
                    "tid": 1,
                    "ts": cursor * _US,
                    # Global scope: Perfetto draws the marker across every
                    # track, not just this thread's row — iteration
                    # boundaries delimit the whole traversal.
                    "s": "g",
                }
            )
            last_iteration = record.iteration
        cost = record.cost
        events.append(
            {
                "name": record.tally.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": cursor * _US,
                "dur": cost.seconds * _US,
                "args": {
                    "iteration": record.iteration,
                    "variant": record.variant or "-",
                    "blocks": record.tally.launch.grid_blocks,
                    "threads_per_block": record.tally.launch.threads_per_block,
                    "issue_us": cost.issue_seconds * _US,
                    "memory_us": cost.memory_seconds * _US,
                    "atomic_us": cost.atomic_seconds * _US,
                    "occupancy": round(cost.occupancy, 3),
                    "simt_efficiency": round(record.tally.simt_efficiency, 3),
                },
            }
        )
        cursor += cost.seconds

    for t in d2h:
        events.append(
            {
                "name": f"d2h {t.num_bytes}B",
                "ph": "X",
                "pid": 1,
                "tid": 2,
                "ts": cursor * _US,
                "dur": t.seconds * _US,
                "args": {"bytes": t.num_bytes},
            }
        )
        cursor += t.seconds

    return events

