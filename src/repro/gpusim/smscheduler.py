"""Scheduling thread-blocks onto streaming multiprocessors.

The GigaThread engine dispatches blocks to SMs as slots free up.  For a
makespan estimate we use the classic list-scheduling bound: the finish
time of greedily scheduled independent jobs on ``S`` identical machines
lies within ``[max(total/S, longest_job), total/S + longest_job]``.  We
take the lower bound plus a configurable imbalance slack — accurate for
the thousands of small blocks graph kernels launch, while still charging
a lone giant block (one hub node under block-mapping) its full serial
cost.
"""

from __future__ import annotations

from repro.gpusim.device import DeviceSpec

__all__ = ["makespan_cycles"]


def makespan_cycles(
    total: float,
    longest: float,
    device: DeviceSpec,
    *,
    imbalance_slack: float = 0.05,
) -> float:
    """Estimated cycles to drain blocks whose issue costs sum to *total*,
    the costliest of them being *longest*."""
    ideal = float(total) / device.num_sms
    return max(ideal * (1.0 + imbalance_slack), float(longest))
