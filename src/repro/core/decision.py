"""The decision maker (Sections VI.B-VI.D and Figure 11).

The decision space is two-dimensional — working-set size on the x-axis,
average outdegree on the y-axis — split into regions by three thresholds:

- left of **T2** (tiny working sets): always ``B_QU``; thread mapping
  cannot fill the SMs, and a bitmap would launch mostly-idle threads;
- between **T2** and **T3**: queue representation; mapping chosen by
  **T1** (thread if the average outdegree is below the warp size — else
  block, which needs >= a warp of neighbors per element to pay off);
- right of **T3** (large working sets): bitmap representation (queue
  generation atomics now cost more than the bitmap's wasted threads);
  mapping again chosen by T1.

Only unordered variants are selected: "our adaptive framework uses only
unordered versions of SSSP and BFS" (Section VI.A).

:meth:`DecisionMaker.decide` makes that lookup once per decision and
returns the variant with its region label.  :func:`pressure_override`
then applies the one memory-pressure rule that both the threshold and
the learned policy share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import RuntimeConfigError
from repro.kernels.variants import Mapping, Ordering, Variant, WorksetRepr

__all__ = [
    "PRESSURE_THRESHOLD",
    "Thresholds",
    "DecisionMaker",
    "check_inputs",
    "pressure_override",
]

#: device-memory pressure (used / capacity) at or above which a decision
#: turns footprint-minimal (:func:`pressure_override`)
PRESSURE_THRESHOLD = 0.85


@dataclass(frozen=True)
class Thresholds:
    """Resolved absolute thresholds for one (graph, device) pair.

    ``t1_low`` only matters in the extended (virtual-warp) decision
    space: average outdegrees in ``[t1_low, t1)`` map to warp mapping.
    """

    t1: float
    t2: int
    t3: int
    t1_low: float = 4.0

    def __post_init__(self):
        if not math.isfinite(self.t1) or self.t1 <= 0:
            raise RuntimeConfigError(f"T1 must be finite and > 0, got {self.t1}")
        if self.t2 < 0 or self.t3 < 0:
            raise RuntimeConfigError("T2 and T3 must be >= 0")
        if not 0 < self.t1_low <= self.t1:
            raise RuntimeConfigError(
                f"t1_low must be in (0, T1]; got {self.t1_low} with T1={self.t1}"
            )

    def resolved(self) -> "Thresholds":
        """Clamp ``T3 >= T2`` so the Figure-11 regions stay ordered.

        On tiny graphs the T3 fraction of ``num_nodes`` can resolve
        below T2, inverting the mid/large working-set regions (a size in
        ``[T3, T2)`` would read as both "small" and "large").  Clamping
        changes no decision outcome — the T3 comparison is only reached
        when ``size >= T2``, where a clamped ``T3 == T2`` still selects
        the bitmap — but keeps the region labels and any downstream
        consumer of the thresholds consistent with the paper's picture.
        """
        if self.t3 >= self.t2:
            return self
        return Thresholds(
            t1=self.t1, t2=self.t2, t3=self.t2, t1_low=self.t1_low
        )


def check_inputs(workset_size: int, avg_out_degree: float) -> None:
    """Reject inputs outside the decision space's domain.

    A NaN average outdegree would silently fall through every threshold
    comparison into the thread-mapped region; fail loudly instead.  A
    zero average outdegree is valid input (an all-zero-outdegree working
    set) and lands in the thread-mapped region by design — below any
    sensible T1.
    """
    if workset_size < 0:
        raise RuntimeConfigError(f"workset_size must be >= 0, got {workset_size}")
    if not math.isfinite(avg_out_degree) or avg_out_degree < 0:
        raise RuntimeConfigError(
            f"avg_out_degree must be finite and >= 0, got {avg_out_degree}"
        )


_DEGREE_PART = {
    Mapping.THREAD: "low-degree",
    Mapping.WARP: "mid-degree",
    Mapping.BLOCK: "high-degree",
}


class DecisionMaker:
    """Maps (working-set size, average outdegree) to a variant.

    With ``use_warp_mapping`` (an extension beyond the paper's space)
    the mid/high-degree band splits in two: degrees in ``[t1_low, t1)``
    select the virtual-warp mapping, which parallelizes each element's
    neighborhood without dedicating a whole block to it.
    """

    def __init__(self, thresholds: Thresholds, *, use_warp_mapping: bool = False):
        self.thresholds = thresholds
        self.use_warp_mapping = bool(use_warp_mapping)

    def decide(self, workset_size: int, avg_out_degree: float) -> Tuple[Variant, str]:
        """The Figure-11 region lookup: the variant and its region label
        (telemetry / debugging)."""
        check_inputs(workset_size, avg_out_degree)
        t = self.thresholds
        if workset_size < t.t2:
            mapping, workset = Mapping.BLOCK, WorksetRepr.QUEUE
            return Variant(Ordering.UNORDERED, mapping, workset), "small-ws"
        if avg_out_degree >= t.t1:
            mapping = Mapping.BLOCK
        elif self.use_warp_mapping and avg_out_degree >= t.t1_low:
            mapping = Mapping.WARP
        else:
            mapping = Mapping.THREAD
        if workset_size < t.t3:
            workset, size_part = WorksetRepr.QUEUE, "mid-ws"
        else:
            workset, size_part = WorksetRepr.BITMAP, "large-ws"
        return (
            Variant(Ordering.UNORDERED, mapping, workset),
            f"{size_part}/{_DEGREE_PART[mapping]}",
        )


def pressure_override(
    variant: Variant,
    region: str,
    workset_size: int,
    num_nodes: int,
    memory_pressure: float,
) -> Tuple[Variant, str]:
    """Memory awareness (beyond Figure 11): the decision under pressure.

    Below :data:`PRESSURE_THRESHOLD` the pick and its label pass through.
    At or above it the pick turns footprint-minimal — the representation
    with fewer device bytes (the fixed ``|V|/8`` bitmap unless the queue
    is genuinely smaller) and thread mapping in place of block mapping
    (whose blocks hold per-block neighbor-staging buffers) — and the
    label gains ``/mem-pressure``.  Verstraaten et al. and Hong et al.
    both treat footprint as a first-class selection axis; this is that
    axis grafted onto whichever decision maker made the pick.
    """
    if memory_pressure < PRESSURE_THRESHOLD:
        return variant, region
    queue_bytes = 4 * workset_size
    bitmap_bytes = (num_nodes + 7) // 8
    workset = WorksetRepr.QUEUE if queue_bytes < bitmap_bytes else WorksetRepr.BITMAP
    mapping = Mapping.THREAD if variant.mapping is Mapping.BLOCK else variant.mapping
    return Variant(variant.ordering, mapping, workset), region + "/mem-pressure"
