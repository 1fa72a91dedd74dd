"""Global-memory transaction model.

Fermi global memory is accessed in 128-byte transactions; a warp's 32
accesses collapse into a handful of transactions when they fall into few
128-byte segments (coalescing) and into up to 32 transactions when
scattered (Section III.C of the paper).  This module counts the
transactions of streamed adjacency segments; the scattered state
accesses are priced where the tallies are built
(``SCATTER_FRACTION`` / ``THREAD_ADJ_FRACTION`` in
:mod:`repro.kernels.mapping`).  The cost model converts transaction
counts into cycles via the device bandwidth (:func:`bandwidth_cycles`).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec

__all__ = [
    "segment_stream_transactions",
    "bandwidth_cycles",
    "traversal_state_bytes",
    "workset_device_bytes",
]


def segment_stream_transactions(
    segment_lengths, element_bytes: int, device: DeviceSpec
) -> float:
    """Transactions for streaming variable-length contiguous segments.

    An adjacency list of ``deg`` neighbors occupies ``deg*element_bytes``
    contiguous bytes but starts at an arbitrary offset, so it costs
    ``ceil(deg*eb / tb) + 1`` transactions in the worst alignment; the
    ``+1``/2 average misalignment is modelled as ``+0.5``.  Accepts an
    array of segment lengths and returns the summed transaction count.
    """
    lengths = np.asarray(segment_lengths, dtype=np.float64)
    if lengths.size == 0:
        return 0.0
    per_segment = np.ceil(lengths * element_bytes / device.transaction_bytes)
    nonzero = lengths > 0
    return float(per_segment[nonzero].sum() + 0.5 * nonzero.sum())


def bandwidth_cycles(transactions: float, device: DeviceSpec) -> float:
    """Core cycles to move *transactions* 128-byte transactions at the
    device's peak bandwidth (the bandwidth-bound lower limit)."""
    bytes_total = float(transactions) * device.transaction_bytes
    return bytes_total / device.bytes_per_cycle


# ----------------------------------------------------------------------
# Device footprints (used by the memory budget, repro.gpusim.allocator)
# ----------------------------------------------------------------------

def traversal_state_bytes(num_nodes: int) -> int:
    """Resident traversal state: a 4-byte value (level/distance slot)
    plus a 1-byte update flag per node.  Working sets and checkpoint
    staging are charged separately — unlike these arrays, their
    footprint varies per iteration."""
    if num_nodes < 0:
        raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
    return 5 * int(num_nodes)


def workset_device_bytes(
    representation, workset_size: int, num_nodes: int, *, entry_bytes: int = 4
) -> int:
    """Device bytes one materialized working set occupies.

    The bitmap is a fixed ``ceil(n / 8)`` regardless of how full it is;
    a queue grows with the frontier at *entry_bytes* per element (4 for
    plain node ids, 8 for the ordered frame's (node, key) pairs).  This
    asymmetry is the paper's memory axis of variant selection: on large
    frontiers the queue can dwarf the bitmap and decide whether the
    traversal fits on the device at all.

    *representation* is a :class:`~repro.kernels.variants.WorksetRepr`
    or its string value (``"BM"`` / ``"QU"``); duck-typed here to keep
    :mod:`repro.gpusim` free of kernel-layer imports.
    """
    code = getattr(representation, "value", representation)
    if code in ("BM", "bitmap"):
        return (int(num_nodes) + 7) // 8
    if code in ("QU", "queue"):
        return int(workset_size) * int(entry_bytes)
    raise ValueError(f"unknown workset representation {representation!r}")
