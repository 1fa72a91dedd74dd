"""Computation-launch shapes, and the multi-source (batched) kernels.

:func:`launch_shape` is the one place a computation launch's shape is
built, from the :class:`RowRelaxation` rows a spec's
:meth:`~repro.engine.spec.AlgorithmSpec.relax` returns: one row for a
single-source iteration or a shard, many for a fused batch launch.

The serving layer (:mod:`repro.serve`) stacks many queries' per-query
state into one 2-D batch — one row per query over the same device-resident
graph — so one ``run_frame``-style loop serves the whole batch.  The
*functional* update of each row is exactly the single-source relaxation
(the spec's ``relax`` on the row's own frontier and value array), which
is what keeps batched answers bit-identical to single-source runs.
What changes is the *cost*: rows that run the same
variant in the same super-iteration share one fused kernel launch whose
grid covers every row's slots, so the per-launch overheads (driver
launch latency, block dispatch) are paid once per group instead of once
per query — and small frontiers stacked together supply each other's
memory-latency hiding, exactly the effect that makes batching pay on a
real GPU.

Fused pricing maps each row into its own ``num_nodes``-sized slab of a
conceptual ``rows x n`` grid (node ``v`` of row ``q`` occupies slot
``q * n + v``), so warp attribution and membership traffic scale with
the true fused launch shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelTally
from repro.kernels import costs
from repro.kernels.mapping import ComputationShape, computation_tally
from repro.kernels.variants import Variant, WorksetRepr
from repro.kernels.workset import workset_gen_tallies

__all__ = [
    "RowRelaxation",
    "launch_shape",
    "fused_computation_tally",
    "fused_workset_gen_tallies",
    "fused_readback_bytes",
]


@dataclass(frozen=True)
class RowRelaxation:
    """One row's structural profile inside a computation launch: what
    an :meth:`~repro.engine.spec.AlgorithmSpec.relax` hands the pricing."""

    #: the row's active node ids (its frontier, ascending)
    active_ids: np.ndarray
    #: work units of each active node (its outdegree; parallel to
    #: active_ids)
    degrees: np.ndarray
    #: atomic updates the launch performs (improving relaxations, or
    #: one per edge for PageRank's and k-core's scatter updates)
    improved: int
    #: elements the launch emits into the update vector
    updated_count: int


def launch_shape(
    rows: Sequence[RowRelaxation],
    num_nodes: int,
    *,
    edge_cost: float,
    weight_streams: int,
    name: str,
    guard_cost: float = 0.0,
) -> ComputationShape:
    """The structure of one computation launch over *rows*: the one
    place a computation launch's shape is built.

    The grid covers ``len(rows)`` row-slabs of ``num_nodes`` slots each;
    row *q*'s active ids are offset into slab *q* so divergence,
    membership traffic and atomic diversity reflect the stacked shape.
    A one-row launch (a single-source iteration, a shard) uses the
    row's own arrays.
    """
    if not rows:
        raise ValueError("a computation launch needs at least one row")
    if len(rows) == 1:
        active, degrees = rows[0].active_ids, rows[0].degrees
    else:
        active = np.concatenate(
            [row.active_ids + q * num_nodes for q, row in enumerate(rows)]
        )
        degrees = np.concatenate([row.degrees for row in rows])
    return ComputationShape(
        name=name,
        num_nodes=num_nodes * len(rows),
        active_ids=active,
        degrees=degrees,
        edge_cost=edge_cost,
        improved=sum(row.improved for row in rows),
        updated_count=sum(row.updated_count for row in rows),
        guard_cost=guard_cost,
        weight_streams=weight_streams,
    )


def fused_computation_tally(
    rows: Sequence[RowRelaxation],
    variant: Variant,
    tpb: int,
    num_nodes: int,
    device: DeviceSpec,
    *,
    edge_cost: float = costs.C_EDGE,
    weight_streams: int = 0,
    name: str = "batch_comp",
) -> KernelTally:
    """Price one fused multi-source computation launch
    (:func:`launch_shape` over *rows*).  Every row must run the same
    *variant* (callers group by variant)."""
    shape = launch_shape(
        rows, num_nodes, edge_cost=edge_cost, weight_streams=weight_streams,
        name=name,
    )
    return computation_tally(
        shape, variant.mapping, variant.workset, tpb, device
    )


def fused_workset_gen_tallies(
    num_nodes: int,
    updated_counts: Sequence[int],
    representation: WorksetRepr,
    device: DeviceSpec,
    *,
    scheme: str = "atomic",
    name: str = "batch_workset_gen",
    entry_bytes: int = 4,
) -> List[KernelTally]:
    """Tallies of one fused multi-source generation launch.

    One thread-mapped sweep over the stacked ``rows x n`` update matrix
    emits every row's next working set (each row's slab feeds its own
    queue counter / bitmap), replacing one generation launch per query.
    *entry_bytes* is each emitted slot's record size (the spec's
    ``workset_entry_bytes`` — 4 B for every batchable spec today, but
    honored here so slab pricing never silently assumes it).
    """
    if not updated_counts:
        return []
    return workset_gen_tallies(
        num_nodes * len(updated_counts),
        int(sum(updated_counts)),
        representation,
        device,
        scheme=scheme,
        name=name,
        entry_bytes=entry_bytes,
    )


def fused_readback_bytes(num_active_rows: int) -> int:
    """Payload of the fused per-super-iteration size readback: the 4-byte
    working-set size of every still-active row in one d2h copy (one PCIe
    latency per super-iteration instead of one per query)."""
    return 4 * max(1, int(num_active_rows))
