"""Dynamic graphs: mutation batches, a delta-CSR overlay, and priced
compaction.

The rest of the library treats a :class:`~repro.graph.csr.CSRGraph` as
frozen at ingest — kernels share read-only views, sessions key on the
content digest, manifests fingerprint the arrays.  This module is the
bridge between that immutable world and graphs that change under live
traffic:

- :class:`EdgeBatch` — a parsed batch of ``insert`` / ``delete`` /
  ``grow`` mutations, read from a JSONL stream with the same
  strict/lenient + quarantine machinery (and line-numbered
  diagnostics) as the file readers in :mod:`repro.graph.io`;
- :class:`DeltaOverlayGraph` — a base CSR plus an adjacency overlay
  for inserted edges and a deletion mask over base edges.  Node and
  edge counts are maintained on every apply; the kernels, the
  inspector and the learned policy read the compacted CSR;
- :meth:`DeltaOverlayGraph.compact` — a *priced* rebuild through the
  canonical :func:`~repro.graph.builder.from_edge_list` path (so the
  compacted CSR is array- and digest-identical to a from-scratch build
  from the mutated edge list), charging the PCIe model for the delta
  upload and the allocator for the device-side growth.  The base graph
  stays resident; only deltas ship — the update model of "Exploring
  the Limits of GPUs With Parallel Graph Algorithms" (see
  ``docs/paper-map.md``).

Mutation JSONL format (one object per line)::

    {"op": "insert", "u": 3, "v": 7, "weight": 0.5}
    {"op": "delete", "u": 1, "v": 2}
    {"op": "grow", "nodes": 4}

``weight`` is only legal on inserts into weighted graphs (defaulting
to 1.0 when omitted); ``grow`` appends isolated nodes, which later
inserts in the same batch may reference.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphError, GraphFormatError
from repro.graph.builder import from_edge_list
from repro.graph.csr import CSRGraph, WEIGHT_DTYPE
from repro.graph.io import IngestLimits, _MODES
from repro.graph.properties import sorted_unique
from repro.gpusim.device import DeviceSpec, TESLA_C2070
from repro.gpusim.transfer import TransferRecord, record_transfer
from repro.obs.context import current_observer

__all__ = [
    "MutationOp",
    "EdgeBatch",
    "MutationReport",
    "MutationDelta",
    "DeltaOverlayGraph",
    "CompactionResult",
]

#: host-side cost of one edge through the CSR rebuild (same per-edge
#: constant the CC spec charges for its host symmetrization pass)
COMPACT_SECONDS_PER_EDGE = 12e-9

_OPS = ("insert", "delete", "grow")
_FIELDS = {
    "insert": {"op", "u", "v", "weight"},
    "delete": {"op", "u", "v"},
    "grow": {"op", "nodes"},
}


@dataclass(frozen=True)
class MutationOp:
    """One parsed mutation: an edge insert/delete or a node grow."""

    op: str
    u: int = -1
    v: int = -1
    weight: Optional[float] = None
    nodes: int = 0
    #: 1-based line number in the originating stream (diagnostics)
    line: int = 0


def _op_from_doc(doc: dict, where: str, lineno: int) -> MutationOp:
    """Validate one decoded JSON object into a :class:`MutationOp`."""
    if not isinstance(doc, dict):
        raise GraphFormatError(
            f"{where}:{lineno}: mutation must be a JSON object, "
            f"got {type(doc).__name__}"
        )
    op = doc.get("op")
    if op not in _OPS:
        raise GraphFormatError(
            f"{where}:{lineno}: unknown mutation op {op!r} "
            f"(expected one of {', '.join(_OPS)})"
        )
    unknown = set(doc) - _FIELDS[op]
    if unknown:
        raise GraphFormatError(
            f"{where}:{lineno}: unknown field(s) for {op!r}: "
            f"{', '.join(sorted(unknown))}"
        )
    if op == "grow":
        nodes = doc.get("nodes")
        if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 1:
            raise GraphFormatError(
                f"{where}:{lineno}: grow needs a positive integer "
                f"'nodes', got {nodes!r}"
            )
        return MutationOp(op="grow", nodes=nodes, line=lineno)
    endpoints = []
    for key in ("u", "v"):
        value = doc.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise GraphFormatError(
                f"{where}:{lineno}: {op} needs an integer {key!r}, "
                f"got {value!r}"
            )
        endpoints.append(value)
    weight = None
    if op == "insert" and "weight" in doc:
        raw = doc["weight"]
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise GraphFormatError(
                f"{where}:{lineno}: bad edge weight {raw!r}"
            )
        weight = float(raw)
        if not np.isfinite(weight) or weight < 0:
            raise GraphFormatError(
                f"{where}:{lineno}: edge weight must be finite and "
                f"non-negative, got {raw!r}"
            )
    return MutationOp(
        op=op, u=endpoints[0], v=endpoints[1], weight=weight, line=lineno
    )


#: op kind codes of :func:`_op_columns`
_INSERT, _DELETE, _GROW = 0, 1, 2
_KIND = {"insert": _INSERT, "delete": _DELETE, "grow": _GROW}
#: why :meth:`DeltaOverlayGraph.apply` rejects an op (0: it does not),
#: and the message it raises, formatted with the op, the node count the
#: op saw and the graph's name
_OUT_OF_RANGE, _SELF_LOOP, _DUPLICATE, _WEIGHTED_INSERT, _MISSING_EDGE = 1, 2, 3, 4, 5
_REJECTIONS = {
    _OUT_OF_RANGE: (
        "node id out of range in {op.op} {op.u} -> {op.v} (graph has {nodes} nodes)"
    ),
    _SELF_LOOP: "self-loop at node {op.u} (strict mode)",
    _DUPLICATE: "duplicate edge {op.u} -> {op.v} (strict mode)",
    _WEIGHTED_INSERT: "weight on insert into unweighted graph {name!r} (strict mode)",
    _MISSING_EDGE: "cannot delete missing edge {op.u} -> {op.v}",
}


def _endpoints(values: List[int]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        # An id past int64 is out of range for any graph; clamp it so
        # the range check rejects it like any other.
        return np.array([min(max(x, -1), 1 << 62) for x in values], dtype=np.int64)


def _op_columns(ops: Tuple[MutationOp, ...]):
    """A batch as parallel arrays, one entry per op: kind code, both
    endpoints, weight (NaN when absent) and grown node count."""
    kind = np.array([_KIND[op.op] for op in ops], dtype=np.int8)
    u = _endpoints([op.u for op in ops])
    v = _endpoints([op.v for op in ops])
    weight = np.array([op.weight for op in ops], dtype=np.float64)
    grown = np.array([op.nodes for op in ops], dtype=np.int64)
    return kind, u, v, weight, grown


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``arange(lo[i], hi[i])`` for every i, concatenated."""
    size = hi - lo
    return np.arange(int(size.sum())) + np.repeat(lo - (np.cumsum(size) - size), size)


def _pair_tuples(keys: np.ndarray, n: int) -> List[Tuple[int, int]]:
    """Pair keys ``u * n + v`` as ``(u, v)`` tuples of Python ints."""
    u, v = np.divmod(keys, n)
    return list(zip(u.tolist(), v.tolist()))


@dataclass
class MutationReport:
    """What one :meth:`DeltaOverlayGraph.apply` saw, checked, repaired.

    The quarantine tallies mirror :class:`~repro.graph.io.IngestReport`:
    in lenient mode anomalous ops are dropped and counted here instead
    of raising.
    """

    path: str = ""
    mode: Optional[str] = None
    parsed_ops: int = 0
    edges_inserted: int = 0
    edges_deleted: int = 0
    nodes_added: int = 0
    self_loops_dropped: int = 0
    duplicates_collapsed: int = 0
    dangling_dropped: int = 0
    missing_deletes_dropped: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def quarantined(self) -> int:
        """Total ops dropped by lenient-mode repair."""
        return (
            self.self_loops_dropped
            + self.duplicates_collapsed
            + self.dangling_dropped
            + self.missing_deletes_dropped
        )

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "mode": self.mode,
            "parsed_ops": self.parsed_ops,
            "edges_inserted": self.edges_inserted,
            "edges_deleted": self.edges_deleted,
            "nodes_added": self.nodes_added,
            "self_loops_dropped": self.self_loops_dropped,
            "duplicates_collapsed": self.duplicates_collapsed,
            "dangling_dropped": self.dangling_dropped,
            "missing_deletes_dropped": self.missing_deletes_dropped,
            "quarantined": self.quarantined,
            "notes": list(self.notes),
        }


class EdgeBatch:
    """An ordered batch of parsed mutations against one graph version.

    Parsing (here) is separate from graph validation (in
    :meth:`DeltaOverlayGraph.apply`): a batch parses against no graph
    in particular, then validates against the exact version it lands
    on — range checks against *that* graph's node count, duplicate
    checks against *that* graph's edge set.
    """

    def __init__(self, ops: Iterable[MutationOp], *, path: str = "<batch>"):
        self.ops: Tuple[MutationOp, ...] = tuple(ops)
        self.path = path

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = {}
        for op in self.ops:
            kinds[op.op] = kinds.get(op.op, 0) + 1
        return f"EdgeBatch({kinds}, path={self.path!r})"

    # -- constructors --------------------------------------------------

    @classmethod
    def from_docs(
        cls, docs: Iterable[Tuple[int, dict]], *, path: str = "<stream>"
    ) -> "EdgeBatch":
        """Build from ``(lineno, decoded_json)`` pairs (the serve loop's
        stdin path, where JSON decoding already happened)."""
        return cls(
            (_op_from_doc(doc, path, lineno) for lineno, doc in docs),
            path=path,
        )

    @classmethod
    def from_jsonl(
        cls,
        path: Union[str, os.PathLike],
        *,
        limits: Optional[IngestLimits] = None,
    ) -> "EdgeBatch":
        """Parse a mutation JSONL file with line-numbered diagnostics."""
        from repro.graph.io import _open_text

        ops: List[MutationOp] = []
        consumed = 0
        with _open_text(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                consumed += len(raw)
                if limits is not None and limits.max_bytes is not None:
                    if consumed > limits.max_bytes:
                        from repro.errors import IngestLimitError

                        raise IngestLimitError(
                            f"{path}:{lineno}: input exceeds the "
                            f"{limits.max_bytes:,}-byte ingestion limit"
                        )
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise GraphFormatError(
                        f"{path}:{lineno}: invalid JSON ({exc.msg})"
                    ) from exc
                ops.append(_op_from_doc(doc, str(path), lineno))
                if limits is not None and limits.max_edges is not None:
                    if len(ops) > limits.max_edges:
                        from repro.errors import IngestLimitError

                        raise IngestLimitError(
                            f"{path}:{lineno}: more than "
                            f"{limits.max_edges:,} mutations "
                            "(ingestion limit)"
                        )
        return cls(ops, path=str(path))

    @classmethod
    def inserts(cls, pairs, weights=None, *, path: str = "<batch>") -> "EdgeBatch":
        """Convenience: a batch of edge inserts from ``(u, v)`` pairs."""
        ops = []
        for i, (u, v) in enumerate(pairs):
            w = None if weights is None else float(weights[i])
            ops.append(
                MutationOp(op="insert", u=int(u), v=int(v), weight=w, line=i + 1)
            )
        return cls(ops, path=path)

    @classmethod
    def deletes(cls, pairs, *, path: str = "<batch>") -> "EdgeBatch":
        """Convenience: a batch of edge deletes from ``(u, v)`` pairs."""
        return cls(
            (
                MutationOp(op="delete", u=int(u), v=int(v), line=i + 1)
                for i, (u, v) in enumerate(pairs)
            ),
            path=path,
        )


@dataclass
class MutationDelta:
    """The edges one :meth:`DeltaOverlayGraph.apply` actually changed.

    This is what the incremental engine re-seeds from: inserted-edge
    endpoints feed the warm frontier, deleted edges drive the scoped
    recompute of affected regions.
    """

    #: applied inserts, as parallel int64 arrays (post-quarantine)
    ins_src: np.ndarray
    ins_dst: np.ndarray
    ins_weight: Optional[np.ndarray]
    #: applied deletes
    del_src: np.ndarray
    del_dst: np.ndarray
    #: weights the deleted edges carried (parallel to del_src; None on
    #: unweighted graphs) — the tight-edge closure needs them
    del_weight: Optional[np.ndarray]
    nodes_added: int
    #: overlay epoch after this apply
    epoch: int
    report: MutationReport

    @property
    def num_inserts(self) -> int:
        return int(self.ins_src.size)

    @property
    def num_deletes(self) -> int:
        return int(self.del_src.size)

    def is_empty(self) -> bool:
        return not (self.num_inserts or self.num_deletes or self.nodes_added)

    def event_dict(self) -> dict:
        """Manifest-ready summary of this mutation event."""
        return {
            "epoch": self.epoch,
            "inserted": self.num_inserts,
            "deleted": self.num_deletes,
            "nodes_added": self.nodes_added,
            "quarantined": self.report.quarantined,
        }


class _Before(NamedTuple):
    """What a batch's distinct pairs hold before it is applied."""

    #: the overlay holds the edge
    in_overlay: np.ndarray
    #: live copies of the edge (duplicate base slots count one each)
    copies: np.ndarray
    #: the weight a delete removes: the minimum over the live copies
    weight: np.ndarray
    #: the base slots of the rows the pairs touch; pair i's are
    #: ``slots[lo[i]:hi[i]]``
    slots: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True)
class CompactionResult:
    """A compacted CSR plus the simulated price of producing it."""

    graph: CSRGraph
    #: host-side rebuild seconds (per-edge pass through the builder)
    host_seconds: float
    #: the delta upload (new offsets + overlay adjacency + tombstones)
    transfer: TransferRecord
    delta_bytes: int

    @property
    def seconds(self) -> float:
        return self.host_seconds + self.transfer.seconds


class DeltaOverlayGraph:
    """A base CSR plus an insert overlay and a deletion mask.

    ``num_nodes`` and ``num_edges`` reflect the *logical* mutated graph
    and are maintained on apply — no edge scan.  The kernels keep
    running on concrete CSR arrays: call
    :meth:`materialize` (unpriced, host-side oracle) or
    :meth:`compact` (priced, the serving path) to realize the logical
    graph as a canonical :class:`~repro.graph.csr.CSRGraph`.
    """

    def __init__(self, base: CSRGraph, *, name: Optional[str] = None):
        self.base = base
        self.name = name if name is not None else base.name
        self.epoch = 0
        self._added_nodes = 0
        #: deletion mask over base edge slots (lazily allocated)
        self._deleted: Optional[np.ndarray] = None
        self._deleted_count = 0
        #: overlay adjacency: (u, v) -> weight (None on unweighted base)
        self._overlay: Dict[Tuple[int, int], Optional[float]] = {}
        self.mutations_applied = 0

    # -- read interface --------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.base.num_nodes + self._added_nodes

    @property
    def num_edges(self) -> int:
        return self.base.num_edges - self._deleted_count + len(self._overlay)

    @property
    def has_weights(self) -> bool:
        return self.base.has_weights

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise GraphError(
                f"node {node} out of range for graph with {self.num_nodes} nodes"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaOverlayGraph({self.name!r}, epoch={self.epoch}, "
            f"nodes={self.num_nodes}, edges={self.num_edges}, "
            f"+{len(self._overlay)}/-{self._deleted_count})"
        )

    # -- membership ----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        """True when the *logical* graph currently contains u -> v."""
        self._check_node(u)
        self._check_node(v)
        n = self.num_nodes
        return bool(self._lookup(np.array([u * n + v]), n).copies[0] > 0)

    def _lookup(self, pairs: np.ndarray, n: int) -> _Before:
        """What each pair key ``u * n + v`` (sorted, distinct) holds now.

        Gathers each distinct base row the pairs touch once, so the
        cost follows the rows touched, not the size of the graph."""
        in_overlay = np.zeros(pairs.size, dtype=bool)
        weight = np.ones(pairs.size)
        if self._overlay:
            held = _pair_tuples(pairs, n)
            in_overlay[:] = [pair in self._overlay for pair in held]
            if self.has_weights:
                weight[in_overlay] = [
                    self._overlay[pair] for pair in compress(held, in_overlay)
                ]
        base = self.base
        pu = pairs // n
        rows = sorted_unique(pu[pu < base.num_nodes])
        slots = _ranges(base.row_offsets[rows], base.row_offsets[rows + 1])
        key = np.repeat(rows * n, base.out_degrees[rows]) + base.col_indices[slots]
        order = np.argsort(key, kind="stable")
        key, slots = key[order], slots[order]
        lo = np.searchsorted(key, pairs)
        hi = np.searchsorted(key, pairs, side="right")
        live = np.ones(slots.size, dtype=bool)
        if self._deleted is not None:
            live = ~self._deleted[slots]
        live_count = np.concatenate([[0], np.cumsum(live)])
        copies = np.where(in_overlay, 1, live_count[hi] - live_count[lo])
        if base.weights is not None:
            in_base = ~in_overlay & (copies > 0)
            slot_weight = np.where(live, base.weights[slots], np.inf)
            # The min over each slots[lo:hi]; reduceat also yields the
            # stretches between pairs, which [::2] drops.
            bounds = np.column_stack([lo[in_base], hi[in_base]]).ravel()
            weight[in_base] = np.minimum.reduceat(
                np.append(slot_weight, np.inf), bounds
            )[::2]
        return _Before(in_overlay, copies, weight, slots, lo, hi)

    # -- mutation ------------------------------------------------------

    def apply(
        self,
        batch: EdgeBatch,
        *,
        mode: Optional[str] = None,
        report: Optional[MutationReport] = None,
    ) -> MutationDelta:
        """Validate *batch* against this graph version and apply it.

        *mode* follows the readers' contract: ``None`` rejects
        out-of-range endpoints and missing deletes but tolerates
        self-loops and duplicate inserts (collapsed); ``"strict"``
        raises a line-numbered :class:`~repro.errors.GraphFormatError`
        on any anomaly; ``"lenient"`` quarantines anomalous ops and
        tallies them in the :class:`MutationReport`.

        Ops take effect in batch order, but the whole batch is checked
        before anything changes: a rejected batch raises on its first
        bad line and leaves the overlay and *report* as they were.  The
        check is array work over the batch plus one gather of each base
        row the batch touches, so its cost follows the batch, not the
        graph.
        """
        if mode not in _MODES:
            raise GraphFormatError(
                f"mutation mode must be None, 'strict' or 'lenient', got {mode!r}"
            )
        ops = batch.ops
        strict = mode == "strict"
        lenient = mode == "lenient"
        weighted = self.has_weights
        kind, u, v, weight, grown = _op_columns(ops)
        has_weight = ~np.isnan(weight)
        weight[~has_weight] = 1.0

        # Grows take effect in order: each op sees the node count left
        # by the grows before it.
        seen = self.num_nodes + np.cumsum(grown)
        n = self.num_nodes + int(grown.sum())
        insert = kind == _INSERT
        edge = kind != _GROW
        in_range = edge & (u >= 0) & (u < seen) & (v >= 0) & (v < seen)
        dangling = edge & ~in_range
        self_loop = insert & in_range & (u == v)

        # Group the ops that reach the presence check by pair, keeping
        # batch order within a pair.  (Strict mode rejects self-loops
        # and lenient mode drops them before that check.)
        at = np.flatnonzero(in_range & ~self_loop if mode is not None else in_range)
        key = u[at] * n + v[at]
        order = np.argsort(key, kind="stable")
        at, key = at[order], key[order]
        is_ins = insert[at]
        first = np.ones(at.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        group = np.cumsum(first) - 1
        pairs = key[first]
        before = self._lookup(pairs, n)

        # An op finds its edge present exactly when the previous op on
        # the pair was an insert (applied, or collapsed onto the edge
        # already there); the first op on a pair sees the edge as it was
        # before the batch.
        present = np.empty(at.size, dtype=bool)
        present[1:] = is_ins[:-1]
        present[first] = before.copies > 0
        applied_ins = is_ins & ~present
        applied_del = ~is_ins & present
        duplicate = is_ins & present
        missing = ~is_ins & ~present
        ignored_weight = applied_ins & has_weight[at] & (not weighted)

        reason = np.zeros(len(ops), dtype=np.int8)
        if strict:
            reason[self_loop] = _SELF_LOOP
            reason[at[duplicate]] = _DUPLICATE
            reason[at[ignored_weight]] = _WEIGHTED_INSERT
        if not lenient:
            reason[dangling] = _OUT_OF_RANGE
            reason[at[missing]] = _MISSING_EDGE
        bad = np.flatnonzero(reason)
        if bad.size:
            i = int(bad[0])
            message = _REJECTIONS[int(reason[i])].format(
                op=ops[i], nodes=int(seen[i]), name=self.name
            )
            raise GraphFormatError(f"{batch.path}:{ops[i].line}: {message}")

        # The edge a delete removes is the pair's latest applied insert
        # in this batch ("fresh"), else the edge it had before.
        pos = np.arange(at.size)
        last_ins = np.maximum.accumulate(np.where(applied_ins, pos, -1))
        fresh = last_ins >= pos[first][group]
        live_weight = np.where(fresh, weight[at][last_ins], before.weight[group])

        # Commit, per pair: a delete that finds no fresh insert removes
        # the edge the pair had before, and a pair whose last op is a
        # fresh insert ends in the overlay (in batch order, as if each
        # insert had been added in turn).
        removed = np.zeros(pairs.size, dtype=bool)
        removed[group[applied_del & ~fresh]] = True
        last_op = np.ones(at.size, dtype=bool)
        last_op[:-1] = first[1:]
        ends_fresh = last_op & is_ins & fresh
        fresh_at = at[last_ins[ends_fresh]]
        by_line = np.argsort(fresh_at)
        added = n - self.num_nodes
        self._added_nodes += added
        for pair in _pair_tuples(pairs[removed & before.in_overlay], n):
            del self._overlay[pair]
        gone = removed & ~before.in_overlay
        tomb = before.slots[_ranges(before.lo[gone], before.hi[gone])]
        if tomb.size:
            if self._deleted is None:
                self._deleted = np.zeros(self.base.num_edges, dtype=bool)
            tomb = tomb[~self._deleted[tomb]]
            self._deleted[tomb] = True
            self._deleted_count += int(tomb.size)
        self._overlay.update(
            zip(
                _pair_tuples(pairs[group[ends_fresh]][by_line], n),
                weight[fresh_at][by_line].tolist() if weighted else repeat(None),
            )
        )

        ins_at = np.sort(at[applied_ins])
        del_order = np.argsort(at[applied_del])
        del_at = at[applied_del][del_order]
        rep = report if report is not None else MutationReport()
        rep.path = batch.path
        rep.mode = mode
        rep.parsed_ops += len(ops)
        rep.edges_inserted += int(ins_at.size)
        rep.edges_deleted += int(del_at.size)
        rep.nodes_added += added
        rep.duplicates_collapsed += int(duplicate.sum())
        if lenient:
            rep.self_loops_dropped += int(self_loop.sum())
            rep.dangling_dropped += int(dangling.sum())
            rep.missing_deletes_dropped += int(missing.sum())
        rep.notes.extend(
            f"line {ops[i].line}: weight ignored (graph is unweighted)"
            for i in np.sort(at[ignored_weight]).tolist()
        )

        self.epoch += 1
        self.mutations_applied += 1
        self._observe(rep, added)
        return MutationDelta(
            ins_src=u[ins_at],
            ins_dst=v[ins_at],
            ins_weight=weight[ins_at] if weighted else None,
            del_src=u[del_at],
            del_dst=v[del_at],
            del_weight=live_weight[applied_del][del_order] if weighted else None,
            nodes_added=added,
            epoch=self.epoch,
            report=rep,
        )

    def _observe(self, rep: MutationReport, nodes_added: int) -> None:
        observer = current_observer()
        if observer is None:
            return
        metrics = observer.metrics
        metrics.counter("dynamic.mutations_applied").inc()
        metrics.counter("dynamic.edges_inserted").inc(rep.edges_inserted)
        metrics.counter("dynamic.edges_deleted").inc(rep.edges_deleted)
        if nodes_added:
            metrics.counter("dynamic.nodes_added").inc(nodes_added)
        if rep.quarantined:
            metrics.counter("dynamic.ops_quarantined").inc(rep.quarantined)
        metrics.gauge("dynamic.epoch").set(self.epoch)

    # -- realization ---------------------------------------------------

    def edge_arrays(self):
        """The logical graph's edge list: surviving base edges (in base
        order) followed by overlay inserts (in insertion order)."""
        n_base = self.base.num_nodes
        src = np.repeat(np.arange(n_base, dtype=np.int64), self.base.out_degrees)
        dst = self.base.col_indices.astype(np.int64)
        w = (
            self.base.weights.astype(WEIGHT_DTYPE)
            if self.base.weights is not None
            else None
        )
        if self._deleted is not None:
            keep = ~self._deleted
            src, dst = src[keep], dst[keep]
            if w is not None:
                w = w[keep]
        if self._overlay:
            o_src = np.fromiter(
                (u for u, _ in self._overlay), dtype=np.int64, count=len(self._overlay)
            )
            o_dst = np.fromiter(
                (v for _, v in self._overlay), dtype=np.int64, count=len(self._overlay)
            )
            src = np.concatenate([src, o_src])
            dst = np.concatenate([dst, o_dst])
            if w is not None:
                o_w = np.fromiter(
                    (wt for wt in self._overlay.values()),
                    dtype=WEIGHT_DTYPE,
                    count=len(self._overlay),
                )
                w = np.concatenate([w, o_w])
        return src, dst, w

    def materialize(self, *, name: Optional[str] = None) -> CSRGraph:
        """Realize the logical graph as a canonical CSR (unpriced).

        Goes through :func:`~repro.graph.builder.from_edge_list`, so
        the result is array- and digest-identical to a from-scratch
        build from the mutated edge list."""
        src, dst, w = self.edge_arrays()
        return from_edge_list(
            src,
            dst,
            w,
            num_nodes=self.num_nodes,
            name=name if name is not None else self.name,
        )

    def delta_bytes(self) -> int:
        """Bytes the compaction ships over PCIe: the rewritten node
        vector, the overlay adjacency (+weights), and one tombstone
        index per deleted base slot.  The base edge vector stays
        resident."""
        ins = len(self._overlay)
        per_insert = 4 + (4 if self.has_weights else 0)
        return (self.num_nodes + 1) * 8 + ins * per_insert + self._deleted_count * 4

    def compact(
        self,
        *,
        device: DeviceSpec = TESLA_C2070,
        memory=None,
        name: Optional[str] = None,
    ) -> CompactionResult:
        """Rebuild the CSR through the canonical builder and price it.

        Host side: one per-edge pass through the builder's sort.
        Device side: the delta upload of :meth:`delta_bytes` over PCIe
        (the base graph is already resident), charged against *memory*
        (a :class:`~repro.gpusim.allocator.MemoryBudget`) as growth in
        the resident ``graph`` category when the compacted CSR is
        larger than the base.  Non-mutating: callers re-wrap the
        returned graph in a fresh overlay to keep mutating.
        """
        graph = self.materialize(name=name)
        delta = self.delta_bytes()
        if memory is not None:
            growth = graph.device_bytes() - self.base.device_bytes()
            if growth > 0:
                memory.allocate(
                    growth, "graph", label=f"delta compaction of {self.name!r}"
                )
        transfer = record_transfer("h2d", delta, device)
        host_seconds = graph.num_edges * COMPACT_SECONDS_PER_EDGE
        observer = current_observer()
        if observer is not None:
            observer.metrics.counter("dynamic.compactions").inc()
            observer.metrics.counter("dynamic.compaction_bytes").inc(delta)
        return CompactionResult(
            graph=graph,
            host_seconds=host_seconds,
            transfer=transfer,
            delta_bytes=delta,
        )
