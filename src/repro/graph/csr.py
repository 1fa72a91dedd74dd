"""Compressed-sparse-row graph representation.

This mirrors the paper's storage scheme (Section V.A, Figure 7): a *node
vector* (``row_offsets``, length ``n + 1``) indexing into an *edge vector*
(``col_indices``, length ``m``), with an optional parallel ``weights``
array for SSSP.  The i-th adjacency list is
``col_indices[row_offsets[i]:row_offsets[i + 1]]``.

The structure is immutable after construction: arrays are stored with
``writeable=False`` so kernels can safely share views, exactly like the
read-only graph arrays resident in GPU global memory in the original
system.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.errors import GraphError

__all__ = ["CSRGraph"]

# Index dtype used on the simulated device; 32-bit like the CUDA original,
# which is what the memory-transaction model assumes for coalescing math.
INDEX_DTYPE = np.int32
OFFSET_DTYPE = np.int64
WEIGHT_DTYPE = np.float32


class CSRGraph:
    """An immutable directed graph in CSR form.

    Parameters
    ----------
    row_offsets:
        ``int64`` array of length ``num_nodes + 1``; monotonically
        non-decreasing, ``row_offsets[0] == 0`` and
        ``row_offsets[-1] == num_edges``.
    col_indices:
        ``int32`` array of neighbor node ids, length ``num_edges``.
    weights:
        Optional ``float32`` array parallel to ``col_indices``.  Required
        by SSSP; BFS ignores it.
    name:
        Optional label used in reports.
    validate:
        When true (default) the arrays are checked for structural
        consistency; disable only for trusted, hot construction paths.
    """

    __slots__ = (
        "_row_offsets", "_col_indices", "_weights", "name", "_out_degrees",
        "_digest", "_reverse", "_partitions",
    )

    def __init__(
        self,
        row_offsets,
        col_indices,
        weights=None,
        *,
        name: str = "graph",
        validate: bool = True,
    ):
        row_offsets = np.ascontiguousarray(row_offsets, dtype=OFFSET_DTYPE)
        col_indices = np.ascontiguousarray(col_indices, dtype=INDEX_DTYPE)
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=WEIGHT_DTYPE)

        if validate:
            self._validate(row_offsets, col_indices, weights)

        for arr in (row_offsets, col_indices, weights):
            if arr is not None:
                arr.setflags(write=False)

        self._row_offsets = row_offsets
        self._col_indices = col_indices
        self._weights = weights
        self.name = name
        self._out_degrees: Optional[np.ndarray] = None
        self._digest: Optional[str] = None
        self._reverse: Optional[CSRGraph] = None
        #: shards per ``(num_shards, strategy)``, kept by
        #: :func:`repro.graph.partition.partition_graph`
        self._partitions: dict = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _validate(row_offsets, col_indices, weights) -> None:
        if row_offsets.ndim != 1 or row_offsets.size < 1:
            raise GraphError("row_offsets must be a 1-D array of length >= 1")
        if col_indices.ndim != 1:
            raise GraphError("col_indices must be a 1-D array")
        if row_offsets[0] != 0:
            raise GraphError(f"row_offsets[0] must be 0, got {row_offsets[0]}")
        if row_offsets[-1] != col_indices.size:
            raise GraphError(
                f"row_offsets[-1] ({row_offsets[-1]}) must equal "
                f"len(col_indices) ({col_indices.size})"
            )
        if np.any(np.diff(row_offsets) < 0):
            raise GraphError("row_offsets must be non-decreasing")
        n = row_offsets.size - 1
        if col_indices.size:
            lo = col_indices.min()
            hi = col_indices.max()
            if lo < 0 or hi >= n:
                raise GraphError(
                    f"col_indices out of range: [{lo}, {hi}] not within [0, {n - 1}]"
                )
        if weights is not None:
            if weights.shape != col_indices.shape:
                raise GraphError(
                    f"weights shape {weights.shape} must match "
                    f"col_indices shape {col_indices.shape}"
                )
            if not np.all(np.isfinite(weights)):
                raise GraphError("weights must be finite")
            if np.any(weights < 0):
                raise GraphError("negative edge weights are not supported")

    @classmethod
    def empty(cls, num_nodes: int, *, name: str = "empty") -> "CSRGraph":
        """A graph with *num_nodes* nodes and no edges."""
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be >= 0, got {num_nodes}")
        return cls(
            np.zeros(num_nodes + 1, dtype=OFFSET_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            name=name,
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def row_offsets(self) -> np.ndarray:
        """The node vector (read-only view)."""
        return self._row_offsets

    @property
    def col_indices(self) -> np.ndarray:
        """The edge vector (read-only view)."""
        return self._col_indices

    @property
    def weights(self) -> Optional[np.ndarray]:
        """Edge weights parallel to :attr:`col_indices`, or ``None``."""
        return self._weights

    @property
    def num_nodes(self) -> int:
        return self._row_offsets.size - 1

    @property
    def num_edges(self) -> int:
        return self._col_indices.size

    @property
    def has_weights(self) -> bool:
        return self._weights is not None

    @property
    def out_degrees(self) -> np.ndarray:
        """Outdegree of every node (cached, read-only)."""
        if self._out_degrees is None:
            deg = np.diff(self._row_offsets).astype(np.int64)
            deg.setflags(write=False)
            self._out_degrees = deg
        return self._out_degrees

    @property
    def avg_out_degree(self) -> float:
        if self.num_nodes == 0:
            return 0.0
        return self.num_edges / self.num_nodes

    def neighbors(self, node: int) -> np.ndarray:
        """Read-only view of *node*'s adjacency list."""
        self._check_node(node)
        lo = self._row_offsets[node]
        hi = self._row_offsets[node + 1]
        return self._col_indices[lo:hi]

    def edge_weights_of(self, node: int) -> np.ndarray:
        """Weights parallel to :meth:`neighbors` for *node*."""
        if self._weights is None:
            raise GraphError(f"graph {self.name!r} has no edge weights")
        self._check_node(node)
        lo = self._row_offsets[node]
        hi = self._row_offsets[node + 1]
        return self._weights[lo:hi]

    def out_degree(self, node: int) -> int:
        self._check_node(node)
        return int(self._row_offsets[node + 1] - self._row_offsets[node])

    def _content_digest(self) -> str:
        """blake2b digest of the CSR arrays (row offsets, column indices,
        weights), hashed on first use and kept: the arrays are read-only.

        Run manifests fingerprint graphs by it and session caches key
        them by it.
        """
        if self._digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(self._row_offsets)
            h.update(self._col_indices)
            if self._weights is not None:
                h.update(self._weights)
            self._digest = h.hexdigest()
        return self._digest

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise GraphError(
                f"node {node} out of range for graph with {self.num_nodes} nodes"
            )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def with_weights(self, weights) -> "CSRGraph":
        """Return a copy of this graph carrying the given edge weights."""
        return CSRGraph(
            self._row_offsets.copy(),
            self._col_indices.copy(),
            np.asarray(weights, dtype=WEIGHT_DTYPE).copy(),
            name=self.name,
        )

    def with_unit_weights(self) -> "CSRGraph":
        """Return a copy whose every edge weight is 1.0 (BFS == SSSP check)."""
        return self.with_weights(np.ones(self.num_edges, dtype=WEIGHT_DTYPE))

    def reverse(self) -> "CSRGraph":
        """The transpose graph (every edge u->v becomes v->u), built on
        first use and kept: the arrays are read-only.

        Each in-row lists its sources in edge order: the edges are
        ordered by a stable sort of their destinations, done as two
        stable argsorts of the destinations' 16-bit halves, low half
        first.  NumPy radix-sorts 16-bit keys, so this is a two-pass
        LSD radix sort with no comparison sort and no key that can
        overflow.
        """
        if self._reverse is None:
            n = self.num_nodes
            src = np.repeat(np.arange(n, dtype=INDEX_DTYPE), self.out_degrees)
            dst = self._col_indices
            order = np.argsort((dst & 0xFFFF).astype(np.uint16), kind="stable")
            high = (dst >> 16).astype(np.uint16)[order]
            order = order[np.argsort(high, kind="stable")]
            new_cols = src[order]
            counts = np.bincount(dst, minlength=n)
            new_offsets = np.zeros(n + 1, dtype=OFFSET_DTYPE)
            np.cumsum(counts, out=new_offsets[1:])
            new_weights = self._weights[order] if self._weights is not None else None
            self._reverse = CSRGraph(
                new_offsets, new_cols, new_weights, name=f"{self.name}^T", validate=False
            )
        return self._reverse

    # ------------------------------------------------------------------
    # Device footprint (used by the PCIe-transfer model)
    # ------------------------------------------------------------------

    def device_bytes(self) -> int:
        """Bytes the CSR arrays occupy in simulated GPU global memory."""
        total = self._row_offsets.nbytes + self._col_indices.nbytes
        if self._weights is not None:
            total += self._weights.nbytes
        return int(total)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        w = ", weighted" if self.has_weights else ""
        return (
            f"CSRGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}{w})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if self.num_nodes != other.num_nodes or self.num_edges != other.num_edges:
            return False
        if not np.array_equal(self._row_offsets, other._row_offsets):
            return False
        if not np.array_equal(self._col_indices, other._col_indices):
            return False
        if (self._weights is None) != (other._weights is None):
            return False
        if self._weights is not None and not np.array_equal(
            self._weights, other._weights
        ):
            return False
        return True

    def __hash__(self):  # immutable but large; identity hash is fine
        return id(self)
