"""Histogram helpers.

These back the dataset characterization (Table 1 of the paper) and the
outdegree-distribution figures (Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "Histogram",
    "degree_histogram_bins",
]


@dataclass(frozen=True)
class Histogram:
    """A histogram with explicit integer-friendly bin edges.

    ``edges`` has ``len(counts) + 1`` entries; bin *i* covers
    ``[edges[i], edges[i+1])`` except the last bin which is closed.
    ``fractions`` are counts normalised by the total.
    """

    edges: Tuple[float, ...]
    counts: Tuple[int, ...]

    @property
    def total(self) -> int:
        return int(sum(self.counts))

    @property
    def fractions(self) -> Tuple[float, ...]:
        total = self.total
        if total == 0:
            return tuple(0.0 for _ in self.counts)
        return tuple(c / total for c in self.counts)

    def bin_labels(self) -> Tuple[str, ...]:
        """Human-readable labels, collapsing unit-width bins to one number."""
        labels = []
        for lo, hi in zip(self.edges[:-1], self.edges[1:]):
            if hi - lo <= 1:
                labels.append(f"{int(lo)}")
            else:
                labels.append(f"{int(lo)}-{int(hi - 1)}")
        return tuple(labels)


def degree_histogram_bins(max_degree: int, n_bins: int = 16) -> np.ndarray:
    """Geometric-ish bin edges suited to heavy-tailed degree distributions.

    Returns integer edges ``[0, 1, 2, 4, 8, ...]`` capped so the last edge
    is ``max_degree + 1``; always at least ``[0, max_degree + 1]``.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    edges = [0, 1]
    width = 1
    while edges[-1] <= max_degree and len(edges) < n_bins:
        edges.append(edges[-1] + width)
        width *= 2
    if edges[-1] <= max_degree:
        edges.append(max_degree + 1)
    else:
        edges[-1] = max_degree + 1
    # Deduplicate in the degenerate max_degree == 0 case.
    out = np.asarray(sorted(set(edges)), dtype=np.int64)
    if out.size < 2:
        out = np.array([0, 1], dtype=np.int64)
    return out


def histogram(values, edges) -> Histogram:
    """Build a :class:`Histogram` of *values* over *edges*."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    e = np.asarray(edges, dtype=np.float64)
    counts, _ = np.histogram(arr, bins=e)
    return Histogram(edges=tuple(float(x) for x in e), counts=tuple(int(c) for c in counts))
