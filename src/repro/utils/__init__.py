"""Shared utilities: seeded RNG, table formatting, statistics, validation."""

from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.stats import Histogram, degree_histogram_bins, histogram
from repro.utils.tables import Table, format_si, format_seconds
from repro.utils.validation import (
    check_in_range,
    check_nonnegative_int,
    check_positive_int,
    check_probability,
)

__all__ = [
    "make_rng",
    "spawn_rngs",
    "Histogram",
    "degree_histogram_bins",
    "histogram",
    "Table",
    "format_si",
    "format_seconds",
    "check_in_range",
    "check_nonnegative_int",
    "check_positive_int",
    "check_probability",
]
