"""Small argument-validation helpers used across the library.

Each helper raises ``ValueError``/``TypeError`` with a message that names
the offending parameter, keeping call sites one line long.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional

__all__ = [
    "check_positive_int",
    "check_nonnegative_int",
    "check_probability",
    "check_in_range",
    "check_finite",
]


def check_positive_int(name: str, value) -> int:
    """Validate that *value* is an integer >= 1 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_nonnegative_int(name: str, value) -> int:
    """Validate that *value* is an integer >= 0 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_probability(name: str, value) -> float:
    """Validate that *value* lies in [0, 1] and return it as ``float``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def check_finite(name: str, value) -> float:
    """Validate that *value* is a finite real number (no NaN/inf) and
    return it as ``float``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return float(value)


def check_in_range(
    name: str,
    value,
    low: Optional[float] = None,
    high: Optional[float] = None,
) -> float:
    """Validate that *value* lies in the closed range [low, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return float(value)
