"""Tests for repro.utils.validation."""

import pytest

from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_nonnegative_int,
    check_positive_int,
    check_probability,
)


class TestCheckPositiveInt:
    def test_accepts(self):
        assert check_positive_int("n", 3) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int("n", 0)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int("n", 3.5)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int("n", True)

    def test_numpy_integer_accepted(self):
        import numpy as np

        assert check_positive_int("n", np.int64(5)) == 5

    def test_error_names_parameter(self):
        with pytest.raises(ValueError, match="my_param"):
            check_positive_int("my_param", -1)


class TestCheckNonnegativeInt:
    def test_accepts_zero(self):
        assert check_nonnegative_int("n", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative_int("n", -1)


class TestCheckProbability:
    def test_bounds_inclusive(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_probability("p", 1.01)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_probability("p", -0.1)


class TestCheckInRange:
    def test_open_ends(self):
        assert check_in_range("x", 5) == 5.0

    def test_low_bound(self):
        with pytest.raises(ValueError):
            check_in_range("x", 0.5, low=1.0)

    def test_high_bound(self):
        with pytest.raises(ValueError):
            check_in_range("x", 2.0, high=1.0)


class TestCheckFinite:
    def test_accepts_real_numbers(self):
        assert check_finite("w", 3) == 3.0
        assert check_finite("w", -2.5) == -2.5
        assert check_finite("w", 0.0) == 0.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="must be finite"):
            check_finite("w", value)

    @pytest.mark.parametrize("value", ["1.0", None, True])
    def test_rejects_non_numbers(self, value):
        with pytest.raises(TypeError):
            check_finite("w", value)
