"""Tests for repro.utils.stats."""

import numpy as np
import pytest

from repro.utils.stats import Histogram, degree_histogram_bins, histogram


class TestDegreeHistogramBins:
    def test_geometric_growth(self):
        edges = degree_histogram_bins(100)
        assert edges[0] == 0
        assert edges[-1] == 101
        widths = np.diff(edges)
        assert np.all(widths > 0)

    def test_zero_max_degree(self):
        edges = degree_histogram_bins(0)
        assert len(edges) >= 2

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            degree_histogram_bins(-1)

    def test_covers_max(self):
        for max_deg in [1, 5, 33, 1188]:
            edges = degree_histogram_bins(max_deg)
            assert edges[-1] == max_deg + 1


class TestHistogram:
    def test_counts_sum_to_total(self):
        values = [0, 1, 1, 2, 5, 9]
        h = histogram(values, [0, 1, 2, 10])
        assert h.total == len(values)

    def test_fractions_sum_to_one(self):
        h = histogram([1, 2, 3, 4], [0, 2, 5])
        assert abs(sum(h.fractions) - 1.0) < 1e-12

    def test_empty_histogram_fractions(self):
        h = Histogram(edges=(0.0, 1.0), counts=(0,))
        assert h.fractions == (0.0,)

    def test_bin_labels_unit_width(self):
        h = Histogram(edges=(0.0, 1.0, 2.0, 4.0), counts=(1, 2, 3))
        assert h.bin_labels() == ("0", "1", "2-3")
