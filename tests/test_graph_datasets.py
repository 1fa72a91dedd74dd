"""Tests for repro.graph.datasets: the Table-1 analogues must reproduce
the published structure (scaled)."""

import pytest

from repro.errors import DatasetError
from repro.graph.datasets import DATASETS, dataset_keys, make_dataset
from repro.graph.properties import is_symmetric, pseudo_diameter


class TestRegistry:
    def test_six_datasets_in_order(self):
        assert dataset_keys() == ("co-road", "citeseer", "p2p", "amazon", "google", "sns")

    def test_unknown_key(self):
        with pytest.raises(DatasetError, match="unknown dataset"):
            make_dataset("facebook")

class TestScaling:
    def test_scale_controls_nodes(self):
        small = make_dataset("amazon", scale=0.01, seed=0)
        large = make_dataset("amazon", scale=0.05, seed=0)
        assert large.num_nodes > small.num_nodes
        assert small.num_nodes == pytest.approx(
            DATASETS["amazon"].paper_nodes * 0.01, rel=0.05
        )

    def test_min_nodes_floor(self):
        g = make_dataset("p2p", scale=1e-6, min_nodes=256, seed=0)
        assert g.num_nodes == 256

    def test_scale_out_of_range(self):
        with pytest.raises(ValueError):
            make_dataset("amazon", scale=1.5)

    def test_deterministic_per_seed(self):
        a = make_dataset("google", scale=0.01, seed=5)
        b = make_dataset("google", scale=0.01, seed=5)
        assert a == b

    def test_seeds_differ(self):
        a = make_dataset("google", scale=0.01, seed=5)
        b = make_dataset("google", scale=0.01, seed=6)
        assert a != b


class TestWeights:
    def test_weighted_flag(self):
        g = make_dataset("p2p", scale=0.1, weighted=True, seed=0)
        assert g.has_weights
        assert g.weights.min() >= 1.0
        assert g.weights.max() <= 100.0

    def test_weight_range(self):
        g = make_dataset("p2p", scale=0.1, weighted=True, weight_range=(5, 7), seed=0)
        assert g.weights.min() >= 5
        assert g.weights.max() <= 7

    def test_unweighted_default(self):
        assert not make_dataset("p2p", scale=0.1, seed=0).has_weights


@pytest.mark.parametrize("key", dataset_keys())
class TestStructureMatchesPaper:
    """Average outdegree within a factor-of-two band of Table 1 and the
    qualitative distribution shape of Figure 1."""

    def test_avg_outdegree_band(self, key):
        spec = DATASETS[key]
        g = make_dataset(key, scale=0.05, seed=1)
        ratio = g.avg_out_degree / spec.paper_avg_outdegree
        assert 0.5 < ratio < 2.0, f"{key}: avg {g.avg_out_degree:.2f}"

    def test_max_degree_not_tiny(self, key):
        spec = DATASETS[key]
        g = make_dataset(key, scale=0.05, seed=1)
        assert g.out_degrees.max() >= min(spec.paper_max_outdegree, g.num_nodes - 1) * 0.1


class TestDistributionShapes:
    def test_road_is_sparse_and_regular(self):
        g = make_dataset("co-road", scale=0.02, seed=1)
        deg = g.out_degrees
        assert deg.max() <= 10
        # Figure 1: most road nodes have outdegree 1-4.
        assert float(((deg >= 1) & (deg <= 4)).mean()) > 0.9

    def test_road_symmetric(self):
        g = make_dataset("co-road", scale=0.02, seed=1)
        assert is_symmetric(g)

    def test_citeseer_symmetric_heavy_tail(self):
        g = make_dataset("citeseer", scale=0.02, seed=1)
        assert is_symmetric(g)
        assert g.out_degrees.max() > 10 * g.avg_out_degree

    def test_amazon_modal_degree_ten(self):
        g = make_dataset("amazon", scale=0.02, seed=1)
        deg = g.out_degrees
        # Figure 1: ~70 % of nodes have outdegree 10.
        assert 0.55 < float((deg >= 9).mean()) < 0.9
        assert deg.max() <= 10

    def test_google_heavy_tail(self):
        g = make_dataset("google", scale=0.02, seed=1)
        assert g.out_degrees.max() > 20 * max(1.0, g.avg_out_degree / 3)

    def test_road_diameter_exceeds_social(self):
        road = make_dataset("co-road", scale=0.02, seed=1)
        sns = make_dataset("sns", scale=0.002, seed=1)
        assert pseudo_diameter(road, seed=0) > 5 * pseudo_diameter(sns, seed=0)
