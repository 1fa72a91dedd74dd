"""Integration: the whole stack must behave consistently on every
simulated device preset (thresholds and times shift, answers do not)."""

import numpy as np
import pytest

from repro.core import adaptive_run, derive_t2, run_static
from repro.cpu import cpu_bfs, cpu_dijkstra
from repro.graph.generators import attach_uniform_weights, power_law_graph
from repro.gpusim.device import device_registry

DEVICES = sorted(device_registry())


@pytest.fixture(scope="module")
def workload():
    g = attach_uniform_weights(
        power_law_graph(20_000, alpha=1.9, max_degree=200, seed=17), seed=18
    )
    src = int(np.argmax(g.out_degrees))
    return g, src


@pytest.mark.parametrize("device_key", DEVICES)
class TestEveryDevice:
    def test_adaptive_bfs_correct(self, device_key, workload):
        g, src = workload
        device = device_registry()[device_key]
        result = adaptive_run(g, "bfs", src, device=device)
        assert np.array_equal(result.values, cpu_bfs(g, src).levels)

    def test_adaptive_sssp_correct(self, device_key, workload):
        g, src = workload
        device = device_registry()[device_key]
        result = adaptive_run(g, "sssp", src, device=device)
        assert np.allclose(result.values, cpu_dijkstra(g, src).distances)

    def test_thresholds_follow_device(self, device_key, workload):
        g, src = workload
        device = device_registry()[device_key]
        result = adaptive_run(g, "bfs", src, device=device)
        assert result.thresholds.t1 == float(device.warp_size)
        assert result.thresholds.t2 == derive_t2(device)

    def test_static_variant_correct(self, device_key, workload):
        g, src = workload
        device = device_registry()[device_key]
        result = run_static(g, src, "bfs", "U_B_QU", device=device)
        assert np.array_equal(result.values, cpu_bfs(g, src).levels)


class TestDeviceOrdering:
    def test_bigger_device_is_faster(self, workload):
        """More SMs and bandwidth must not slow a bandwidth/compute-bound
        traversal down."""
        g, src = workload
        reg = device_registry()
        big = adaptive_run(g, "sssp", src, device=reg["gtx580"]).total_seconds
        small = adaptive_run(g, "sssp", src, device=reg["quadro2000"]).total_seconds
        assert big < small
