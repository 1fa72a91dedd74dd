"""Tests for the hybrid CPU-GPU executor (extension: Hong et al. [13])."""

import numpy as np
import pytest

from repro.core import HybridConfig, RuntimeConfig, adaptive_run, hybrid_run
from repro.core.policies import AdaptivePolicy
from repro.cpu import cpu_bfs, cpu_dijkstra
from repro.engine.driver import run_frame
from repro.errors import KernelError
from repro.graph.datasets import make_dataset
from repro.graph.generators import (
    attach_uniform_weights,
    chain_graph,
    erdos_renyi_graph,
    power_law_graph,
    road_network,
)
from repro.gpusim.device import TESLA_C2070
from repro.kernels.frame import BfsSpec, SsspSpec
from repro.obs import build_manifest


class TestCorrectness:
    def test_bfs_matches_cpu(self, random_graph):
        r = hybrid_run(random_graph, "bfs", 0)
        assert np.array_equal(r.values, cpu_bfs(random_graph, 0).levels)

    def test_sssp_matches_dijkstra(self, random_weighted):
        r = hybrid_run(random_weighted, "sssp", 0)
        assert np.allclose(r.values, cpu_dijkstra(random_weighted, 0).distances)

    def test_sssp_requires_weights(self, random_graph):
        # The spec's own check, run before any pricing.
        with pytest.raises(KernelError, match="SSSP requires edge weights"):
            hybrid_run(random_graph, "sssp", 0)

    def test_bad_source(self, random_graph):
        with pytest.raises(Exception):
            hybrid_run(random_graph, "bfs", 10**9)

    def test_rejects_algorithms_without_a_host_sweep(self, random_graph):
        with pytest.raises(KernelError, match="'bfs' or 'sssp'"):
            hybrid_run(random_graph, "cc", 0)

    def test_max_iterations(self):
        g = chain_graph(100)
        with pytest.raises(KernelError, match="exceeded"):
            hybrid_run(g, "bfs", 0, max_iterations=2)


class TestDeviceSchedule:
    def test_devices_per_iteration(self, random_graph):
        r = hybrid_run(random_graph, "bfs", 0)
        assert len(r.devices) == r.num_iterations
        assert set(r.devices) <= {"cpu", "gpu"}
        assert r.cpu_iterations + r.gpu_iterations == len(r.devices)

    def test_tiny_frontiers_go_to_cpu(self):
        # A chain's frontier is always one node: pure CPU territory.
        g = chain_graph(200)
        r = hybrid_run(g, "bfs", 0)
        assert r.cpu_iterations > 0.9 * len(r.devices)

    def test_huge_frontiers_go_to_gpu(self):
        g = power_law_graph(50_000, alpha=1.8, max_degree=400, seed=3)
        src = int(np.argmax(g.out_degrees))
        r = hybrid_run(g, "bfs", src)
        assert r.gpu_iterations >= 1
        # The peak-frontier iteration must be on the GPU.
        peak = max(range(len(r.devices)),
                   key=lambda i: r.iterations[i].workset_size)
        assert r.devices[peak] == "gpu"

    def test_transitions_counted_and_paid(self):
        g = power_law_graph(50_000, alpha=1.8, max_degree=400, seed=3)
        src = int(np.argmax(g.out_degrees))
        r = hybrid_run(g, "bfs", src)
        # Device changes along the schedule match the transition count,
        # remembering execution starts on the GPU (post-transfer).
        changes = sum(
            1 for a, b in zip(["gpu"] + r.devices[:-1], r.devices) if a != b
        )
        assert changes == r.transitions
        # Each transition shows up as a PCIe transfer of at least the
        # state array.
        big_transfers = [
            t for t in r.timeline.transfers
            if t.num_bytes >= 4 * g.num_nodes
        ]
        assert len(big_transfers) >= r.transitions

    def test_hysteresis_limits_ping_pong(self):
        g = erdos_renyi_graph(30_000, 120_000, seed=4)
        strict = hybrid_run(g, "bfs", 0, hybrid_config=HybridConfig(min_run_length=10))
        loose = hybrid_run(g, "bfs", 0, hybrid_config=HybridConfig(min_run_length=1))
        assert strict.transitions <= loose.transitions


class TestHybridAdvantage:
    def test_beats_pure_gpu_on_road(self):
        """The Hong et al. result: alternating execution rescues the
        GPU-hostile road topology."""

        g = road_network(20_000, seed=5)
        r_hybrid = hybrid_run(g, "bfs", 0)
        r_gpu = adaptive_run(g, "bfs", 0)
        assert np.array_equal(r_hybrid.values, r_gpu.values)
        assert r_hybrid.total_seconds < 0.6 * r_gpu.total_seconds

    def test_close_to_gpu_on_dense(self):
        g = attach_uniform_weights(
            power_law_graph(30_000, alpha=1.7, max_degree=500, seed=6), seed=7
        )
        src = int(np.argmax(g.out_degrees))
        r_hybrid = hybrid_run(g, "sssp", src)
        r_gpu = adaptive_run(g, "sssp", src)
        assert r_hybrid.total_seconds < 1.3 * r_gpu.total_seconds

    def test_cpu_advantage_knob(self):
        g = erdos_renyi_graph(20_000, 80_000, seed=8)
        never_cpu = hybrid_run(
            g, "bfs", 0, hybrid_config=HybridConfig(cpu_advantage=0.0),
        )
        assert never_cpu.cpu_iterations == 0


class _TopBfs(BfsSpec):
    chooses_at_top = True


class _TopSssp(SsspSpec):
    chooses_at_top = True


RUN_CONFIGS = {
    "default": RuntimeConfig(),
    "scan": RuntimeConfig(queue_gen="scan"),
    "monitor": RuntimeConfig(monitor_workset_degree=True),
    "rebuild": RuntimeConfig(switch_mode="rebuild"),
}


class TestDeviceIterations:
    """With every iteration on the device, a hybrid run is an adaptive
    run that chooses its variant at the top of each iteration — under
    the same run config, so the config's generation scheme, monitoring
    kernels and switch costs are priced too."""

    @pytest.fixture(scope="class")
    def graph(self):
        return make_dataset("citeseer", scale=0.01, weighted=True, seed=1)

    @pytest.mark.parametrize("config_name", sorted(RUN_CONFIGS))
    @pytest.mark.parametrize("algorithm,spec_cls", [("bfs", _TopBfs), ("sssp", _TopSssp)])
    def test_gpu_only_run_is_the_top_choosing_frame(
        self, graph, algorithm, spec_cls, config_name
    ):
        config = RUN_CONFIGS[config_name]
        source = int(np.argmax(graph.out_degrees))
        hybrid = hybrid_run(
            graph, algorithm, source, config=config,
            hybrid_config=HybridConfig(cpu_advantage=0.0),
        )
        frame = run_frame(
            graph, source, AdaptivePolicy(graph, config, device=TESLA_C2070),
            spec_cls(), queue_gen=config.queue_gen,
        )
        assert hybrid.cpu_iterations == 0
        assert np.array_equal(hybrid.values, frame.values)
        assert hybrid.iterations == frame.iterations
        tl, ref = hybrid.timeline, frame.timeline
        assert (len(tl.kernels), len(tl.transfers)) == (
            len(ref.kernels), len(ref.transfers)
        )
        assert hybrid.total_seconds == frame.total_seconds

    def test_manifest_keeps_the_device_iterations_decisions(self):
        # The device iterations' adaptive policy decides; its trace rides
        # on the result, so the manifest explains every GPU choice.
        graph = make_dataset("sns", scale=0.01, seed=1)
        result = hybrid_run(graph, "bfs", 0)
        assert result.devices == ["cpu", "cpu", "gpu", "gpu", "cpu"]
        manifest = build_manifest(result, graph=graph, mode="hybrid")
        assert result.trace.num_decisions == 2
        assert len(manifest.decisions) == result.trace.num_decisions
