"""Extension — hybrid CPU-GPU execution vs the paper's GPU-only adaptivity.

Related work (Section II): Hong et al. [13] "considers an adaptive
solution that alternates CPU and GPU execution.  We, on the other hand,
focus on the automatic selection of different GPU solutions."  With
both adaptivity axes implemented on the same substrates, this bench
compares them — and shows they are complementary:

- on the road network (the GPU-hostile case of Table 2/3) the hybrid
  executor runs nearly every iteration on the host and recovers most of
  the serial CPU's advantage, which no GPU-side variant selection can;
- on the high-parallelism graphs the hybrid matches the GPU-only
  adaptive runtime (it simply stays on the GPU for the heavy middle
  iterations), while pure-CPU execution is 5-25x slower.
"""

from common import bench_workload, cpu_baseline_sssp, dataset_keys, write_report
from repro.core import adaptive_run, hybrid_run
from repro.obs import build_manifest
from repro.utils.tables import Table


def build_report():
    rows = {}
    manifests = []
    for key in dataset_keys():
        graph, source = bench_workload(key, weighted=True)
        cpu = cpu_baseline_sssp(key)
        gpu = adaptive_run(graph, "sssp", source)
        hybrid = hybrid_run(graph, "sssp", source)
        rows[key] = (cpu, gpu, hybrid)
        manifests.append(
            build_manifest(
                hybrid, graph=graph, algorithm="sssp", mode="hybrid",
                source=source,
            )
        )

    table = Table(
        [
            "network",
            "CPU (ms)",
            "GPU adaptive (ms)",
            "hybrid (ms)",
            "hybrid/GPU",
            "CPU iters",
            "GPU iters",
            "transitions",
        ],
        title="extension: hybrid CPU-GPU execution (SSSP)",
    )
    for key, (cpu, gpu, hybrid) in rows.items():
        table.add_row(
            [
                key,
                f"{cpu.seconds * 1e3:.2f}",
                f"{gpu.total_seconds * 1e3:.2f}",
                f"{hybrid.total_seconds * 1e3:.2f}",
                f"{hybrid.total_seconds / gpu.total_seconds:.2f}",
                hybrid.cpu_iterations,
                hybrid.gpu_iterations,
                hybrid.transitions,
            ]
        )
    return table.render(), rows, manifests


def test_extension_hybrid(benchmark):
    import numpy as np

    content, rows, manifests = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("extension_hybrid", content, manifest=manifests)

    for key, (cpu, gpu, hybrid) in rows.items():
        assert np.allclose(hybrid.values, cpu.distances), key

    # Road: the hybrid recovers the CPU's advantage over the GPU.
    road_cpu, road_gpu, road_hybrid = rows["co-road"]
    assert road_hybrid.total_seconds < 0.5 * road_gpu.total_seconds
    assert road_hybrid.cpu_iterations > 0.9 * len(road_hybrid.devices)

    # Dense graphs: the hybrid stays within 15 % of the GPU adaptive and
    # far below pure CPU.
    for key in ("citeseer", "amazon", "google", "sns"):
        cpu, gpu, hybrid = rows[key]
        assert hybrid.total_seconds < 1.15 * gpu.total_seconds, key
        assert hybrid.total_seconds < 0.5 * cpu.seconds, key
        assert hybrid.gpu_iterations >= 1, key
