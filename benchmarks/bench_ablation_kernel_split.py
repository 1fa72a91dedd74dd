"""Ablation — the cost of the two-kernel iteration structure.

Section V.B: "The computation and the working set generation are split
into two kernels because CUDA does not offer primitives for global
synchronization inside kernels."  Each iteration therefore pays two
kernel launches (plus the loop-condition readback).  This analysis
quantifies what a hypothetical device-wide barrier would save by
re-pricing each traversal with the generation kernels' fixed launch
overhead removed (their *work* is kept — only the extra launch
disappears).

Expected shapes: the saving is proportional to the iteration count —
double-digit percent on the road network (hundreds of near-empty
iterations), negligible on the dense graphs (tens of heavy iterations).
This is exactly why later systems (the paper's citations [9], and
Gunrock/Enterprise afterwards) worked on fusing or batching the
frontier-management step.
"""

from common import bench_workload, dataset_keys, write_report
from repro.core import run_static
from repro.utils.tables import Table


def fused_estimate(result) -> float:
    """Total seconds if generation work rode the computation kernel."""
    device = result.device
    gen_launches = sum(
        1
        for record in result.timeline.kernels
        if record.tally.name.startswith("workset_gen")
        and "[" not in record.tally.name  # scan sub-kernels stay separate
    )
    return result.total_seconds - gen_launches * device.kernel_launch_overhead_s


def build_report():
    rows = {}
    for key in dataset_keys():
        graph, source = bench_workload(key, weighted=True)
        result = run_static(graph, source, "sssp", "U_B_QU")
        rows[key] = (result, fused_estimate(result))

    table = Table(
        [
            "network",
            "iterations",
            "split (ms)",
            "fused est. (ms)",
            "saving",
        ],
        title="ablation: two-kernel split vs hypothetical fused iteration (U_B_QU SSSP)",
    )
    for key, (result, fused) in rows.items():
        saving = 1.0 - fused / result.total_seconds
        table.add_row(
            [
                key,
                result.num_iterations,
                f"{result.total_seconds * 1e3:.2f}",
                f"{fused * 1e3:.2f}",
                f"{saving:.1%}",
            ]
        )
    return table.render(), rows


def test_ablation_kernel_split(benchmark):
    content, rows = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("ablation_kernel_split", content)

    savings = {
        key: 1.0 - fused / result.total_seconds
        for key, (result, fused) in rows.items()
    }
    # Long-tail traversals lose double-digit percent to the split.
    assert savings["co-road"] > 0.10, savings
    # Dense traversals barely notice it.
    for key in ("citeseer", "sns"):
        assert savings[key] < 0.05, (key, savings[key])
    # Savings order follows iteration counts.
    road_iters = rows["co-road"][0].num_iterations
    sns_iters = rows["sns"][0].num_iterations
    assert road_iters > 10 * sns_iters
