"""Spec-fusion savings — fused launch plans vs the plain Figure-8 loop.

The host loop pays a kernel-launch overhead for the computation kernel
and another for the workset-generation kernel *every iteration*.  The
spec-fusion pass (:mod:`repro.engine.fusion`) lowers a run to a
:class:`~repro.engine.fusion.LaunchPlan` that merges the two into one
fused launch whenever the next working set's representation permits,
and hoists loop-invariant per-iteration H2D payloads out of the loop.

This bench quantifies the claim on two opposite Table-1 workload
shapes plus the fusion showcase workload:

- **co-road**: high diameter, hundreds of tiny-frontier iterations —
  launch-overhead dominated, fusion's best case for BFS;
- **sns**: scale-free, few heavy iterations — smaller relative win,
  but the bitmap-heavy plateau still fuses;
- **triangles** (on p2p): a chunked schedule whose generation kernel is
  trivial and whose per-iteration chunk descriptor is hoistable.

Contracts: every fused run's value array is SHA-256-identical to its
unfused run, fused simulated time is strictly below unfused on every
row, and the manifests attribute the saving to eliminated launch
overheads (``fusion.overhead_saved_s`` accounts for at least the fused
launches' worth of ``kernel_launch_overhead_s``).
"""

import hashlib

import numpy as np

from common import bench_graph, bench_source, write_report
from repro.core import run_static
from repro.utils.tables import Table

#: (row label, dataset, algorithm, variant)
ROWS = (
    ("co-road/bfs", "co-road", "bfs", "U_T_BM"),
    ("sns/bfs", "sns", "bfs", "U_T_BM"),
    ("p2p/triangles", "p2p", "triangles", "U_T_QU"),
)


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _run(dataset, algorithm, variant, fuse):
    if algorithm == "triangles":
        graph = bench_graph(dataset, scale=0.25)
        return run_static(graph, -1, "triangles", variant, fuse=fuse or None)
    graph = bench_graph(dataset)
    source = bench_source(graph, dataset)
    return run_static(graph, source, algorithm, variant, fuse=fuse)


def build_report():
    table = Table(
        ["workload", "variant", "unfused (ms)", "fused (ms)", "saved",
         "fused iters", "overhead saved (us)", "hoisted (B)"],
        title="spec-fusion: fused launch plan vs plain host loop",
    )
    stats = {}
    for label, dataset, algorithm, variant in ROWS:
        base = _run(dataset, algorithm, variant, fuse=False)
        fused = _run(dataset, algorithm, variant, fuse=True)
        assert _sha(base.values) == _sha(fused.values), label
        assert len(base.iterations) == len(fused.iterations), label
        f = fused.fusion
        saved = base.total_seconds - fused.total_seconds
        table.add_row(
            [label, variant,
             f"{base.total_seconds * 1e3:.3f}",
             f"{fused.total_seconds * 1e3:.3f}",
             f"{saved / base.total_seconds:.1%}",
             f"{f.fused_iterations}/{len(fused.iterations)}",
             f"{f.overhead_saved_s * 1e6:.1f}",
             f.hoisted_h2d_bytes]
        )
        stats[label] = (base, fused)
    return table.render(), stats


def test_fusion_savings(benchmark):
    content, stats = benchmark.pedantic(build_report, rounds=1, iterations=1)
    rows = {
        label: {
            "unfused_seconds": base.total_seconds,
            "fused_seconds": fused.total_seconds,
            "fused_iterations": fused.fusion.fused_iterations,
            "overhead_saved_s": fused.fusion.overhead_saved_s,
            "hoisted_h2d_bytes": fused.fusion.hoisted_h2d_bytes,
        }
        for label, (base, fused) in stats.items()
    }
    write_report("fusion_savings", content, data={"rows": rows})

    for label, (base, fused) in stats.items():
        f = fused.fusion
        # Contract 1: fusion never changes the math, only the pricing.
        assert _sha(base.values) == _sha(fused.values), label
        # Contract 2: fused simulated time is strictly below unfused.
        assert fused.total_seconds < base.total_seconds, (
            label, fused.total_seconds, base.total_seconds
        )
        # Contract 3: the saving is attributable — the plan fused real
        # iterations and the eliminated launch overheads account for a
        # concrete, positive share of the delta.
        assert f.fused_iterations > 0, label
        expected = f.fused_iterations * fused.device.kernel_launch_overhead_s
        assert abs(f.overhead_saved_s - expected) < 1e-12, label
        assert base.total_seconds - fused.total_seconds >= f.overhead_saved_s - 1e-12, label
    # The showcase workload also demonstrates H2D hoisting.
    assert stats["p2p/triangles"][1].fusion.hoisted_h2d_bytes > 0
