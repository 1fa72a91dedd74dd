"""Extension — connected components on the adaptive runtime.

Section I: the paper's mechanisms "can be extended and applied to other
graph algorithms that exhibit similar computational patterns".  This
bench applies them to min-label-propagation connected components and
checks that the adaptive machinery transfers:

- every unordered variant and the adaptive runtime produce the
  union-find baseline's exact labels;
- CC's working set starts at *all* nodes and drains — the reverse of a
  BFS ramp — so the adaptive runtime starts in the bitmap region and
  switches toward the queue as the frontier collapses;
- the adaptive runtime again tracks the best static variant.
"""

import numpy as np

from common import bench_workload, dataset_keys, write_report
from repro.core import adaptive_run, run_static
from repro.cpu import cpu_connected_components
from repro.kernels import unordered_variants
from repro.obs import build_manifest
from repro.utils.tables import Table


def build_report():
    rows = {}
    manifests = []
    for key in dataset_keys():
        graph, _ = bench_workload(key)
        cpu = cpu_connected_components(graph)
        statics = {}
        for variant in unordered_variants():
            result = run_static(graph, -1, "cc", variant)
            assert np.array_equal(result.values, cpu.labels), (key, variant.code)
            statics[variant.code] = result.total_seconds
        ad = adaptive_run(graph, "cc")
        assert np.array_equal(ad.values, cpu.labels), key
        rows[key] = (cpu, statics, ad)
        manifests.append(build_manifest(ad, graph=graph, mode="adaptive"))

    table = Table(
        [
            "network",
            "components",
            "CPU (ms)",
            "best static",
            "best (ms)",
            "adaptive (ms)",
            "adaptive/best",
            "first variant",
        ],
        title="extension: connected components (label propagation)",
    )
    for key, (cpu, statics, ad) in rows.items():
        best = min(statics, key=statics.get)
        table.add_row(
            [
                key,
                cpu.num_components,
                f"{cpu.seconds * 1e3:.2f}",
                best,
                f"{statics[best] * 1e3:.2f}",
                f"{ad.total_seconds * 1e3:.2f}",
                f"{ad.total_seconds / statics[best]:.2f}",
                ad.iterations[0].variant,
            ]
        )
    return table.render(), rows, manifests


def test_extension_connected_components(benchmark):
    content, rows, manifests = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("extension_cc", content, manifest=manifests)

    for key, (cpu, statics, ad) in rows.items():
        # Adaptive stays within 20 % of the best static variant.
        best = min(statics.values())
        assert ad.total_seconds <= 1.2 * best, key

    # On the large instances CC starts in the bitmap region (all nodes
    # active on iteration 0).
    for key in ("citeseer", "amazon", "google", "sns"):
        _, _, ad = rows[key]
        assert ad.iterations[0].variant.endswith("BM"), key
        assert ad.iterations[0].workset_size == ad.values.size, key

    # ... and drains into the queue region before finishing.
    drained = sum(
        1
        for key, (_, _, ad) in rows.items()
        if any(r.variant.endswith("QU") for r in ad.iterations)
    )
    assert drained >= 4
