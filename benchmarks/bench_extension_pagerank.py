"""Extension — push-based PageRank on the adaptive runtime.

The second "other graph algorithm with similar computational patterns"
(Section I): residual-push PageRank, the Galois line's canonical
unordered algorithm.  Its working-set trajectory is unlike BFS's or
CC's: it starts at *all* nodes, collapses fast, then trickles around
the hubs for a long tail of small iterations — sweeping through every
region of the decision space in a single run.

Checks: all variants and the adaptive runtime agree bit-for-bit with
the serial push baseline; the adaptive runtime tracks the best static
variant; the trajectory crosses from the bitmap region into the
small-working-set region on every dataset.
"""

import numpy as np

from common import bench_workload, dataset_keys, write_report
from repro.core import adaptive_run, run_static
from repro.cpu import cpu_pagerank
from repro.kernels import unordered_variants
from repro.obs import build_manifest
from repro.utils.tables import Table

TOLERANCE = 1e-6


def build_report():
    rows = {}
    manifests = []
    for key in dataset_keys():
        graph, _ = bench_workload(key)
        cpu = cpu_pagerank(graph, tolerance=TOLERANCE, method="fast")
        statics = {}
        for variant in unordered_variants():
            result = run_static(graph, -1, "pagerank", variant, tolerance=TOLERANCE)
            assert np.abs(result.values - cpu.ranks).max() < 1e-12, (
                key, variant.code,
            )
            statics[variant.code] = result.total_seconds
        ad = adaptive_run(graph, "pagerank", tolerance=TOLERANCE)
        rows[key] = (cpu, statics, ad)
        manifests.append(build_manifest(ad, graph=graph, mode="adaptive"))

    table = Table(
        [
            "network",
            "CPU (ms)",
            "best static",
            "best (ms)",
            "adaptive (ms)",
            "adaptive/best",
            "iterations",
            "regions used",
        ],
        title="extension: push PageRank (tolerance 1e-6)",
    )
    for key, (cpu, statics, ad) in rows.items():
        best = min(statics, key=statics.get)
        table.add_row(
            [
                key,
                f"{cpu.seconds * 1e3:.2f}",
                best,
                f"{statics[best] * 1e3:.2f}",
                f"{ad.total_seconds * 1e3:.2f}",
                f"{ad.total_seconds / statics[best]:.2f}",
                ad.num_iterations,
                "+".join(sorted(ad.variants_used())),
            ]
        )
    return table.render(), rows, manifests


def test_extension_pagerank(benchmark):
    content, rows, manifests = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("extension_pagerank", content, manifest=manifests)

    for key, (cpu, statics, ad) in rows.items():
        best = min(statics.values())
        # Adaptive tracks the best static variant.
        assert ad.total_seconds <= 1.25 * best, (key, ad.total_seconds, best)

    # The trajectory sweeps from the full-graph bitmap region into the
    # small-working-set queue region.
    for key in ("citeseer", "amazon", "google", "sns"):
        _, _, ad = rows[key]
        first = ad.iterations[0]
        assert first.workset_size == ad.values.size, key
        assert first.variant.endswith("BM"), key
        assert any(r.variant == "U_B_QU" for r in ad.iterations), key

    # The GPU beats the serial push baseline on the dense graphs.
    for key in ("citeseer", "google", "sns"):
        cpu, statics, _ = rows[key]
        assert min(statics.values()) < cpu.seconds, key
