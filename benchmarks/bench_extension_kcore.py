"""Extension — k-core decomposition on the adaptive runtime.

The third transferred algorithm.  Peeling produces a *sawtooth*
working-set trajectory (each k-stage opens with a burst of sub-k nodes,
cascades, drains, then the next stage bursts again), crossing the
decision regions repeatedly — the most switch-intensive workload in the
repository, and therefore the sharpest test of the shared-update-vector
switching design.
"""

import numpy as np

from common import bench_workload, write_report
from repro.core import adaptive_run, run_static
from repro.cpu import cpu_kcore
from repro.kernels import unordered_variants
from repro.obs import build_manifest
from repro.utils.tables import Table

KEYS = ("citeseer", "p2p", "amazon", "google")


def build_report():
    rows = {}
    manifests = []
    for key in KEYS:
        graph, _ = bench_workload(key)
        cpu = cpu_kcore(graph)
        statics = {}
        for variant in unordered_variants():
            result = run_static(graph, -1, "kcore", variant)
            assert np.array_equal(result.values, cpu.coreness), (key, variant.code)
            statics[variant.code] = result.total_seconds
        ad = adaptive_run(graph, "kcore")
        assert np.array_equal(ad.values, cpu.coreness), key
        rows[key] = (cpu, statics, ad)
        manifests.append(build_manifest(ad, graph=graph, mode="adaptive"))

    table = Table(
        [
            "network",
            "max core",
            "CPU (ms)",
            "best static",
            "best (ms)",
            "adaptive (ms)",
            "adaptive/best",
            "switches",
        ],
        title="extension: k-core decomposition (peeling)",
    )
    for key, (cpu, statics, ad) in rows.items():
        best = min(statics, key=statics.get)
        table.add_row(
            [
                key,
                cpu.max_core,
                f"{cpu.seconds * 1e3:.2f}",
                best,
                f"{statics[best] * 1e3:.2f}",
                f"{ad.total_seconds * 1e3:.2f}",
                f"{ad.total_seconds / statics[best]:.2f}",
                ad.trace.num_switches,
            ]
        )
    return table.render(), rows, manifests


def test_extension_kcore(benchmark):
    content, rows, manifests = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("extension_kcore", content, manifest=manifests)

    for key, (cpu, statics, ad) in rows.items():
        # Adaptive tracks the best static.
        assert ad.total_seconds <= 1.25 * min(statics.values()), key
        # The heavy-tailed graphs have deep cores, the modal Amazon
        # distribution a shallow one.
        assert cpu.max_core >= 1, key

    assert rows["citeseer"][0].max_core > rows["amazon"][0].max_core
