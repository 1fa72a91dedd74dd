"""Extension — virtual-warp mapping (beyond the paper's space).

Section IV.B: "the thread- and block-based mappings are not the only
options, and intermediate solutions can be devised ... In this work, we
limit ourselves to the two basic mapping strategies."  Hong et al.'s
virtual warp-centric model [12] is cited as integrable.  This bench
integrates it: one element per 32-lane warp (``U_W_*`` variants), plus
an extended decision space with a mid-degree warp band
(``RuntimeConfig(use_warp_mapping=True)``).

Expected shapes:

- warp mapping wins on mid-degree graphs (amazon, sns, p2p): it
  parallelizes each neighborhood without block mapping's
  per-element-block dispatch, and avoids thread mapping's divergence;
- the extended adaptive runtime matches the paper-space adaptive
  everywhere and beats it wherever warp mapping wins.
"""

import numpy as np

from common import bench_workload, cpu_baseline_sssp, dataset_keys, write_report
from repro.core import RuntimeConfig, adaptive_run, run_static
from repro.kernels.variants import extended_variants
from repro.obs import build_manifest
from repro.utils.tables import Table

CODES = [v.code for v in extended_variants()]


def build_report():
    rows = {}
    manifests = []
    for key in dataset_keys():
        graph, source = bench_workload(key, weighted=True)
        cpu = cpu_baseline_sssp(key)
        statics = {}
        for variant in extended_variants():
            result = run_static(graph, source, "sssp", variant)
            assert np.allclose(result.values, cpu.distances), (key, variant.code)
            statics[variant.code] = cpu.seconds / result.total_seconds
        base = adaptive_run(graph, "sssp", source)
        ext = adaptive_run(
            graph, "sssp", source, config=RuntimeConfig(use_warp_mapping=True),
        )
        rows[key] = (statics, cpu.seconds / base.total_seconds,
                     cpu.seconds / ext.total_seconds, ext)
        manifests.append(
            build_manifest(
                ext, graph=graph, mode="adaptive+W",
                config=RuntimeConfig(use_warp_mapping=True),
            )
        )

    table = Table(
        ["network"] + CODES + ["adaptive", "adaptive+W"],
        title="extension: virtual-warp mapping (SSSP speedup over CPU)",
    )
    for key, (statics, base_speedup, ext_speedup, _) in rows.items():
        table.add_row(
            [key]
            + [f"{statics[c]:.2f}" for c in CODES]
            + [f"{base_speedup:.2f}", f"{ext_speedup:.2f}"]
        )
    return table.render(), rows, manifests


def test_extension_virtual_warp(benchmark):
    content, rows, manifests = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("extension_virtual_warp", content, manifest=manifests)

    # Warp mapping takes the static crown on the mid-degree datasets.
    for key in ("amazon", "sns"):
        statics, _, _, _ = rows[key]
        best = max(statics, key=statics.get)
        assert best.startswith("U_W"), (key, best)

    # The extended adaptive never loses to the paper-space adaptive ...
    for key, (_, base_speedup, ext_speedup, _) in rows.items():
        assert ext_speedup >= 0.97 * base_speedup, key

    # ... and wins where warp mapping wins.
    _, base_sns, ext_sns, ext_result = rows["sns"]
    assert ext_sns > 1.05 * base_sns
    assert any(code.startswith("U_W") for code in ext_result.variants_used())
