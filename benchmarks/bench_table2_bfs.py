"""Table 2 — BFS speedup of every GPU implementation over the serial CPU
baseline, for all 8 variants x 6 datasets.

Reproduced shapes (Section VII.A):

- ordered and unordered BFS achieve very similar performance;
- the GPU does not beat the CPU on CO-road (low degree, huge diameter);
- the best implementation is dataset-dependent;
- U_B_BM is only competitive on CiteSeer.
"""

import numpy as np

from common import bench_workload, cpu_baseline_bfs, dataset_keys, write_report
from repro.core import run_static
from repro.kernels import all_variants
from repro.utils.tables import Table

CODES = [v.code for v in all_variants()]


def build_table2():
    speedups = {}
    for key in dataset_keys():
        graph, source = bench_workload(key)
        cpu = cpu_baseline_bfs(key)
        row = {}
        for variant in all_variants():
            result = run_static(graph, source, "bfs", variant)
            assert np.array_equal(result.values, cpu.levels), (key, variant.code)
            row[variant.code] = cpu.seconds / result.total_seconds
        speedups[key] = row

    table = Table(
        ["network"] + CODES + ["best"],
        title="Table 2: BFS speedup (GPU over serial CPU)",
    )
    for key, row in speedups.items():
        best = max(row, key=row.get)
        table.add_row([key] + [f"{row[c]:.2f}" for c in CODES] + [best])
    return table.render(), speedups


def test_table2_bfs_speedups(benchmark):
    content, speedups = benchmark.pedantic(build_table2, rounds=1, iterations=1)
    write_report("table2_bfs", content)

    # Ordered ~ unordered for BFS.
    for key, row in speedups.items():
        for mapping_ws in ("T_BM", "T_QU", "B_BM", "B_QU"):
            o, u = row[f"O_{mapping_ws}"], row[f"U_{mapping_ws}"]
            assert 0.6 < o / u < 1.6, (key, mapping_ws)

    # GPU loses on the road network.
    assert max(speedups["co-road"].values()) < 1.0

    # GPU wins clearly on CiteSeer.
    assert max(speedups["citeseer"].values()) > 2.0

    # No universal winner among the unordered variants.
    winners = {
        max(
            (c for c in row if c.startswith("U_")), key=row.get
        )
        for row in speedups.values()
    }
    assert len(winners) >= 2

    # B_BM is the worst unordered variant outside CiteSeer.
    for key, row in speedups.items():
        if key == "citeseer":
            continue
        u_row = {c: s for c, s in row.items() if c.startswith("U_")}
        assert min(u_row, key=u_row.get) == "U_B_BM", key
