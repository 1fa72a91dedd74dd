"""Table 3 — SSSP speedup of every GPU implementation over the serial CPU
baseline (Dijkstra's algorithm), for all 8 variants x 6 datasets.

Reproduced shapes (Section VII.A):

- unordered SSSP is significantly faster than ordered SSSP;
- block mapping is strong on high-average-outdegree graphs (CiteSeer);
- U_B_BM is good on CiteSeer but the worst variant elsewhere;
- the best implementation is dataset-dependent.
"""

import numpy as np

from common import bench_workload, cpu_baseline_sssp, dataset_keys, write_report
from repro.core import run_static
from repro.kernels import all_variants
from repro.utils.tables import Table

CODES = [v.code for v in all_variants()]

#: the road analogue is shrunk for the ordered variants, whose
#: simulated iteration count (one per distinct distance value) makes the
#: full bench instance take minutes of host time
ORDERED_ROAD_SCALE = 0.02


def build_table3():
    speedups = {}
    for key in dataset_keys():
        scale = ORDERED_ROAD_SCALE if key == "co-road" else None
        graph, source = bench_workload(key, weighted=True, scale=scale)
        cpu = cpu_baseline_sssp(key, scale=scale)
        row = {}
        for variant in all_variants():
            result = run_static(graph, source, "sssp", variant)
            assert np.allclose(result.values, cpu.distances), (key, variant.code)
            row[variant.code] = cpu.seconds / result.total_seconds
        speedups[key] = row

    table = Table(
        ["network"] + CODES + ["best"],
        title="Table 3: SSSP speedup (GPU over serial CPU Dijkstra)",
    )
    for key, row in speedups.items():
        best = max(row, key=row.get)
        table.add_row([key] + [f"{row[c]:.2f}" for c in CODES] + [best])
    return table.render(), speedups


def test_table3_sssp_speedups(benchmark):
    content, speedups = benchmark.pedantic(build_table3, rounds=1, iterations=1)
    write_report("table3_sssp", content)

    # Unordered beats ordered on every dataset (best-vs-best).
    for key, row in speedups.items():
        best_o = max(s for c, s in row.items() if c.startswith("O_"))
        best_u = max(s for c, s in row.items() if c.startswith("U_"))
        assert best_u >= best_o, key

    # ... and by a wide margin on the low-degree datasets.
    for key in ("co-road", "google", "p2p"):
        row = speedups[key]
        best_o = max(s for c, s in row.items() if c.startswith("O_"))
        best_u = max(s for c, s in row.items() if c.startswith("U_"))
        assert best_u > 3 * best_o, key

    # Block mapping strong on CiteSeer (its avg outdegree ~ 74 >> 32).
    cs = speedups["citeseer"]
    assert max(cs["U_B_BM"], cs["U_B_QU"]) > max(cs["U_T_BM"], cs["U_T_QU"])

    # U_B_BM worst unordered variant outside CiteSeer.
    for key, row in speedups.items():
        if key == "citeseer":
            continue
        u_row = {c: s for c, s in row.items() if c.startswith("U_")}
        assert min(u_row, key=u_row.get) == "U_B_BM", key

    # The GPU beats the CPU on the high-parallelism datasets.
    for key in ("citeseer", "amazon", "google", "sns"):
        assert max(speedups[key].values()) > 2.0, key
