"""Robustness across traversal sources (the abstract's second claim).

"[Our dynamic solution] is more robust to the irregularities typical of
real world graphs."  Speedup tables fix one source; real deployments
answer queries from arbitrary sources, whose frontier trajectories
differ (a hub source explodes immediately; a fringe source crawls for a
while).  For each dataset this bench runs SSSP from several random
sources and compares, per executor, the *worst-case* ratio to that
query's best static variant.

Reproduced shape: every static variant has queries where it is far from
the best choice (its worst-case ratio across sources is large), while
the adaptive runtime's worst case stays near 1 — it adapts to each
query's own trajectory, which is the operational meaning of robustness.
"""

import numpy as np

from common import bench_workload, write_report
from repro.core import adaptive_run, run_static
from repro.graph.properties import reachable_count
from repro.kernels import unordered_variants
from repro.utils.tables import Table

KEYS = ("citeseer", "p2p", "amazon", "google")
NUM_SOURCES = 5


def pick_sources(graph, count, seed=0):
    """Well-connected sources with diverse degrees."""
    rng = np.random.default_rng(seed)
    candidates = rng.choice(graph.num_nodes, size=4 * count, replace=False)
    good = [
        int(c) for c in candidates
        if reachable_count(graph, int(c)) > graph.num_nodes // 20
    ]
    by_degree = sorted(good, key=lambda c: graph.out_degrees[c])
    if len(by_degree) < count:
        return by_degree
    idx = np.linspace(0, len(by_degree) - 1, count).astype(int)
    return [by_degree[i] for i in idx]


def build_report():
    results = {}
    for key in KEYS:
        graph, _ = bench_workload(key, weighted=True)
        sources = pick_sources(graph, NUM_SOURCES, seed=3)
        worst_ratio = {v.code: 0.0 for v in unordered_variants()}
        worst_ratio["adaptive"] = 0.0
        for source in sources:
            statics = {
                v.code: run_static(graph, source, "sssp", v).total_seconds
                for v in unordered_variants()
            }
            best = min(statics.values())
            ad = adaptive_run(graph, "sssp", source).total_seconds
            for code, seconds in statics.items():
                worst_ratio[code] = max(worst_ratio[code], seconds / best)
            worst_ratio["adaptive"] = max(worst_ratio["adaptive"], ad / best)
        results[key] = (worst_ratio, len(sources))

    columns = [v.code for v in unordered_variants()] + ["adaptive"]
    table = Table(
        ["network", "#sources"] + columns,
        title="worst-case ratio to the per-query best static (SSSP, multi-source)",
    )
    for key, (worst_ratio, n_sources) in results.items():
        table.add_row(
            [key, n_sources] + [f"{worst_ratio[c]:.2f}" for c in columns]
        )
    return table.render(), results


def test_robustness_across_sources(benchmark):
    content, results = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("robustness_sources", content)

    for key, (worst_ratio, n_sources) in results.items():
        assert n_sources >= 3, key
        adaptive_worst = worst_ratio["adaptive"]
        static_worsts = [v for c, v in worst_ratio.items() if c != "adaptive"]
        # The adaptive runtime's worst case beats every static variant's
        # worst case (robustness), and stays near the per-query optimum.
        assert adaptive_worst <= min(static_worsts) + 0.02, (key, worst_ratio)
        assert adaptive_worst < 1.25, (key, adaptive_worst)
        # At least one static variant is badly exposed on some query.
        assert max(static_worsts) > 1.3, (key, worst_ratio)
