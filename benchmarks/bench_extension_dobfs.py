"""Extension — direction-optimizing BFS (push/pull, Beamer-style).

The idea the paper's adaptive line of work led to (and that Enterprise /
Gunrock later built in): when the frontier covers a large fraction of
the edges, flip the sweep direction so unvisited nodes *pull* from the
frontier and stop at their first hit, instead of the frontier pushing
to every out-neighbor.

Reproduced shapes:

- edge work collapses on the dense, small-diameter graphs (CiteSeer:
  32x fewer edge visits; SNS: 12x) — the Beamer result;
- end-to-end gain follows m/n: 1.5x on CiteSeer (avg degree 78); on the
  low-degree *directed* graphs the once-per-graph CSC transfer eats the
  kernel gain at single-query granularity (kernel-only time still
  improves or ties);
- the road network never leaves push (its frontier never crosses the
  alpha threshold) and is bit-identical to the paper's traversal.
"""

import numpy as np

from common import bench_workload, cpu_baseline_bfs, dataset_keys, write_report
from repro.core import run_default, run_static
from repro.obs import build_manifest
from repro.utils.tables import Table


def build_report():
    rows = {}
    manifests = []
    for key in dataset_keys():
        graph, source = bench_workload(key)
        cpu = cpu_baseline_bfs(key)
        push = run_static(graph, source, "bfs", "U_T_BM")
        do = run_default(graph, source, "dobfs")
        assert np.array_equal(do.values, cpu.levels), key
        rows[key] = (push, do)
        manifests.append(build_manifest(do, graph=graph, mode=do.policy_name))

    table = Table(
        [
            "network",
            "push edges",
            "DO edges",
            "push (ms)",
            "DO (ms)",
            "total gain",
            "kernel gain",
            "pull iters",
        ],
        title="extension: direction-optimizing BFS vs push-only U_T_BM",
    )
    for key, (push, do) in rows.items():
        kernel_gain = push.gpu_seconds / do.gpu_seconds
        table.add_row(
            [
                key,
                push.total_edges_scanned,
                do.total_edges_scanned,
                f"{push.total_seconds * 1e3:.2f}",
                f"{do.total_seconds * 1e3:.2f}",
                f"{push.total_seconds / do.total_seconds:.2f}x",
                f"{kernel_gain:.2f}x",
                do.variants_used().get("pull", 0),
            ]
        )
    return table.render(), rows, manifests


def test_extension_dobfs(benchmark):
    content, rows, manifests = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("extension_dobfs", content, manifest=manifests)

    # The Beamer edge-work collapse on the dense graphs.
    for key in ("citeseer", "sns"):
        push, do = rows[key]
        assert do.total_edges_scanned < 0.25 * push.total_edges_scanned, key
        assert do.variants_used().get("pull", 0) >= 1, key

    # End-to-end win where the degree is high and no CSC transfer is
    # needed (CiteSeer is undirected).
    push, do = rows["citeseer"]
    assert do.total_seconds < 0.8 * push.total_seconds

    # The road network stays pure push and costs the same.
    push, do = rows["co-road"]
    assert "pull" not in do.variants_used()
    assert abs(do.total_seconds / push.total_seconds - 1.0) < 0.02
