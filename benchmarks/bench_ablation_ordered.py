"""Ablation — ordered vs unordered work efficiency (Section IV.A).

"Ordered algorithms are more work efficient than their unordered
counterparts (in that they process each element a minimum number of
times), but take more iterations to converge.  However, unordered
algorithms may exhibit higher degrees of parallelism."

This ablation quantifies both halves of that trade-off on the simulator:
edge relaxations performed (work) and iteration counts / time
(parallelism), for SSSP where the two differ most.
"""

from common import bench_workload, write_report
from repro.core import run_static
from repro.utils.tables import Table

KEYS = ("citeseer", "p2p", "amazon", "google")


def build_report():
    results = {}
    for key in KEYS:
        graph, source = bench_workload(key, weighted=True)
        ordered = run_static(graph, source, "sssp", "O_T_BM")
        unordered = run_static(graph, source, "sssp", "U_T_BM")
        results[key] = (graph, ordered, unordered)

    table = Table(
        [
            "network",
            "m (edges)",
            "O edges scanned",
            "U edges scanned",
            "O iters",
            "U iters",
            "O time (ms)",
            "U time (ms)",
        ],
        title="ablation: ordered work efficiency vs unordered parallelism (SSSP)",
    )
    for key, (graph, ordered, unordered) in results.items():
        table.add_row(
            [
                key,
                graph.num_edges,
                ordered.total_edges_scanned,
                unordered.total_edges_scanned,
                ordered.num_iterations,
                unordered.num_iterations,
                f"{ordered.total_seconds * 1e3:.2f}",
                f"{unordered.total_seconds * 1e3:.2f}",
            ]
        )
    return table.render(), results


def test_ablation_ordered_work_efficiency(benchmark):
    content, results = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("ablation_ordered", content)

    for key, (graph, ordered, unordered) in results.items():
        # Work efficiency: the ordered traversal scans each reachable
        # edge at most once; the unordered one rescans.
        assert ordered.total_edges_scanned <= graph.num_edges, key
        assert unordered.total_edges_scanned > ordered.total_edges_scanned, key
        # Convergence: ordered needs (far) more iterations.
        assert ordered.num_iterations > unordered.num_iterations, key

    # Net effect on the GPU: parallelism wins wherever the ordered
    # traversal's iteration count explodes ...
    for key in ("p2p", "amazon", "google"):
        _, ordered, unordered = results[key]
        assert unordered.total_seconds < ordered.total_seconds, key

    # ... while CiteSeer is the boundary case: its distances collapse
    # onto ~40 distinct values (dense hub structure), so the ordered
    # version converges almost as fast as the unordered one while doing
    # ~4x less edge work — and T_BM-vs-T_BM it comes out ahead.  (Across
    # *all* variants the unordered family still wins; see Table 3.)
    _, cs_ordered, cs_unordered = results["citeseer"]
    assert cs_ordered.num_iterations < 4 * cs_unordered.num_iterations
    assert cs_unordered.total_edges_scanned > 3 * cs_ordered.total_edges_scanned
