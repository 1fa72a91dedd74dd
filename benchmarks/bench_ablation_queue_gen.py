"""Ablation — queue-generation schemes (Section V.C).

The paper uses the simple atomic-index queue and cites two orthogonal
optimizations: Merrill et al.'s prefix-scan generation and Luo et al.'s
hierarchical (shared-memory) queues.  This ablation runs the queue
variants end-to-end under all three schemes.

Reproduced shapes:

- the scan scheme wins where frontiers are huge (fixed passes instead of
  per-element serialization) and loses where frontiers stay small (three
  kernels per iteration);
- the hierarchical scheme dominates the flat atomic scheme on every
  dataset (shared-memory atomics + one global atomic per block), which
  is why Luo et al. proposed it — and it narrows exactly the overhead
  that the paper's T3 threshold works around.
"""

from common import bench_workload, dataset_keys, write_report
from repro.core import run_static
from repro.utils.tables import Table

SCHEMES = ("atomic", "scan", "hierarchical")


def build_report():
    results = {}
    for key in dataset_keys():
        graph, source = bench_workload(key, weighted=True)
        runs = {
            scheme: run_static(graph, source, "sssp", "U_T_QU", queue_gen=scheme)
            for scheme in SCHEMES
        }
        results[key] = (runs, graph)

    table = Table(
        ["network", "atomic (ms)", "scan (ms)", "hierarchical (ms)", "peak ws"],
        title="ablation: queue generation scheme (U_T_QU SSSP)",
    )
    for key, (runs, graph) in results.items():
        table.add_row(
            [
                key,
                f"{runs['atomic'].total_seconds * 1e3:.2f}",
                f"{runs['scan'].total_seconds * 1e3:.2f}",
                f"{runs['hierarchical'].total_seconds * 1e3:.2f}",
                int(runs["atomic"].workset_curve().max()),
            ]
        )
    return table.render(), results


def test_ablation_queue_gen(benchmark):
    content, results = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("ablation_queue_gen", content)

    for key, (runs, _) in results.items():
        # Same answers under every scheme.
        reached = {r.reached for r in runs.values()}
        assert len(reached) == 1, key
        # Hierarchical generation never loses to the flat atomic scheme.
        assert runs["hierarchical"].total_seconds <= runs["atomic"].total_seconds, key

    # Small-frontier traversals prefer atomics over the scan's fixed
    # multi-kernel overhead.
    road = results["co-road"][0]
    assert road["atomic"].total_seconds < road["scan"].total_seconds

    # Huge-frontier traversals amortize the scan and shed the atomics.
    cs = results["citeseer"][0]
    assert cs["scan"].total_seconds <= cs["atomic"].total_seconds
