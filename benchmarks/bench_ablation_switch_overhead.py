"""Ablation — the cost of switching implementations at runtime
(Section VI's "data structures that lead to minimal overhead when
switching between implementations").

The paper's runtime shares one update vector between both working-set
representations, so a switch only redirects the generation kernel.  A
naive runtime would re-materialize the working set on every
representation change.  This ablation runs the adaptive runtime in both
modes.

Reproduced shape: shared-structure switching is essentially free (the
two modes differ only by the rebuild kernels), which is the property
that lets the runtime re-decide every iteration at all.
"""

from common import bench_workload, write_report
from repro.core import RuntimeConfig, adaptive_run
from repro.utils.tables import Table

KEYS = ("citeseer", "amazon", "google", "sns")


def build_report():
    results = {}
    for key in KEYS:
        graph, source = bench_workload(key, weighted=True)
        shared = adaptive_run(
            graph, "sssp", source, config=RuntimeConfig(switch_mode="shared"),
        )
        rebuild = adaptive_run(
            graph, "sssp", source, config=RuntimeConfig(switch_mode="rebuild"),
        )
        results[key] = (shared, rebuild)

    table = Table(
        [
            "network",
            "switches",
            "shared (ms)",
            "rebuild (ms)",
            "rebuild penalty",
        ],
        title="ablation: representation-switch cost (adaptive SSSP)",
    )
    for key, (shared, rebuild) in results.items():
        penalty = rebuild.total_seconds / shared.total_seconds - 1.0
        table.add_row(
            [
                key,
                shared.trace.num_switches,
                f"{shared.total_seconds * 1e3:.3f}",
                f"{rebuild.total_seconds * 1e3:.3f}",
                f"{100 * penalty:+.1f}%",
            ]
        )
    return table.render(), results


def test_ablation_switch_overhead(benchmark):
    content, results = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("ablation_switch_overhead", content)

    for key, (shared, rebuild) in results.items():
        # Identical decisions and answers.
        assert shared.trace.num_switches == rebuild.trace.num_switches, key
        assert shared.reached == rebuild.reached, key
        # Rebuild can only add cost.
        assert rebuild.total_seconds >= shared.total_seconds, key

    # Where switches happen, rebuilding costs something but the shared
    # scheme keeps the total penalty tiny either way (it is a handful of
    # kernels across the whole traversal).
    assert any(s.trace.num_switches > 0 for s, _ in results.values())
