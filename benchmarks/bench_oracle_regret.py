"""Analysis — the adaptive runtime's decision quality vs a per-iteration
oracle (tooling beyond the paper).

For every dataset the oracle prices all four unordered variants on each
iteration's actual frontier and takes the minimum — the unbeatable
schedule.  The adaptive runtime is scored against it: agreement (how
often the Figure-11 rule picks the oracle's variant) and regret (time
lost to disagreements).

Expected shapes: on the frontier-ramping datasets the adaptive runtime's
regret stays within a few percent of the oracle — its heuristic rule
captures nearly everything a clairvoyant selector could; only the road
network, whose iterations are all overhead-dominated near-ties, shows
low agreement (ties make "the" best variant noise) with bounded regret.
"""

from common import bench_workload, dataset_keys, write_report
from repro.core import adaptive_run, decision_quality, per_iteration_oracle
from repro.utils.tables import Table


def build_report():
    rows = {}
    for key in dataset_keys():
        graph, source = bench_workload(key, weighted=True)
        report = per_iteration_oracle(graph, source, "sssp")
        ad = adaptive_run(graph, "sssp", source)
        quality = decision_quality(ad, report)
        best_code, best_secs = report.best_static()
        rows[key] = (report, quality, best_code, best_secs)

    table = Table(
        [
            "network",
            "oracle (ms)",
            "best static",
            "static (ms)",
            "adaptive regret",
            "agreement",
        ],
        title="decision quality: adaptive vs per-iteration oracle (SSSP)",
    )
    for key, (report, quality, best_code, best_secs) in rows.items():
        table.add_row(
            [
                key,
                f"{report.oracle_seconds * 1e3:.2f}",
                best_code,
                f"{best_secs * 1e3:.2f}",
                f"{quality.regret:.1%}",
                f"{quality.agreement:.0%}",
            ]
        )
    return table.render(), rows


def test_oracle_regret(benchmark):
    content, rows = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("oracle_regret", content)

    for key, (report, quality, _, best_secs) in rows.items():
        # The oracle is a true lower bound on every static schedule.
        assert report.oracle_seconds <= best_secs + 1e-12, key
        # Regret is bounded everywhere.
        assert quality.regret < 0.25, (key, quality.regret)

    # On the frontier-ramping datasets the rule is near-oracle.
    for key in ("citeseer", "amazon", "sns"):
        _, quality, _, _ = rows[key]
        assert quality.regret < 0.05, (key, quality.regret)
        assert quality.agreement > 0.5, key
