"""Analysis — the learned decision tree vs the Figure-11 thresholds,
both scored against the per-iteration oracle (tooling beyond the paper).

One policy is fitted from the threshold runtime's own manifests across
all six Table-1 graph classes, then deployed back onto every dataset.
Each runtime's regret is measured against the same clairvoyant oracle,
so the two numbers are directly comparable: "how much simulated time
does this selector leave on the table?"

Expected shapes: the learned tree matches or beats the hand-derived
thresholds on most classes — it can carve regions the two-threshold
rule cannot express (the road network's overhead-dominated near-ties
are where the thresholds lose the most).  Both selectors must produce
bit-identical distance vectors: the variants differ only in schedule,
never in semantics.
"""

import hashlib

import numpy as np

from common import bench_workload, dataset_keys, write_report
from repro.core import (
    RuntimeConfig,
    adaptive_run,
    decision_quality,
    fit_policy,
    per_iteration_oracle,
)
from repro.obs import build_manifest
from repro.utils.tables import Table


def _sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def build_report():
    config = RuntimeConfig()

    # Pass 1 — threshold runtime everywhere; its manifests are the corpus.
    threshold = {}
    corpus = []
    for key in dataset_keys():
        graph, source = bench_workload(key, weighted=True)
        report = per_iteration_oracle(graph, source, "sssp")
        ad = adaptive_run(graph, "sssp", source, config=config)
        corpus.append((
            f"{key}.json",
            build_manifest(ad, graph=graph, algorithm="sssp",
                           mode="adaptive", source=source),
        ))
        threshold[key] = (graph, source, report, ad)

    artifact = fit_policy(corpus)

    # Pass 2 — the fitted tree on the same workloads, same oracle.
    rows = {}
    for key, (graph, source, report, ad) in threshold.items():
        learned = adaptive_run(graph, "sssp", source, config=config, policy=artifact)
        rows[key] = (
            decision_quality(ad, report),
            decision_quality(learned, report),
            _sha256(ad.values),
            _sha256(learned.values),
        )

    table = Table(
        ["network", "threshold regret", "learned regret", "winner",
         "values match"],
        title="learned policy vs Figure-11 thresholds (SSSP, regret "
        "vs per-iteration oracle)",
    )
    for key, (thr, lrn, sha_t, sha_l) in rows.items():
        winner = "learned" if lrn.regret <= thr.regret else "threshold"
        table.add_row(
            [key, f"{thr.regret:.2%}", f"{lrn.regret:.2%}", winner,
             "yes" if sha_t == sha_l else "NO"]
        )
    content = table.render() + (
        f"\npolicy: {artifact.num_leaves} leaves, depth {artifact.depth}, "
        f"digest {artifact.digest[:16]}…"
    )
    return content, rows, artifact


def test_learned_regret(benchmark):
    content, rows, artifact = benchmark.pedantic(
        build_report, rounds=1, iterations=1
    )
    data = {
        "policy": {"digest": artifact.digest,
                   "num_leaves": artifact.num_leaves,
                   "depth": artifact.depth},
        "datasets": {
            key: {"threshold_regret": thr.regret, "learned_regret": lrn.regret}
            for key, (thr, lrn, _, _) in rows.items()
        },
    }
    write_report("learned_regret", content, data=data)

    wins = 0
    for key, (thr, lrn, sha_t, sha_l) in rows.items():
        # Correctness first: the selectors must agree on the answer.
        assert sha_t == sha_l, key
        # Regret is bounded everywhere, learned included.
        assert lrn.regret < 0.25, (key, lrn.regret)
        if lrn.regret <= thr.regret + 1e-9:
            wins += 1

    # The fitted tree holds its own against the hand-derived thresholds
    # on at least half the Table-1 graph classes.
    assert wins >= 3, {k: (t.regret, l.regret) for k, (t, l, _, _) in rows.items()}
