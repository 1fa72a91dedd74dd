#!/usr/bin/env python
"""Generate the golden engine-parity fixtures.

The fixtures pin the *observable* behaviour of every run mode — values,
per-iteration records and simulated times — so any refactor can prove
bit-identical results against the committed file.  Every run goes
through a run mode's entry point (``run_static``, ``adaptive_run``,
``resilient_run``, plus DOBFS's ``direction_optimizing_bfs``); the run
labels (``run_bfs_U_T_BM``, ``adaptive_cc``, ``resilient_bfs_faulted``,
...) are plain fixture keys, kept stable so the file never churns.  The
whole-graph static runs use each algorithm's registered default
variant, so the fixture pins those defaults too.
``tests/test_engine_parity.py`` re-runs the same workloads and diffs
against the committed file.

Regenerate (only when behaviour is *meant* to change) with::

    PYTHONPATH=src python tools/make_parity_fixtures.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro import (  # noqa: E402
    adaptive_run,
    get_algorithm,
    resilient_run,
    run_static,
)
from repro.graph.datasets import make_dataset  # noqa: E402
from repro.kernels.dobfs import direction_optimizing_bfs  # noqa: E402
from repro.reliability import FaultPlan, GuardConfig  # noqa: E402

FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tests", "fixtures", "engine_parity.json"
)

#: the two fixture workloads: one sparse road-like graph, one denser
#: power-law graph — both tiny enough for CI but multi-iteration.
WORKLOADS = {
    "p2p": dict(key="p2p", scale=0.25, seed=7, source=0),
    "citeseer": dict(key="citeseer", scale=0.04, seed=3, source=1),
}


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _records(result) -> list:
    return [
        [
            r.iteration,
            r.variant,
            r.workset_size,
            r.processed,
            r.updated,
            r.edges_scanned,
            r.improved_relaxations,
            float(r.seconds).hex(),
        ]
        for r in result.iterations
    ]


def _fused_parity(unfused, fused) -> dict:
    """Golden record that a fused run matched its unfused twin: the
    shared value digest, both decision traces (iteration records minus
    the seconds column, which fusion is *allowed* to change), and the
    fused run's own times and fusion counters."""
    assert _digest(unfused.values) == _digest(fused.values)
    stats = fused.fusion
    return {
        "values_sha256": _digest(fused.values),
        "decisions": [r[:-1] for r in _records(fused)],
        "decisions_match_unfused": (
            [r[:-1] for r in _records(fused)] == [r[:-1] for r in _records(unfused)]
        ),
        "fused_iterations": stats.fused_iterations,
        "refused_iterations": stats.refused_iterations,
        "hoisted_h2d_bytes": stats.hoisted_h2d_bytes,
        "overhead_saved_s": float(stats.overhead_saved_s).hex(),
        "total_seconds": float(fused.total_seconds).hex(),
        "unfused_total_seconds": float(unfused.total_seconds).hex(),
    }


def _traversal(result) -> dict:
    tl = result.timeline
    return {
        "algorithm": result.algorithm,
        "policy": result.policy_name,
        "values_sha256": _digest(result.values),
        "values_dtype": str(result.values.dtype),
        "num_iterations": len(result.iterations),
        "records": _records(result),
        "gpu_seconds": float(tl.gpu_seconds).hex(),
        "transfer_seconds": float(tl.transfer_seconds).hex(),
        "host_seconds": float(tl.host_seconds).hex(),
        "total_seconds": float(tl.total_seconds).hex(),
        "num_kernels": len(tl.kernels),
        "num_transfers": len(tl.transfers),
    }


def build() -> dict:
    out = {"schema": 1, "workloads": {}}
    for label, spec in WORKLOADS.items():
        graph = make_dataset(
            spec["key"], scale=spec["scale"], weighted=True, seed=spec["seed"]
        )
        source = spec["source"]
        entry = {
            "dataset": spec,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "runs": {},
        }
        runs = entry["runs"]
        for algo, code in (
            ("bfs", "U_T_BM"), ("bfs", "U_B_QU"), ("sssp", "U_T_QU"), ("sssp", "O_T_QU")
        ):
            runs[f"run_{algo}_{code}"] = _traversal(
                run_static(graph, source, algo, code)
            )
        for algo in ("bfs", "sssp", "cc", "pagerank", "kcore"):
            runs[f"adaptive_{algo}"] = _traversal(
                adaptive_run(graph, algo, source).traversal
            )
        for algo in ("pagerank", "cc", "kcore", "triangles"):
            runs[f"run_{algo}"] = _traversal(
                run_static(graph, -1, algo, get_algorithm(algo).default_variant)
            )
        runs["dobfs"] = _traversal(direction_optimizing_bfs(graph, source))
        runs["adaptive_triangles"] = _traversal(
            adaptive_run(graph, "triangles", -1).traversal
        )

        # Fused-vs-unfused parity: every registry algorithm through the
        # spec-fusion pass, static (fuse-always) and adaptive
        # (bitmap-only) plans alike, pinned against its unfused twin.
        fused = {}
        for algo, code in (
            ("bfs", "U_T_BM"), ("bfs", "U_B_QU"), ("sssp", "O_T_QU"),
            ("triangles", "U_T_QU"),
        ):
            fused[f"static_{algo}_{code}"] = _fused_parity(
                run_static(graph, source, algo, code),
                run_static(graph, source, algo, code, fuse=True),
            )
        for algo in ("bfs", "sssp", "cc", "pagerank", "kcore", "triangles"):
            fused[f"adaptive_{algo}"] = _fused_parity(
                adaptive_run(graph, algo, source).traversal,
                adaptive_run(graph, algo, source, fuse=True).traversal,
            )
        fused["dobfs"] = _fused_parity(
            direction_optimizing_bfs(graph, source),
            direction_optimizing_bfs(graph, source, fusion=True),
        )
        entry["fused_parity"] = fused

        plan = FaultPlan(seed=13, memory_fault_rate=0.25, max_faults=2)
        res = resilient_run(
            graph, "bfs", source, guard=GuardConfig(checkpoint_every=2, seed=5),
            plan=plan,
        )
        runs["resilient_bfs_faulted"] = {
            "values_sha256": _digest(res.values),
            "attempts": res.attempts,
            "num_faults": len(res.faults),
            "degraded": res.degraded,
            "stage": res.stage,
            "final_seconds": float(res.final_seconds).hex(),
        }
        out["workloads"][label] = entry
    return out


def main() -> int:
    fixture = build()
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n_runs = sum(len(w["runs"]) for w in fixture["workloads"].values())
    print(f"wrote {FIXTURE_PATH} ({n_runs} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
