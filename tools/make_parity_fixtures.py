#!/usr/bin/env python
"""Generate the golden engine-parity fixtures.

The fixtures pin the *observable* behaviour of every run mode — values,
per-iteration records and simulated times — so any refactor can prove
bit-identical results against the committed file.  Every run goes
through a run mode's entry point (``run_static``, ``adaptive_run``,
``resilient_run``, plus ``run_default`` for DOBFS); the run
labels (``run_bfs_U_T_BM``, ``adaptive_cc``, ``resilient_bfs_faulted``,
...) are plain fixture keys, kept stable so the file never churns.  The
whole-graph static runs use each algorithm's registered default
variant, so the fixture pins those defaults too.
``tests/test_engine_parity.py`` re-runs the same workloads and diffs
against the committed file.

Regenerate (only when behaviour is *meant* to change) with::

    PYTHONPATH=src python tools/make_parity_fixtures.py

:func:`build_shapes` pins the shapes that do not go through one
``run_frame`` call (batched, continuous and served rows, sharded,
hybrid, incremental and budgeted runs) in ``shape_parity.json``;
``tests/test_shape_parity.py`` checks it.  Regenerate it with
``--shapes``.
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
    run_default,
    run_static,
)
from repro.core.config import RuntimeConfig  # noqa: E402
from repro.core.hybrid import HybridConfig, hybrid_run  # noqa: E402
from repro.core.policies import AdaptivePolicy  # noqa: E402
from repro.engine.batch import BatchFrame, QueryPlan, run_batch_frame  # noqa: E402
from repro.engine.incremental import run_incremental  # noqa: E402
from repro.engine.shard import run_sharded  # noqa: E402
from repro.engine.types import StaticPolicy  # noqa: E402
from repro.errors import MemoryFaultError  # noqa: E402
from repro.graph.datasets import make_dataset  # noqa: E402
from repro.graph.dynamic import DeltaOverlayGraph, EdgeBatch  # noqa: E402
from repro.graph.partition import partition_graph  # noqa: E402
from repro.gpusim.allocator import MemoryBudget  # noqa: E402
from repro.gpusim.device import TESLA_C2070  # noqa: E402
from repro.gpusim.memory import traversal_state_bytes  # noqa: E402
from repro.kernels.frame import BfsSpec, SsspSpec  # noqa: E402
from repro.kernels.variants import Variant  # noqa: E402
from repro.reliability import FaultPlan, GuardConfig, Watchdog  # noqa: E402
from repro.serve import BatchQuery, GraphSession, ServeLoop  # noqa: E402

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
            runs[f"adaptive_{algo}"] = _traversal(adaptive_run(graph, algo, source))
        for algo in ("pagerank", "cc", "kcore", "triangles"):
            runs[f"run_{algo}"] = _traversal(
                run_static(graph, -1, algo, get_algorithm(algo).default_variant)
            )
        runs["dobfs"] = _traversal(run_default(graph, source, "dobfs"))
        runs["adaptive_triangles"] = _traversal(adaptive_run(graph, "triangles", -1))

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
                adaptive_run(graph, algo, source),
                adaptive_run(graph, algo, source, fuse=True),
            )
        fused["dobfs"] = _fused_parity(
            run_default(graph, source, "dobfs"),
            run_default(graph, source, "dobfs", fuse=True),
        )
        entry["fused_parity"] = fused

        plan = FaultPlan(seed=13, memory_fault_rate=0.25, max_faults=2)
        res = resilient_run(
            graph, "bfs", source, guard=GuardConfig(checkpoint_every=2),
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


SHAPES_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tests", "fixtures", "shape_parity.json"
)


def _hex(value: float) -> str:
    return float(value).hex()


def _record_rows(records) -> list:
    return [
        [
            r.iteration,
            r.variant,
            r.workset_size,
            r.processed,
            r.updated,
            r.edges_scanned,
            r.improved_relaxations,
            _hex(r.seconds),
        ]
        for r in records
    ]


def _clock(tl) -> dict:
    return {
        "gpu_seconds": _hex(tl.gpu_seconds),
        "transfer_seconds": _hex(tl.transfer_seconds),
        "host_seconds": _hex(tl.host_seconds),
        "total_seconds": _hex(tl.total_seconds),
        "num_kernels": len(tl.kernels),
        "num_transfers": len(tl.transfers),
    }


def _row(query) -> dict:
    return {
        "algorithm": query.algorithm,
        "source": query.source,
        "values_sha256": None if query.values is None else _digest(query.values),
        "records": _record_rows(query.iterations),
        "error": query.error,
        "ejected": query.ejected,
        "eject_kind": query.eject_kind,
        "sim_seconds": _hex(query.sim_seconds),
    }


def _batch(result) -> dict:
    return {
        "rows": [_row(q) for q in result.queries],
        "clock": _clock(result.timeline),
        "super_iterations": result.super_iterations,
        "fused_launches": result.fused_launches,
        "launches_saved": result.launches_saved,
        "readbacks_saved": result.readbacks_saved,
        "rows_ejected": result.rows_ejected,
        "fused_supersteps": result.fused_supersteps,
        "fusion_overhead_saved_s": _hex(result.fusion_overhead_saved_s),
    }


def _single(traversal) -> dict:
    return {
        "values_sha256": _digest(traversal.values),
        "records": _record_rows(traversal.iterations),
        "clock": _clock(traversal.timeline),
    }


def _sharded(result) -> dict:
    return {
        "values_sha256": result.values_sha256,
        "sim_seconds": _hex(result.sim_seconds),
        "super_iterations": result.super_iterations,
        "replayed_super_iterations": result.replayed_super_iterations,
        "exchange_bytes": result.exchange_bytes,
        "exchange_transfers": result.exchange_transfers,
        "exchange_seconds": _hex(result.exchange_seconds),
        "recovery_rung": result.recovery_rung,
        "recovery_events": [
            [e.super_iteration, e.shard_index, e.device_index, e.fault_kind,
             e.rung, e.detail]
            for e in result.recovery_events
        ],
        "num_decisions": len(result.decisions),
        "stragglers": result.stragglers,
        "checkpoints_saved": result.checkpoints_saved,
        "shard_compute_seconds": [
            _hex(s["compute_seconds"]) for s in result.shard_reports
        ],
    }


class _ScriptedFault:
    """A frame fault hook that raises on its *at*-th call only."""

    def __init__(self, at: int):
        self.at = at
        self.calls = 0

    def on_iteration(self, iteration, values, frontier):
        self.calls += 1
        if self.calls == self.at:
            raise MemoryFaultError(f"scripted fault at hook call {self.at}")


def _continuous_batch(graph, sources, policy_for) -> dict:
    """Admit two rows, step once, admit two more, then drain.  One row
    is ejected by the fault hook and one by its simulated deadline."""
    frame = BatchFrame(graph, fault_hook=_ScriptedFault(at=4))
    taken = []
    frame.admit([QueryPlan(BfsSpec(), s, policy_for()) for s in sources[:2]])
    frame.step()
    taken.extend(frame.take_finished())
    frame.admit(
        [QueryPlan(SsspSpec(), s, policy_for()) for s in sources[:2]],
        watchdogs=[Watchdog(simulated_deadline_s=1e-9), None],
    )
    while frame.step():
        taken.extend(frame.take_finished())
    taken.extend(frame.take_finished())
    result = frame.finish()
    doc = _batch(result)
    doc["taken_order"] = [q.index for q in taken]
    return doc


def _serve_soak(graph, sources) -> dict:
    loop = ServeLoop(GraphSession(graph), max_batch_rows=4)
    for line, source in enumerate(sources, start=1):
        loop.submit(BatchQuery("bfs", source), line=line)
    loop.drain()
    responses = sorted(loop.take_responses(), key=lambda r: r["line"])
    return {
        "responses": [
            [r["line"], r.get("values_sha256"), r["path"], r.get("iterations"),
             _hex(r["latency_sim_s"])]
            for r in responses
        ],
        "batch_sim_seconds": _hex(loop.report.batch_sim_seconds),
        "super_iterations": loop.report.super_iterations,
    }


def _mutation(graph, kind: str, seed: int) -> EdgeBatch:
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    if kind == "insert":
        pairs = []
        while len(pairs) < 12:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                pairs.append((u, v))
        return EdgeBatch.inserts(pairs, [float(w) for w in rng.integers(1, 8, 12)])
    src = np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees)
    picks = rng.choice(graph.num_edges, size=12, replace=False)
    return EdgeBatch.deletes(
        [(int(src[i]), int(graph.col_indices[i])) for i in picks]
    )


#: device bytes past the resident shard slice in the sharded spill run
#: (each graph's exchange staging must fit; its worksets must not)
SHARD_SPILL_HEADROOM = {"p2p": 32_000, "citeseer": 110_000}


def build_shapes() -> dict:
    """Pin the simulated clock of every execution shape that is not a
    single ``run_frame`` call: batched, continuous and served rows,
    sharded, hybrid, incremental and budgeted runs."""
    out = {"schema": 1, "workloads": {}}
    for label, spec in WORKLOADS.items():
        graph = make_dataset(
            spec["key"], scale=spec["scale"], weighted=True, seed=spec["seed"]
        )
        source = spec["source"]
        n = graph.num_nodes
        sources = [source, n // 3, (2 * n) // 3]
        runs = {}

        def adaptive():
            return AdaptivePolicy(graph, device=TESLA_C2070)

        def static(code):
            return lambda: StaticPolicy(Variant.parse(code))

        # -- batched rows ---------------------------------------------
        def plans(policy_for):
            return [
                QueryPlan(spec_cls(), s, policy_for())
                for spec_cls in (BfsSpec, SsspSpec)
                for s in sources
            ]

        runs["batch_adaptive"] = _batch(run_batch_frame(graph, plans(adaptive)))
        runs["batch_static"] = _batch(
            run_batch_frame(graph, plans(static("U_T_BM")))
        )
        runs["batch_static_fused"] = _batch(
            run_batch_frame(graph, plans(static("U_T_BM")), fusion=True)
        )
        runs["batch_bfs_fused"] = _batch(
            run_batch_frame(
                graph,
                [QueryPlan(BfsSpec(), s, StaticPolicy(Variant.parse("U_B_QU")))
                 for s in sources],
                fusion=True,
            )
        )
        runs["batch_scan"] = _batch(
            run_batch_frame(graph, plans(adaptive), queue_gen="scan")
        )
        runs["batch_continuous"] = _continuous_batch(graph, sources, adaptive)
        runs["serve_soak"] = _serve_soak(
            graph, [source] + [(i * n) // 8 + 1 for i in range(1, 8)]
        )

        # -- sharded ----------------------------------------------------
        for algo in ("bfs", "sssp"):
            for devices in (1, 2, 4):
                for partition in ("contiguous", "balanced"):
                    runs[f"sharded_{algo}_{devices}_{partition}"] = _sharded(
                        run_sharded(
                            graph, source, algorithm=algo,
                            num_devices=devices, partition=partition,
                        )
                    )
        runs["sharded_faulted"] = _sharded(
            run_sharded(
                graph, source, algorithm="bfs", num_devices=4,
                checkpoint_every=2,
                fault_plan=FaultPlan(
                    seed=17, device_loss_rate=0.15,
                    launch_failure_rate=0.1, memory_fault_rate=0.05,
                    max_faults=4,
                ),
            )
        )
        # Room for the larger shard's resident arrays and the exchange
        # staging, but not for every working set: some spill to the host.
        resident_slice = max(
            shard.csr.device_bytes() + traversal_state_bytes(shard.num_owned)
            for shard in partition_graph(graph, 2)
        )
        runs["sharded_spill"] = _sharded(
            run_sharded(
                graph, source, algorithm="sssp", num_devices=2,
                mem_budget=resident_slice + SHARD_SPILL_HEADROOM[label],
            )
        )
        runs["sharded_scan"] = _sharded(
            run_sharded(
                graph, source, algorithm="bfs", num_devices=2,
                config=RuntimeConfig(queue_gen="scan"),
            )
        )

        # -- hybrid -----------------------------------------------------
        for algo in ("bfs", "sssp"):
            for name, hybrid_config in (
                ("default", None),
                ("gpu_only", HybridConfig(cpu_advantage=0.0)),
                ("run_length_1", HybridConfig(min_run_length=1)),
            ):
                result = hybrid_run(
                    graph, algo, source, hybrid_config=hybrid_config
                )
                doc = _single(result)
                doc["devices"] = result.devices
                doc["transitions"] = result.transitions
                runs[f"hybrid_{algo}_{name}"] = doc

        # -- incremental ------------------------------------------------
        # (CC symmetrizes the graph on every run: citeseer's 1.4M edges
        # would triple this builder's time, so CC runs on p2p only.)
        for algo in ("bfs", "sssp", "cc") if label == "p2p" else ("bfs", "sssp"):
            run_source = None if algo == "cc" else source
            previous = adaptive_run(graph, algo, run_source)
            current = graph
            for step, kind in enumerate(("insert", "delete")):
                overlay = DeltaOverlayGraph(current)
                delta = overlay.apply(
                    _mutation(current, kind, seed=step + 1), mode="lenient"
                )
                current = overlay.materialize()
                result = run_incremental(
                    current, algo, previous, delta, source=run_source
                )
                doc = _single(result)
                doc["affected_nodes"] = result.affected_nodes
                runs[f"incremental_{algo}_{kind}"] = doc
                previous = result

        # -- budgeted adaptive -----------------------------------------
        resident = graph.device_bytes() + traversal_state_bytes(n)
        for algo in ("bfs", "sssp"):
            tight = MemoryBudget(resident + (n + 7) // 8 + 64)
            runs[f"budget_{algo}"] = _single(
                adaptive_run(graph, algo, source, memory=tight)
            )
            spill = MemoryBudget(resident + 16, spill=True)
            runs[f"budget_{algo}_spill"] = _single(
                adaptive_run(graph, algo, source, memory=spill)
            )

        out["workloads"][label] = {"dataset": spec, "runs": runs}
    return out


def main(argv=None) -> int:
    shapes = "--shapes" in (sys.argv[1:] if argv is None else argv)
    path, fixture = (
        (SHAPES_PATH, build_shapes()) if shapes else (FIXTURE_PATH, build())
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n_runs = sum(len(w["runs"]) for w in fixture["workloads"].values())
    print(f"wrote {path} ({n_runs} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
