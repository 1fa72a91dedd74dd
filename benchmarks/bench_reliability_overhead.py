"""Guard overhead and recovery cost of the reliability layer.

Two questions a production deployment asks before turning guards on:

1. **What does safety cost when nothing goes wrong?**  ``resilient_run``
   with an empty fault plan runs the same adaptive traversal plus
   watchdog checks and cost-aware checkpoints; the simulated-time
   overhead versus plain ``adaptive_run`` must stay under 5 %.
2. **What does recovery cost when things do go wrong?**  Under a seeded
   plan injecting transient launch failures and memory faults, the
   guard retries/restores until the query completes; answers must be
   bit-identical to the fault-free run, and the extra simulated compute
   (replayed iterations) quantifies the recovery bill.
"""

import numpy as np

from common import bench_workload, write_report
from repro.core import adaptive_run
from repro.reliability import FaultPlan, GuardConfig, resilient_run
from repro.utils.tables import Table

KEYS = ("citeseer", "p2p", "amazon", "google")

OVERHEAD_LIMIT = 0.05

FAULT_PLAN = FaultPlan(
    seed=7,
    launch_failure_rate=0.05,
    memory_fault_rate=0.02,
    latency_spike_rate=0.02,
    latency_spike_factor=4.0,
)

_TIGHT = GuardConfig(checkpoint_every=4)


def run_one(key: str, algorithm: str):
    weighted = algorithm == "sssp"
    graph, source = bench_workload(key, weighted=weighted)
    base = adaptive_run(graph, algorithm, source)
    guarded = resilient_run(graph, algorithm, source)
    overhead = guarded.final_seconds / base.total_seconds - 1.0

    faulty = resilient_run(
        graph, algorithm, source, guard=_TIGHT, plan=FAULT_PLAN
    )
    identical = bool(np.array_equal(faulty.values, base.values))
    recovery = (
        (faulty.final_seconds + faulty.replayed_seconds) / base.total_seconds - 1.0
    )
    return {
        "dataset": key,
        "algorithm": algorithm,
        "base_seconds": base.total_seconds,
        "guarded_seconds": guarded.final_seconds,
        "overhead": overhead,
        "checkpoints": guarded.checkpoints_saved,
        "faults": faulty.num_faults,
        "attempts": faulty.attempts,
        "recovery_cost": recovery,
        "recovery_actions": faulty.recovery_actions(),
        "bit_identical": identical,
    }


def build_report():
    rows = []
    for key in KEYS:
        for algorithm in ("bfs", "sssp"):
            rows.append(run_one(key, algorithm))

    table = Table(
        ["network", "algo", "adaptive", "guarded", "overhead",
         "faults", "attempts", "recovery cost", "identical"],
        title="reliability guard: fault-free overhead and faulty recovery cost",
    )
    for r in rows:
        table.add_row(
            [
                r["dataset"],
                r["algorithm"],
                f"{1e3 * r['base_seconds']:.3f}ms",
                f"{1e3 * r['guarded_seconds']:.3f}ms",
                f"{100 * r['overhead']:+.2f}%",
                r["faults"],
                r["attempts"],
                f"{100 * r['recovery_cost']:+.1f}%",
                "yes" if r["bit_identical"] else "NO",
            ]
        )
    return table.render(), rows


def test_reliability_overhead(benchmark):
    content, rows = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("reliability_overhead", content, data={"rows": rows})

    for r in rows:
        label = f"{r['dataset']}/{r['algorithm']}"
        # Fault-free guard overhead must stay under 5% simulated time.
        assert r["overhead"] < OVERHEAD_LIMIT, (label, r["overhead"])
        # Recovery must preserve answers bit-for-bit.
        assert r["bit_identical"], label
