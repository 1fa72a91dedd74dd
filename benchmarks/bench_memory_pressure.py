"""Cost and correctness of execution under a device-memory budget.

Three questions the memory subsystem must answer before a deployment
trusts ``--mem-budget``:

1. **What does accounting cost when memory is plentiful?**  A budget
   sized at the device's full capacity charges every allocation but
   never intervenes; the simulated-time overhead versus an unbudgeted
   run must stay under 5 %.
2. **Does pressure-aware adaptation stay correct?**  With a budget just
   large enough for the resident arrays plus a bitmap working set, the
   policy is forced away from queue worksets — answers must remain
   bit-identical while the trace records the forced decisions.
3. **Does the OOM ladder recover?**  With a budget that fits the
   resident arrays but no working set at all, the first attempt raises
   a genuine :class:`DeviceOOMError`; the guarded runner's rung-1 spill
   retry must complete bit-identically, pricing the spill as PCIe
   traffic.
"""

import numpy as np

from common import bench_workload, write_report
from repro.core import adaptive_run
from repro.gpusim.allocator import MemoryBudget
from repro.gpusim.memory import traversal_state_bytes
from repro.reliability import GuardConfig, resilient_run
from repro.utils.tables import Table

KEYS = ("citeseer", "p2p", "amazon", "google")

OVERHEAD_LIMIT = 0.05


def _resident_bytes(graph) -> int:
    return graph.device_bytes() + traversal_state_bytes(graph.num_nodes)


def run_one(key: str, algorithm: str):
    weighted = algorithm == "sssp"
    graph, source = bench_workload(key, weighted=weighted)
    resident = _resident_bytes(graph)
    bitmap = (graph.num_nodes + 7) // 8

    base = adaptive_run(graph, algorithm, source)

    # 1. plentiful memory: accounting only, no intervention
    ample = adaptive_run(graph, algorithm, source, memory=MemoryBudget("1G"))
    overhead = ample.total_seconds / base.total_seconds - 1.0

    # 2. tight budget: pressure-aware policy forces compact worksets
    tight_budget = resident + bitmap + 64
    tight = adaptive_run(
        graph, algorithm, source, memory=MemoryBudget(tight_budget, spill=True)
    )
    tight_identical = bool(
        np.array_equal(tight.values, base.values)
    )

    # 3. genuine OOM: guarded runner climbs to the spill rung
    oom_guard = GuardConfig(mem_budget=resident + 16)
    recovered = resilient_run(graph, algorithm, source, guard=oom_guard)
    oom_identical = bool(np.array_equal(recovered.values, base.values))
    recovery = (
        (recovered.final_seconds + recovered.replayed_seconds)
        / base.total_seconds
        - 1.0
    )

    return {
        "dataset": key,
        "algorithm": algorithm,
        "base_seconds": base.total_seconds,
        "ample_seconds": ample.total_seconds,
        "overhead": overhead,
        "peak_bytes": ample.memory.peak_bytes,
        "forced_decisions": tight.trace.num_memory_forced,
        "tight_identical": tight_identical,
        "oom_rung": recovered.oom_rung,
        "oom_attempts": recovered.attempts,
        "spilled_bytes": recovered.memory.spilled_bytes if recovered.memory else 0,
        "recovery_cost": recovery,
        "oom_identical": oom_identical,
    }, ample.memory


def build_report():
    rows = []
    memories = []
    for key in KEYS:
        for algorithm in ("bfs", "sssp"):
            row, mem = run_one(key, algorithm)
            rows.append(row)
            memories.append(mem)

    table = Table(
        ["network", "algo", "overhead", "peak bytes", "forced",
         "OOM rung", "spilled", "recovery cost", "identical"],
        title="device-memory budget: accounting overhead, pressure, OOM recovery",
    )
    for r in rows:
        table.add_row(
            [
                r["dataset"],
                r["algorithm"],
                f"{100 * r['overhead']:+.2f}%",
                f"{r['peak_bytes']:,}",
                r["forced_decisions"],
                r["oom_rung"],
                f"{r['spilled_bytes']:,}",
                f"{100 * r['recovery_cost']:+.1f}%",
                "yes" if r["tight_identical"] and r["oom_identical"] else "NO",
            ]
        )
    return table.render(), rows, memories


def test_memory_pressure(benchmark):
    content, rows, memories = benchmark.pedantic(
        build_report, rounds=1, iterations=1
    )
    write_report(
        "memory_pressure", content, data={"rows": rows}, memory=memories
    )

    for r in rows:
        label = f"{r['dataset']}/{r['algorithm']}"
        # Accounting with plentiful memory must stay under 5% overhead.
        assert r["overhead"] < OVERHEAD_LIMIT, (label, r["overhead"])
        # Pressure-forced and OOM-recovered runs preserve answers.
        assert r["tight_identical"], label
        assert r["oom_identical"], label
        # The genuine OOM is recovered on the first (spill) rung.
        assert r["oom_rung"] == 1, (label, r["oom_rung"])
