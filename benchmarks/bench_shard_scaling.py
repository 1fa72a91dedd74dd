"""Scaling and recovery cost of the multi-device sharded driver.

Two questions before spreading a traversal across devices:

1. **Does sharding pay?**  Simulated time at 1/2/4 devices on the
   social-network and road-network classes.  The sns class — dense
   frontiers, edge-heavy — must clear 1.5x at 4 devices with the
   degree-balanced partition; co-road's huge diameter and tiny
   frontiers bound how much any 1D partition can help, so its curve is
   reported, not gated.
2. **What does losing a device cost?**  Under a seeded plan that kills
   one device mid-run, the recovery ladder migrates the orphaned shards
   and replays from the last exchange-consistent checkpoint.  Values
   stay bit-identical and the total simulated time must stay under 2x
   the fault-free 4-device run.
"""

import numpy as np

from common import bench_workload, write_report
from repro.engine.shard import run_sharded
from repro.reliability import FaultPlan
from repro.utils.tables import Table

DEVICE_COUNTS = (1, 2, 4)

#: sns at 0.03 is ~129k nodes / ~1.2M edges — big enough that the
#: frontier dwarfs the per-round exchange, like the paper's full graph.
SCALES = {"sns": 0.03, "co-road": 0.05}

SNS_SPEEDUP_FLOOR = 1.5
RECOVERY_OVERHEAD_LIMIT = 2.0

LOSS_PLAN = FaultPlan(seed=11, device_loss_rate=0.25, device=1, max_faults=1)


def scaling_curve(key: str, algorithm: str):
    weighted = algorithm == "sssp"
    graph, source = bench_workload(
        key, weighted=weighted, scale=SCALES[key]
    )
    rows = []
    baseline = None
    for devices in DEVICE_COUNTS:
        result = run_sharded(
            graph,
            source,
            algorithm=algorithm,
            num_devices=devices,
            partition="balanced",
        )
        if baseline is None:
            baseline = result
        assert result.values_sha256 == baseline.values_sha256
        rows.append(
            {
                "dataset": key,
                "algorithm": algorithm,
                "devices": devices,
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "sim_seconds": result.sim_seconds,
                "speedup": baseline.sim_seconds / result.sim_seconds,
                "exchange_bytes": result.exchange_bytes,
                "super_iterations": result.super_iterations,
            }
        )
    return rows


def recovery_cost(key: str, algorithm: str):
    weighted = algorithm == "sssp"
    graph, source = bench_workload(
        key, weighted=weighted, scale=SCALES[key]
    )
    clean = run_sharded(
        graph, source, algorithm=algorithm, num_devices=4,
        partition="balanced", checkpoint_every=2,
    )
    faulty = run_sharded(
        graph, source, algorithm=algorithm, num_devices=4,
        partition="balanced", checkpoint_every=2, fault_plan=LOSS_PLAN,
    )
    identical = bool(
        np.array_equal(faulty.values, clean.values)
    )
    return {
        "dataset": key,
        "algorithm": algorithm,
        "clean_seconds": clean.sim_seconds,
        "faulty_seconds": faulty.sim_seconds,
        "overhead": faulty.sim_seconds / clean.sim_seconds,
        "device_losses": faulty.device_losses,
        "migrations": faulty.migrations,
        "replayed": faulty.replayed_super_iterations,
        "recovery_rung": faulty.recovery_rung,
        "bit_identical": identical,
    }


def build_report():
    scaling = []
    for key in SCALES:
        for algorithm in ("bfs", "sssp"):
            scaling.extend(scaling_curve(key, algorithm))
    recovery = [recovery_cost(key, "bfs") for key in SCALES]

    curve = Table(
        ["network", "algo", "devices", "sim time", "speedup",
         "exchange", "super-iters"],
        title="sharded traversal: simulated-time scaling (balanced partition)",
    )
    for r in scaling:
        curve.add_row(
            [
                r["dataset"],
                r["algorithm"],
                r["devices"],
                f"{1e3 * r['sim_seconds']:.3f}ms",
                f"{r['speedup']:.2f}x",
                f"{r['exchange_bytes'] / 1024:.0f}KiB",
                r["super_iterations"],
            ]
        )
    ladder = Table(
        ["network", "algo", "fault-free", "one loss", "overhead",
         "migrated", "replayed", "rung", "identical"],
        title="device-loss recovery: one device killed mid-run (4 devices)",
    )
    for r in recovery:
        ladder.add_row(
            [
                r["dataset"],
                r["algorithm"],
                f"{1e3 * r['clean_seconds']:.3f}ms",
                f"{1e3 * r['faulty_seconds']:.3f}ms",
                f"{r['overhead']:.2f}x",
                r["migrations"],
                r["replayed"],
                r["recovery_rung"],
                "yes" if r["bit_identical"] else "NO",
            ]
        )
    content = curve.render() + "\n\n" + ladder.render()
    return content, {"scaling": scaling, "recovery": recovery}


def test_shard_scaling(benchmark):
    content, data = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("shard_scaling", content, data=data)

    for r in data["scaling"]:
        if r["dataset"] == "sns" and r["devices"] == 4:
            assert r["speedup"] > SNS_SPEEDUP_FLOOR, (r["algorithm"], r["speedup"])
    for r in data["recovery"]:
        assert r["bit_identical"], r["dataset"]
        assert r["device_losses"] == 1, r["dataset"]
        assert r["overhead"] < RECOVERY_OVERHEAD_LIMIT, (
            r["dataset"], r["overhead"],
        )
