"""Observability must be free when it is off.

The observer seam is the same pattern as the fault-injection hook: one
module-global read plus an ``is None`` test on every instrument point.
This bench guards two promises:

- **Correctness under observation**: running with an Observer installed
  changes *nothing* about the simulation — simulated seconds are
  bit-identical and the answers match, because the instrumentation only
  reads what the traversal already computed.
- **Disabled-path overhead ~0%**: the per-check cost of the
  ``current_observer() is None`` test, measured directly, is orders of
  magnitude below one simulated iteration's host-side work, so leaving
  the instrumentation compiled in costs nothing measurable.

Wall-clock A/B comparisons of whole traversals are too noisy for CI, so
the overhead claim is made on the microbenchmark: checks per second vs
iterations per second, reported as cost per iteration's worth of checks.
"""

import time
import timeit

import numpy as np

from common import bench_workload, write_report
from repro.core import adaptive_run
from repro.obs import Observer, build_manifest, observing
from repro.obs.context import current_observer
from repro.utils.tables import Table

#: instrument points consulted per iteration (frame, launch validate,
#: two kernel pricings, policy bookkeeping) — a generous upper bound
CHECKS_PER_ITERATION = 8


def measure():
    graph, source = bench_workload("google")

    # --- bit-identical simulation with and without an observer ---
    base = adaptive_run(graph, "bfs", source)
    observer = Observer()
    with observing(observer):
        observed = adaptive_run(graph, "bfs", source)
    assert np.array_equal(base.values, observed.values)
    assert base.total_seconds == observed.total_seconds  # bit-identical
    assert base.num_iterations == observed.num_iterations

    # --- disabled-path cost: one current_observer() is None test ---
    assert current_observer() is None
    n = 200_000
    per_check_s = timeit.timeit(
        "current_observer() is None",
        globals={"current_observer": current_observer},
        number=n,
    ) / n

    # --- scale: host wall-clock of one traversal iteration ---
    t0 = time.perf_counter()
    repeat = 3
    for _ in range(repeat):
        adaptive_run(graph, "bfs", source)
    wall_per_iter_s = (time.perf_counter() - t0) / (
        repeat * base.num_iterations
    )

    overhead = CHECKS_PER_ITERATION * per_check_s / wall_per_iter_s
    manifest = build_manifest(
        observed, graph=graph, algorithm="bfs", mode="adaptive",
        source=source, observer=observer,
    )
    return {
        "per_check_ns": per_check_s * 1e9,
        "wall_per_iter_us": wall_per_iter_s * 1e6,
        "overhead_fraction": overhead,
        "iterations": base.num_iterations,
        "sim_seconds_identical": True,
    }, manifest


def build_report():
    stats, manifest = measure()
    table = Table(["metric", "value"], title="observability overhead (disabled path)")
    table.add_row(["simulated seconds, observed vs not", "bit-identical"])
    table.add_row(["one current_observer() check", f"{stats['per_check_ns']:.0f} ns"])
    table.add_row(["host time per iteration", f"{stats['wall_per_iter_us']:.0f} us"])
    table.add_row(
        [f"overhead ({CHECKS_PER_ITERATION} checks/iteration)",
         f"{stats['overhead_fraction']:.4%}"],
    )
    return table.render(), stats, manifest


def test_observability_overhead(benchmark):
    content, stats, manifest = benchmark.pedantic(
        build_report, rounds=1, iterations=1
    )
    write_report(
        "observability_overhead", content, data=stats, manifest=manifest
    )
    # The disabled path costs well under 1% of an iteration's host work.
    assert stats["overhead_fraction"] < 0.01, stats
    assert stats["sim_seconds_identical"]
