"""Registry dispatch — every algorithm through the engine's one door.

The iteration-engine refactor promises that a registry entry is all an
algorithm needs to inherit the adaptive runtime, the CPU reference and
the manifest path.  This bench holds the refactor to that promise: it
walks :func:`repro.engine.registered_algorithms` (no algorithm named in
this file's logic), runs each entry via :func:`repro.core.adaptive_run`
or, for an algorithm that is not adaptive-eligible, the default door
:func:`repro.core.run_default`, verifies against the registered CPU
reference, and emits one :class:`~repro.obs.RunManifest` per algorithm
through the report path.
"""

import numpy as np

from common import bench_workload, write_report
from repro.core import adaptive_run, run_default
from repro.engine import registered_algorithms
from repro.obs import build_manifest
from repro.utils.tables import Table

KEY = "p2p"


def _matches(info, values, oracle) -> bool:
    values = np.asarray(values)
    if np.issubdtype(values.dtype, np.floating):
        return bool(np.allclose(values, oracle))
    return bool(np.array_equal(values, oracle))


def build_report():
    graph, source = bench_workload(KEY, weighted=True)
    rows = {}
    manifests = []
    for info in registered_algorithms():
        src = source if info.source_based else -1
        if info.adaptive_eligible:
            result = adaptive_run(graph, info.name, src if info.source_based else None)
            mode = "adaptive"
        else:
            result = run_default(graph, src, info.name)
            mode = "default"
        oracle, cpu = info.cpu_run(graph, src)
        ok = _matches(info, result.values, oracle)
        rows[info.name] = (result, cpu, mode, ok)
        manifests.append(build_manifest(result, graph=graph, mode=mode))

    table = Table(
        ["algorithm", "mode", "iterations", "GPU (ms)", "CPU (ms)",
         "speedup", "verified"],
        title=f"registry dispatch: every registered algorithm on {KEY}",
    )
    for name, (traversal, cpu, mode, ok) in rows.items():
        table.add_row(
            [
                name,
                mode,
                traversal.num_iterations,
                f"{traversal.total_seconds * 1e3:.2f}",
                f"{cpu.seconds * 1e3:.2f}",
                f"{cpu.seconds / traversal.total_seconds:.2f}x",
                "yes" if ok else "MISMATCH",
            ]
        )
    return table.render(), rows, manifests


def test_registry_dispatch(benchmark):
    content, rows, manifests = benchmark.pedantic(
        build_report, rounds=1, iterations=1
    )
    write_report("registry_dispatch", content, manifest=manifests)

    # Every registered algorithm ran and verified against its reference.
    assert len(rows) >= 6
    for name, (traversal, cpu, mode, ok) in rows.items():
        assert ok, name
        assert traversal.num_iterations >= 1, name
    # One manifest per algorithm, each self-describing.
    assert len(manifests) == len(rows)
    for manifest, name in zip(manifests, rows):
        assert manifest.algorithm == name
        assert manifest.graph["num_nodes"] > 0
