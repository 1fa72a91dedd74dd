"""Shared infrastructure for the paper-reproduction benchmarks.

Every bench regenerates one table or figure from the paper's evaluation
(Section VII) on the synthetic dataset analogues, prints the rows, and
writes them to ``benchmarks/results/<name>.txt`` so runs are diffable.

Scales are chosen per dataset so the full suite finishes in minutes on a
laptop while every graph stays large enough to exercise the decision
space (working sets crossing T2 and T3).  ``p2p`` runs at the paper's
full size — it is small in the original too.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Tuple

from repro.cpu import CpuBfsResult, CpuSsspResult, cpu_bfs, cpu_dijkstra
from repro.graph.csr import CSRGraph
from repro.graph.datasets import dataset_keys, make_dataset
from repro.graph.properties import largest_out_component_node

__all__ = [
    "BENCH_SCALES",
    "RESULTS_DIR",
    "bench_graph",
    "bench_workload",
    "write_report",
    "dataset_keys",
]

#: per-dataset scale for the table/figure benches
BENCH_SCALES: Dict[str, float] = {
    "co-road": 0.05,
    "citeseer": 0.05,
    "p2p": 1.0,
    "amazon": 0.05,
    "google": 0.05,
    "sns": 0.02,
}

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_GRAPH_CACHE: Dict[Tuple, CSRGraph] = {}
_SOURCE_CACHE: Dict[Tuple, int] = {}
_CPU_CACHE: Dict[Tuple, object] = {}


def bench_graph(
    key: str,
    *,
    weighted: bool = False,
    scale: Optional[float] = None,
    seed: int = 1,
) -> CSRGraph:
    """The cached benchmark instance of dataset *key*."""
    scale = BENCH_SCALES[key] if scale is None else scale
    cache_key = (key, weighted, scale, seed)
    if cache_key not in _GRAPH_CACHE:
        _GRAPH_CACHE[cache_key] = make_dataset(
            key, scale=scale, weighted=weighted, seed=seed
        )
    return _GRAPH_CACHE[cache_key]


def bench_source(graph: CSRGraph, key: str) -> int:
    cache_key = (key, graph.num_nodes)
    if cache_key not in _SOURCE_CACHE:
        _SOURCE_CACHE[cache_key] = largest_out_component_node(graph, seed=0)
    return _SOURCE_CACHE[cache_key]


def bench_workload(
    key: str, *, weighted: bool = False, scale: Optional[float] = None
) -> Tuple[CSRGraph, int]:
    """(graph, source) for dataset *key* at its bench scale."""
    graph = bench_graph(key, weighted=weighted, scale=scale)
    return graph, bench_source(graph, key)


def cpu_baseline_bfs(key: str, scale: Optional[float] = None) -> CpuBfsResult:
    graph, source = bench_workload(key, weighted=False, scale=scale)
    cache_key = ("bfs", key, graph.num_nodes)
    if cache_key not in _CPU_CACHE:
        _CPU_CACHE[cache_key] = cpu_bfs(graph, source)
    return _CPU_CACHE[cache_key]


def cpu_baseline_sssp(key: str, scale: Optional[float] = None) -> CpuSsspResult:
    graph, source = bench_workload(key, weighted=True, scale=scale)
    cache_key = ("sssp", key, graph.num_nodes)
    if cache_key not in _CPU_CACHE:
        _CPU_CACHE[cache_key] = cpu_dijkstra(graph, source)
    return _CPU_CACHE[cache_key]


def write_report(
    name: str,
    content: str,
    data: Optional[dict] = None,
    *,
    memory=None,
    manifest=None,
) -> str:
    """Write a bench report under ``benchmarks/results`` and echo it.

    Besides the human-readable ``<name>.txt``, a machine-readable
    ``<name>.json`` is written when the bench passes structured rows
    via *data* or memory reports via *memory* (a JSON copy of the text
    alone would say nothing the ``.txt`` does not).

    Pass a :class:`~repro.gpusim.allocator.MemoryReport` (or a list of
    them) via *memory* to append the device-memory accounting — peak,
    current, per-category and spill totals — to both the text and the
    JSON payload.

    Pass a :class:`~repro.obs.RunManifest` (or a list of them) via
    *manifest* to write ``<name>.manifest.json`` next to the report —
    the run's full machine-readable story (config, graph fingerprint,
    decisions, metrics, memory, faults).  A list is written as a JSON
    array of manifest documents.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    if memory is not None:
        reports = memory if isinstance(memory, (list, tuple)) else [memory]
        lines = ["", "device memory:"]
        for rep in reports:
            lines.append(
                f"  peak {rep.peak_bytes:,} / {rep.capacity_bytes:,} bytes "
                f"({rep.peak_pressure:.0%}), current {rep.current_bytes:,}, "
                f"spilled {rep.spilled_bytes:,} in {rep.spill_events} events, "
                f"{rep.oom_events} OOM"
            )
        content = content.rstrip("\n") + "\n" + "\n".join(lines)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content if content.endswith("\n") else content + "\n")
    written = []
    if data is not None or memory is not None:
        payload = {"name": name, **(data or {})}
        if memory is not None:
            payload["memory"] = [rep.to_dict() for rep in reports]
        json_path = os.path.join(RESULTS_DIR, f"{name}.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        written.append(".json")
    if manifest is not None:
        manifests = (
            manifest if isinstance(manifest, (list, tuple)) else [manifest]
        )
        docs = [m.to_dict() for m in manifests]
        manifest_path = os.path.join(RESULTS_DIR, f"{name}.manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(docs[0] if len(docs) == 1 else docs, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        written.append(".manifest.json")
    extra = f" (+ {', '.join(written)})" if written else ""
    print(f"\n{content}\n[report written to {path}{extra}]")
    return path
