"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro datasets                 # the six Table-1 analogues
    python -m repro devices                  # simulated device presets
    python -m repro algorithms               # registered algorithms + flags
    python -m repro run --algorithm pagerank --dataset citeseer --scale 0.02
    python -m repro run --dataset google --scale 0.05          # adaptive BFS
    python -m repro run --algorithm sssp --dataset amazon --mode U_T_BM
    python -m repro run --dataset google --scale 0.05 --mode resilient \
        --fault-plan '{"seed": 7, "launch_failure_rate": 0.1}'
    python -m repro run --file examples/roadnet.snap.txt \
        --manifest manifest.json --trace trace.json
    python -m repro characterize --dataset amazon --scale 0.05
    python -m repro compare --dataset citeseer --algorithm sssp
    python -m repro sweep-t3 --dataset google --scale 0.25
    python -m repro batch --file examples/roadnet.snap.txt \
        --queries examples/batch_queries.jsonl --manifest batch.json
    python -m repro serve --dataset co-road < queries.jsonl

``repro run`` is the one command that starts a single run: ``--mode``
and ``--devices`` pick the entry function, and a flag the chosen mode
never reads is refused (exit 2).  ``--file`` loads a real DIMACS / SNAP
/ MatrixMarket graph instead of a synthetic analogue.

Exit codes: 0 success, 1 verification mismatch, 2 a :class:`ReproError`
or a flag the run mode does not read (one line on stderr), 130 keyboard
interrupt.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from repro._version import __version__
from repro.core import RuntimeConfig, adaptive_run, run_default, run_static
from repro.errors import ReproError
from repro.core.tuning import sweep_t3, tune_t3
from repro.engine import get_algorithm
from repro.engine.incremental import run_incremental
from repro.graph.datasets import DATASETS, dataset_keys, make_dataset
from repro.graph.generators import attach_uniform_weights
from repro.graph.io import IngestLimits, IngestReport, load_graph
from repro.graph.properties import (
    characterize,
    largest_out_component_node,
    out_degree_histogram,
    sorted_unique,
)
from repro.gpusim.allocator import MemoryBudget
from repro.gpusim.device import device_registry
from repro.kernels import unordered_variants
from repro.kernels.variants import extended_variants
from repro.utils.tables import Table, format_seconds, format_si

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# Argument plumbing
# ----------------------------------------------------------------------

def _add_workload_args(parser: argparse.ArgumentParser, *, weighted_default=False):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--dataset", choices=dataset_keys(), help="synthetic analogue")
    group.add_argument("--file", help="DIMACS .gr / SNAP edge list / .mtx file")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset scale (fraction of paper size)")
    parser.add_argument("--seed", type=int, default=1, help="generator seed")
    parser.add_argument("--source", type=int, default=None,
                        help="source node (default: a well-connected node)")
    parser.add_argument("--device", choices=sorted(device_registry()),
                        default="c2070", help="simulated GPU")
    parser.add_argument("--mem-budget", default=None, metavar="SIZE",
                        help="device-memory budget (e.g. '256M', '1G'); every "
                        "CSR array, working set and checkpoint copy is charged "
                        "against it, and an overflow raises a DeviceOOMError "
                        "(recovered by --mode resilient)")
    io_group = parser.add_mutually_exclusive_group()
    io_group.add_argument("--strict-io", action="store_true",
                          help="strict ingestion for --file: self-loops, "
                          "duplicate edges and count mismatches are errors")
    io_group.add_argument("--lenient-io", action="store_true",
                          help="lenient ingestion for --file: quarantine and "
                          "repair self-loops / duplicates / dangling ids")
    parser.add_argument("--max-edges", type=int, default=None, metavar="N",
                        help="abort --file ingestion after N edges "
                        "(IngestLimitError, exit code 2)")


def _io_mode(args) -> Optional[str]:
    if args.strict_io:
        return "strict"
    if args.lenient_io:
        return "lenient"
    return None


def _resolve_workload(args, *, weighted: bool, resolve_source: bool = True):
    if args.dataset:
        graph = make_dataset(
            args.dataset, scale=args.scale, weighted=weighted, seed=args.seed
        )
    else:
        report = IngestReport()
        limits = (
            IngestLimits(max_edges=args.max_edges)
            if args.max_edges is not None
            else None
        )
        graph = load_graph(
            args.file, mode=_io_mode(args), limits=limits, report=report
        )
        if report.repairs or report.notes:
            summary = (
                f"[ingest] {report.path}: repaired {report.repairs} edges "
                f"(self-loops {report.self_loops_dropped}, duplicates "
                f"{report.duplicates_collapsed}, dangling {report.dangling_dropped})"
            )
            print(summary)
            for note in report.notes:
                print(f"[ingest] note: {note}")
        if weighted and not graph.has_weights:
            graph = attach_uniform_weights(graph, seed=args.seed)
    device = device_registry()[args.device]
    if not resolve_source:
        # Batch-style commands: every query carries its own source, so
        # skip the (BFS-powered) well-connected-source search entirely.
        return graph, None, device
    if args.source is not None:
        # Fail a bad --source here with one clear GraphError (exit 2)
        # instead of a raw IndexError deep in the kernels.
        graph._check_node(args.source)
        source = args.source
    else:
        source = largest_out_component_node(graph, seed=0)
    return graph, source, device


def _spec_params(args, info) -> dict:
    """Algorithm parameters (``--damping``, ``--tolerance``, ...) that
    this parser actually carries, keyed by the registry's param names."""
    return {
        name: getattr(args, name)
        for name in info.param_names
        if getattr(args, name, None) is not None
    }


def _values_match(values, oracle, *, exact: bool) -> bool:
    """Verify a run against its CPU reference: bit-identical when the
    spec declares ``cpu_exact``, else within 1e-9 absolute (PageRank's
    push order differs from the reference's, so ranks agree only to
    rounding)."""
    values, oracle = np.asarray(values), np.asarray(oracle)
    if exact or values.shape != oracle.shape:
        return bool(np.array_equal(values, oracle))
    return bool(np.max(np.abs(values - oracle), initial=0.0) < 1e-9)


def _make_memory(args, device):
    """Build the device-memory budget requested by ``--mem-budget``."""
    if args.mem_budget is None:
        return None
    return MemoryBudget(args.mem_budget, device=device)


def _fmt_bytes(nbytes: int) -> str:
    if nbytes >= 2**30:
        return f"{nbytes / 2**30:.2f} GiB"
    if nbytes >= 2**20:
        return f"{nbytes / 2**20:.2f} MiB"
    if nbytes >= 2**10:
        return f"{nbytes / 2**10:.1f} KiB"
    return f"{nbytes} B"


def _add_memory_rows(table, report) -> None:
    """Append a MemoryReport's headline numbers to a result table."""
    if report is None:
        return
    table.add_row(["memory budget", _fmt_bytes(report.capacity_bytes)])
    table.add_row(
        ["memory peak",
         f"{_fmt_bytes(report.peak_bytes)} ({report.peak_pressure:.0%})"]
    )
    if report.spill_events:
        table.add_row(
            ["memory spilled",
             f"{_fmt_bytes(report.spilled_bytes)} in {report.spill_events} events"]
        )
    if report.oom_events:
        table.add_row(["OOM events", report.oom_events])


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_datasets(args) -> int:
    table = Table(
        ["key", "domain", "paper nodes", "paper edges", "avg deg", "description"],
        title="dataset analogues (paper Table 1)",
    )
    for key in dataset_keys():
        spec = DATASETS[key]
        table.add_row(
            [
                key,
                spec.domain,
                format_si(spec.paper_nodes),
                format_si(spec.paper_edges),
                spec.paper_avg_outdegree,
                spec.description,
            ]
        )
    print(table.render())
    return 0


def cmd_devices(args) -> int:
    table = Table(
        ["key", "name", "SMs", "cores", "clock GHz", "mem GB/s"],
        title="simulated device presets",
    )
    for key, dev in device_registry().items():
        table.add_row(
            [key, dev.name, dev.num_sms, dev.total_cores, dev.clock_ghz,
             dev.mem_bandwidth_gbs]
        )
    print(table.render())
    return 0


def cmd_algorithms(args) -> int:
    """List every registered algorithm with its capability flags."""
    from repro.engine import registered_algorithms

    def yn(flag: bool) -> str:
        return "yes" if flag else "no"

    table = Table(
        ["name", "source", "weighted", "ordered", "checkpoint", "adaptive",
         "variants", "summary"],
        title="registered algorithms",
    )
    for info in registered_algorithms():
        flags = info.capability_flags()
        table.add_row(
            [
                info.name,
                yn(flags["source_based"]),
                yn(flags["weighted"]),
                yn(flags["ordered_support"]),
                yn(flags["checkpointable"]),
                yn(flags["adaptive_eligible"]),
                info.default_variant if flags["supports_variants"] else "-",
                info.summary,
            ]
        )
    print(table.render())
    return 0


# ----------------------------------------------------------------------
# repro run: one run through one door
# ----------------------------------------------------------------------

#: ``--mode`` values that name a single-device door; any other value is
#: a variant code for ``run_static`` (door "static").  ``--devices N``
#: picks door "sharded" (``run_sharded``).
_SINGLE_DEVICE = ("adaptive", "resilient", "default", "hybrid", "static")

#: doors whose entry function takes a RuntimeConfig
_CONFIGURED = ("adaptive", "resilient", "hybrid", "sharded")

#: Which doors read each mode-restricted ``repro run`` flag (by argparse
#: dest).  A flag the user set that the chosen door does not read exits
#: 2 before anything runs.  ``--damping``/``--tolerance`` and
#: ``--source`` follow the algorithm instead: its ``param_names`` and
#: ``source_based`` flag.
_FLAG_DOORS = {
    "mode": _SINGLE_DEVICE,
    "policy": ("adaptive",),
    "fuse": ("adaptive", "default", "static"),
    "warp_mapping": _CONFIGURED,
    "mem_budget": ("adaptive", "resilient", "default", "static", "sharded"),
    "trace": _SINGLE_DEVICE,
    "fault_plan": ("resilient", "sharded"),
    "max_retries": ("resilient", "sharded"),
    "checkpoint_every": ("resilient", "sharded"),
    "deadline": ("resilient",),
    "partition": ("sharded",),
    "interconnect": ("sharded",),
}

#: The row a whole-graph algorithm adds to the run table, computed from
#: the result values.
_SUMMARY_ROWS = {
    "cc": ("components", lambda v: len(sorted_unique(v))),
    "kcore": ("max core", lambda v: int(np.max(v, initial=0))),
    "pagerank": (
        "top nodes",
        lambda v: " ".join(str(int(i)) for i in np.argsort(v)[::-1][:5]),
    ),
}


def _door_flag(door: str, mode: Optional[str] = None) -> str:
    """How the command line picks *door*."""
    if door == "sharded":
        return "--devices"
    return f"--mode {mode or ('VARIANT' if door == 'static' else door)}"


def _unread_flag(args, info, door: str) -> Optional[str]:
    """One error line naming the first flag the user set that *door*
    (or the algorithm) never reads; None when every set flag is read."""
    for dest, doors in _FLAG_DOORS.items():
        value = getattr(args, dest)
        # Unset flags are None (store_true ones False); 0 is a set value.
        if value is not None and value is not False and door not in doors:
            readers = ", ".join(_door_flag(d) for d in doors)
            return (
                f"--{dest.replace('_', '-')} is not read by "
                f"{_door_flag(door, args.mode)} (only by {readers})"
            )
    unread = [
        f"--{name}" for name in ("damping", "tolerance")
        if getattr(args, name) is not None and name not in info.param_names
    ]
    if args.source is not None and not info.source_based:
        unread.append("--source")
    if unread:
        return f"{unread[0]} is not read by --algorithm {info.name}"
    return None


def _call_door(door, args, info, graph, source, device, config, memory,
               params):
    """Run ``args.algorithm`` through the public entry function *door*
    names and return that function's result."""
    if door == "adaptive":
        return adaptive_run(
            graph, info.name, source, config=config, device=device,
            memory=memory, policy=args.policy, fuse=args.fuse, **params,
        )
    if door == "static":
        return run_static(
            graph, source, info.name, args.mode, device=device,
            memory=memory, fuse=args.fuse, **params,
        )
    if door == "default":
        return run_default(
            graph, source, info.name, device=device, memory=memory,
            fuse=args.fuse, **params,
        )
    if door == "hybrid":
        from repro.core.hybrid import hybrid_run

        return hybrid_run(graph, info.name, source, config=config, device=device)
    from repro.reliability import load_fault_plan

    plan = load_fault_plan(args.fault_plan) if args.fault_plan else None
    if door == "resilient":
        from repro.reliability import GuardConfig, resilient_run

        guard = GuardConfig(
            max_retries=args.max_retries,
            deadline_s=args.deadline,
            checkpoint_every=args.checkpoint_every,
            mem_budget=args.mem_budget,
        )
        return resilient_run(
            graph, info.name, source, config=config, device=device,
            guard=guard, plan=plan, **params,
        )
    from repro.engine.shard import run_sharded
    from repro.gpusim.interconnect import interconnect_registry

    optional = {
        "partition": args.partition,
        "checkpoint_every": args.checkpoint_every,
        "max_retries": args.max_retries,
        "mem_budget": args.mem_budget,
    }
    if args.interconnect is not None:
        optional["interconnect"] = interconnect_registry()[args.interconnect]
    return run_sharded(
        graph, source, algorithm=info.name, num_devices=args.devices,
        device=device, config=config, fault_plan=plan,
        **{k: v for k, v in optional.items() if v is not None}, **params,
    )


def _traversal_rows(table, door, result, info, graph, cpu) -> None:
    """Rows of a single-device run that is not guarded."""
    if info.source_based:
        table.add_row(
            ["reached nodes", f"{result.reached} / {graph.num_nodes}"]
        )
    table.add_row(["iterations", result.num_iterations])
    if door == "hybrid":
        table.add_row(["CPU iterations", result.cpu_iterations])
        table.add_row(["GPU iterations", result.gpu_iterations])
        table.add_row(["device transitions", result.transitions])
    table.add_row(["simulated GPU time", format_seconds(result.total_seconds)])
    table.add_row(["serial CPU baseline", format_seconds(cpu.seconds)])
    table.add_row(["speedup", f"{cpu.seconds / result.total_seconds:.2f}x"])
    _add_memory_rows(table, result.memory)
    stats = result.fusion
    if stats is None:
        return
    plan = stats.plan
    if not plan.fusible:
        table.add_row(["fusion refused", "; ".join(plan.refusals) or "n/a"])
        return
    table.add_row(
        ["fused launches",
         f"{stats.fused_iterations} of "
         f"{stats.fused_iterations + stats.refused_iterations} iterations"]
    )
    table.add_row(["launch overhead saved", format_seconds(stats.overhead_saved_s)])
    if stats.hoisted_h2d_bytes:
        table.add_row(["hoisted H2D payload", f"{stats.hoisted_h2d_bytes} B"])


def _resilient_rows(table, result, traversal) -> None:
    """Rows of a guarded run: the recovery ladder's story."""
    table.add_row(["served by", result.stage])
    table.add_row(["attempts", result.attempts])
    table.add_row(["faults seen", result.num_faults])
    for action, count in sorted(result.recovery_actions().items()):
        table.add_row([f"  recovery: {action}", count])
    table.add_row(["checkpoints saved", result.checkpoints_saved])
    table.add_row(["checkpoint restores", result.restores])
    table.add_row(["degraded to CPU", "yes" if result.degraded else "no"])
    if result.oom_rung:
        table.add_row(["OOM ladder rung", result.oom_rung])
    _add_memory_rows(table, result.memory)
    if traversal is not None:
        table.add_row(["iterations (final attempt)", traversal.num_iterations])
    table.add_row(
        ["simulated time (final attempt)", format_seconds(result.final_seconds)]
    )
    table.add_row(
        ["replayed simulated time", format_seconds(result.replayed_seconds)]
    )


def _sharded_rows(table, result, cpu) -> None:
    """Rows of a sharded multi-device run."""
    table.add_row(["super-iterations", result.super_iterations])
    table.add_row(["simulated time", format_seconds(result.sim_seconds)])
    table.add_row(["serial CPU baseline", format_seconds(cpu.seconds)])
    table.add_row(["exchange volume", format_si(result.exchange_bytes) + "B"])
    table.add_row(["exchange transfers", result.exchange_transfers])
    table.add_row(["stragglers flagged", result.stragglers])
    table.add_row(["recovery rung", result.recovery_rung])
    if result.device_losses:
        table.add_row(["device losses", result.device_losses])
        table.add_row(["shards migrated", result.migrations])
        table.add_row(
            ["super-iterations replayed", result.replayed_super_iterations]
        )
    table.add_row(["values sha256", result.values_sha256[:16] + "…"])


def cmd_run(args) -> int:
    """``repro run``: one run of a registered algorithm through the door
    (public entry function) that ``--mode`` / ``--devices`` pick,
    verified against the algorithm's CPU reference."""
    from repro.obs import (
        Observer, build_manifest, build_shard_manifest, export_combined_trace,
        observing,
    )

    info = get_algorithm(args.algorithm)
    mode = args.mode or ("adaptive" if info.adaptive_eligible else "default")
    if args.devices is not None:
        door = "sharded"
    else:
        door = mode if mode in _SINGLE_DEVICE else "static"
    problem = _unread_flag(args, info, door)
    if problem is None and door == "default" and info.supports_variants:
        problem = (
            f"'{args.algorithm}' has no default driver; use --mode "
            "adaptive or a variant code"
        )
    if problem is not None:
        print(f"repro run: {problem}", file=sys.stderr)
        return 2

    graph, source, device = _resolve_workload(
        args, weighted=info.weighted, resolve_source=info.source_based
    )
    source = info.resolve_source(graph, source)
    params = _spec_params(args, info)
    config = (
        RuntimeConfig(use_warp_mapping=args.warp_mapping)
        if door in _CONFIGURED else None
    )
    memory = (
        _make_memory(args, device)
        if door in ("adaptive", "default", "static") else None
    )
    observer = Observer() if args.manifest or args.trace else None
    with observing(observer):
        result = _call_door(
            door, args, info, graph, source, device, config, memory, params
        )
    if door == "adaptive" and result.policy is not None:
        mode = "learned"
    # The single-device run's TraversalResult: a guarded run's is the
    # attempt that answered; sharded and CPU-degraded runs have none.
    if door == "sharded" or (door == "resilient" and result.degraded):
        traversal = None
    else:
        traversal = result.result if door == "resilient" else result
    oracle, cpu = info.cpu_run(graph, source, **params)
    ok = _values_match(result.values, oracle, exact=info.cpu_exact)

    manifest = None
    if args.manifest:
        if door == "sharded":
            manifest = build_shard_manifest(
                result, graph=graph, device=device, config=config,
                observer=observer,
            )
        else:
            manifest = build_manifest(
                result, graph=graph, algorithm=args.algorithm,
                mode=mode + ("+fused" if args.fuse else ""), source=source,
                device=device, config=config, observer=observer,
            )
        manifest.write(args.manifest)

    if door == "sharded":
        title = (f"{args.algorithm} on {graph.name} "
                 f"(sharded x{args.devices}, {result.partition})")
    elif door == "resilient":
        title = f"guarded {args.algorithm.upper()} on {graph.name}"
    else:
        title = f"{args.algorithm} on {graph.name} ({mode})"
    table = Table(["metric", "value"], title=title)
    if manifest is not None:
        table.add_row(["graph digest", manifest.graph["digest"][:16]])
    if info.source_based:
        table.add_row(["source", source])
    if door == "sharded":
        _sharded_rows(table, result, cpu)
    elif door == "resilient":
        _resilient_rows(table, result, traversal)
    else:
        _traversal_rows(table, door, result, info, graph, cpu)
    if args.algorithm in _SUMMARY_ROWS:
        name, summarize = _SUMMARY_ROWS[args.algorithm]
        table.add_row([name, summarize(result.values)])
    table.add_row(["verified vs CPU reference", "yes" if ok else "MISMATCH"])
    print(table.render())

    if door == "adaptive":
        trace = result.trace
        line = (f"decisions: {trace.variants_chosen()}  "
                f"switches: {trace.num_switches}")
        if trace.num_memory_forced:
            line += f"  memory-forced: {trace.num_memory_forced}"
        print(line)
        if result.policy is not None:
            print(f"policy digest: {result.policy['digest'][:16]}…")
    elif door == "sharded":
        for event in result.recovery_events:
            print(
                f"[recovery: super-iteration {event.super_iteration} "
                f"shard {event.shard_index} device {event.device_index} "
                f"{event.fault_kind} -> {event.rung}]",
                file=sys.stderr,
            )
    if manifest is not None:
        print(f"[manifest written to {args.manifest}]")
    if args.trace:
        if traversal is None:
            print("[no simulated timeline to trace: CPU-degraded run]")
        else:
            export_combined_trace(
                traversal.timeline, args.trace,
                trace=result.trace, observer=observer,
            )
            print(f"[combined trace written to {args.trace} "
                  "(open in ui.perfetto.dev or chrome://tracing)]")
    return 0 if ok else 1


def cmd_characterize(args) -> int:
    graph, _, _ = _resolve_workload(args, weighted=False)
    c = characterize(graph, estimate_diameter=args.diameter, seed=0)
    table = Table(["attribute", "value"], title=f"characterization: {graph.name}")
    table.add_row(["nodes", c.num_nodes])
    table.add_row(["edges", c.num_edges])
    table.add_row(["min outdegree", c.min_out_degree])
    table.add_row(["max outdegree", c.max_out_degree])
    table.add_row(["avg outdegree", round(c.avg_out_degree, 2)])
    table.add_row(["outdegree std", round(c.out_degree_std, 2)])
    if c.pseudo_diameter is not None:
        table.add_row(["pseudo-diameter", c.pseudo_diameter])
    print(table.render())

    hist = out_degree_histogram(graph, n_bins=12)
    dist = Table(["outdegree", "nodes", "%"], title="outdegree distribution")
    for label, count, frac in zip(hist.bin_labels(), hist.counts, hist.fractions):
        dist.add_row([label, count, f"{100 * frac:.1f}%"])
    print()
    print(dist.render())
    return 0


def cmd_compare(args) -> int:
    info = get_algorithm(args.algorithm)
    graph, source, device = _resolve_workload(args, weighted=info.weighted)
    _, cpu = info.cpu_run(graph, source)
    variants = extended_variants() if args.extended else unordered_variants()

    table = Table(
        ["implementation", "time", "speedup", "iterations"],
        title=f"{args.algorithm.upper()} variant comparison on {graph.name}",
    )
    for variant in variants:
        result = run_static(graph, source, args.algorithm, variant, device=device)
        table.add_row(
            [
                variant.code,
                format_seconds(result.total_seconds),
                f"{cpu.seconds / result.total_seconds:.2f}x",
                result.num_iterations,
            ]
        )
    config = RuntimeConfig(use_warp_mapping=args.extended)
    ad = adaptive_run(graph, args.algorithm, source, config=config, device=device)
    table.add_row(
        [
            "adaptive" + ("+W" if args.extended else ""),
            format_seconds(ad.total_seconds),
            f"{cpu.seconds / ad.total_seconds:.2f}x",
            ad.num_iterations,
        ]
    )
    print(table.render())
    return 0


def cmd_oracle(args) -> int:
    from repro.core.oracle import decision_quality, per_iteration_oracle

    graph, source, device = _resolve_workload(
        args, weighted=get_algorithm(args.algorithm).weighted
    )
    report = per_iteration_oracle(graph, source, args.algorithm, device=device)
    ad = adaptive_run(graph, args.algorithm, source, device=device)
    quality = decision_quality(ad, report)
    best_code, best_secs = report.best_static()

    table = Table(
        ["metric", "value"],
        title=f"decision quality on {graph.name} ({args.algorithm.upper()})",
    )
    table.add_row(["oracle time", format_seconds(report.oracle_seconds)])
    table.add_row(["best static", f"{best_code} ({format_seconds(best_secs)})"])
    table.add_row(["adaptive (re-priced)", format_seconds(quality.realized_seconds)])
    table.add_row(["agreement with oracle", f"{quality.agreement:.0%}"])
    table.add_row(["regret vs oracle", f"{quality.regret:.1%}"])
    print(table.render())
    return 0


def cmd_fit_policy(args) -> int:
    """Fit a learned decision-tree policy from run manifests."""
    from repro.core import fit_policy, load_manifest_corpus

    corpus = load_manifest_corpus(args.manifests)
    artifact = fit_policy(
        corpus,
        max_depth=args.max_depth,
        min_samples_leaf=args.min_samples_leaf,
    )
    artifact.save(args.out)

    training = artifact.training
    table = Table(["metric", "value"], title="fit-policy")
    table.add_row(["manifests", len(training["manifests"])])
    table.add_row(["training samples", training["samples"]])
    table.add_row(["algorithms", ", ".join(training["algorithms"])])
    table.add_row(["variant classes", ", ".join(artifact.classes)])
    table.add_row(["tree depth", artifact.depth])
    table.add_row(["leaves", artifact.num_leaves])
    table.add_row(["digest", artifact.digest[:16]])
    print(table.render())
    for entry in training["manifests"]:
        print(
            f"  {entry['manifest']}: {entry['graph']} "
            f"{entry['algorithm']}/{entry['mode']} "
            f"({entry['decisions']} decisions)"
        )
    print(f"[policy written to {args.out}]")
    return 0


def cmd_sweep_t3(args) -> int:
    graph, source, device = _resolve_workload(args, weighted=True)
    fractions = [f / 100 for f in range(1, 14)]
    points = sweep_t3(graph, source, "sssp", fractions=fractions, device=device)
    table = Table(["T3 (% of nodes)", "time", "switches"],
                  title=f"T3 sweep on {graph.name}")
    for p in points:
        table.add_row(
            [f"{p.t3_fraction:.0%}", format_seconds(p.seconds), p.num_switches]
        )
    print(table.render())
    print(f"best T3: {tune_t3(points):.0%}")
    return 0


def _batch_weighted(queries) -> bool:
    """Whether any query's algorithm needs edge weights (unknown
    algorithm names are isolated later, not here)."""
    for query in queries:
        try:
            if get_algorithm(query.algorithm).weighted:
                return True
        except ReproError:
            continue
    return False


def _print_batch(batch, title: str) -> None:
    table = Table(
        ["#", "algorithm", "source", "mode", "path", "iters", "result"],
        title=title,
    )
    for q in batch.queries:
        result = (
            f"sha256:{q.values_sha256[:12]}" if q.ok else f"error: {q.error}"
        )
        table.add_row(
            [q.index, q.query.algorithm, q.query.source, q.query.mode,
             "batched" if q.batched else "fallback", q.iterations, result]
        )
    print(table.render())

    summary = Table(["metric", "value"], title="batch amortization")
    summary.add_row(["queries ok", f"{batch.ok_count} / {len(batch.queries)}"])
    summary.add_row(["simulated time", format_seconds(batch.total_seconds)])
    summary.add_row(["  fused batch", format_seconds(batch.batch_seconds)])
    summary.add_row(["  fallback runs", format_seconds(batch.fallback_seconds)])
    summary.add_row(["super-iterations", batch.super_iterations])
    summary.add_row(["fused launches", batch.fused_launches])
    summary.add_row(["launches saved", batch.launches_saved])
    summary.add_row(["readbacks saved", batch.readbacks_saved])
    print(summary.render())


def cmd_batch(args) -> int:
    """Answer a JSONL file of queries in one batched multi-source run."""
    from repro.obs import Observer, observing
    from repro.serve import BatchRunner, GraphSession, load_queries_jsonl

    queries = load_queries_jsonl(args.queries)
    graph, _, device = _resolve_workload(
        args, weighted=_batch_weighted(queries), resolve_source=False
    )
    observer = Observer()
    with observing(observer):
        session = GraphSession(graph, device=device, config=RuntimeConfig())
        runner = BatchRunner(session, max_iterations=args.max_iterations)
        batch = runner.run(queries)

    if args.manifest:
        manifest = runner.to_manifest(batch, observer=observer)
        manifest.write(args.manifest)

    _print_batch(
        batch,
        f"batch: {len(batch.queries)} queries on {graph.name} "
        f"(digest {batch.graph_digest[:12]})",
    )
    if args.manifest:
        print(f"[manifest written to {args.manifest}]")
    return 0 if batch.ok_count == len(batch.queries) else 1


def cmd_serve(args) -> int:
    """Serve queries from stdin: JSONL requests in, JSON answers out.

    Reads query objects line by line into the resilient
    :class:`~repro.serve.loop.ServeLoop` — a bounded admission queue
    (overload sheds with explicit error responses), per-query deadlines
    armed at admission, continuous batching into a fused multi-source
    frame with per-row fault isolation, and a circuit breaker across
    the batch/fallback paths.  One JSON result object is written per
    query.  Malformed lines become error objects; a library failure
    while serving becomes an error object; neither crashes the server.
    Ctrl-C drains what was already admitted, prints the summary and
    exits 130; a closed output pipe exits quietly.
    """
    import json as _json

    from repro.obs import Observer, observing
    from repro.serve import GraphSession, ServeLoop

    graph, _, device = _resolve_workload(
        args, weighted=True, resolve_source=False
    )
    injector = None
    if getattr(args, "fault_plan", None):
        from repro.reliability import FaultInjector, load_fault_plan

        plan = load_fault_plan(args.fault_plan)
        if not plan.is_empty:
            injector = FaultInjector(plan)

    observer = Observer()
    served = 0
    interrupted = False
    mutations_on = bool(getattr(args, "mutations", False))
    mutation_events_emitted = 0

    def emit(doc: dict) -> None:
        print(_json.dumps(doc, sort_keys=True), flush=True)

    def emit_responses(loop) -> None:
        nonlocal served, mutation_events_emitted
        for doc in loop.take_responses():
            emit(doc)
            served += 1
        events = loop.report.mutation_events
        while mutation_events_emitted < len(events):
            emit({"mutation": True, **events[mutation_events_emitted]})
            mutation_events_emitted += 1

    with observing(observer):
        session = GraphSession(graph, device=device, config=RuntimeConfig())
        loop = ServeLoop(
            session,
            queue_capacity=args.queue_capacity,
            max_batch_rows=args.batch_size,
            default_deadline_s=args.deadline_s,
            scheduler=args.scheduler,
            max_iterations=getattr(args, "max_iterations", None),
            fault_injector=injector,
            mutation_mode=_io_mode(args),
        )
        try:
            try:
                for lineno, line in enumerate(sys.stdin, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        doc = _json.loads(line)
                        if not isinstance(doc, dict):
                            raise ValueError(
                                "query line must be a JSON object"
                            )
                        if mutations_on and "op" in doc:
                            # A mutation line: validated now (bad ops
                            # answer with a line-numbered error), applied
                            # at the next super-iteration barrier.
                            from repro.graph.dynamic import EdgeBatch

                            loop.submit_mutation(
                                EdgeBatch.from_docs(
                                    [(lineno, doc)], path="<stdin>"
                                )
                            )
                        else:
                            loop.submit(doc, line=lineno)
                    except (ValueError, ReproError) as exc:
                        emit({"line": lineno, "ok": False,
                              "error": str(exc)})
                        continue
                    if len(loop.queue) >= args.batch_size:
                        try:
                            loop.pump()
                        except ReproError as exc:
                            # Isolated per-query failures are already
                            # responses; this is a serving-layer fault —
                            # report it and keep reading.
                            emit({"line": None, "ok": False,
                                  "error": f"serve: {exc}"})
                    emit_responses(loop)
                loop.drain()
            except KeyboardInterrupt:
                # Graceful shutdown: answer what was already admitted.
                interrupted = True
                try:
                    loop.drain()
                except (KeyboardInterrupt, ReproError):
                    pass
            emit_responses(loop)
        except BrokenPipeError:
            # Reader went away: nobody is listening — leave quietly.
            try:
                sys.stdout.close()
            except BrokenPipeError:
                pass
            sys.stdout = open(os.devnull, "w")
            interrupted = interrupted or False
        report = loop.finalize()
    if args.manifest:
        loop.to_manifest(observer=observer).write(args.manifest)
    try:
        if interrupted:
            print(
                "[interrupted: pending queries flushed, shutting down]",
                file=sys.stderr,
            )
        print(f"[served {served} queries]", file=sys.stderr)
        if mutations_on:
            print(
                f"[mutations: {report.mutations_applied} applied / "
                f"{report.mutations_rejected} rejected; graph epoch "
                f"{report.graph_epoch}]",
                file=sys.stderr,
            )
        wall = report.result_dict()["latency_wall_s"]
        print(
            f"[slo: p50 {wall['p50'] * 1e3:.1f} ms / "
            f"p99 {wall['p99'] * 1e3:.1f} ms wall; "
            f"shed {report.shed}; deadline misses {report.deadline_misses}; "
            f"rows ejected {report.rows_ejected}; "
            f"fallbacks {report.fallbacks}; "
            f"breaker trips {loop.breaker.total_trips}]",
            file=sys.stderr,
        )
        for move in report.breaker_transitions:
            print(
                f"[breaker: {move['key']} {move['from']} -> {move['to']} "
                f"({move['cause']})]",
                file=sys.stderr,
            )
        if args.manifest:
            print(f"[manifest written to {args.manifest}]", file=sys.stderr)
    except BrokenPipeError:  # pragma: no cover - stderr gone too
        pass
    return 130 if interrupted else 0


def _chaos_sharded(args) -> int:
    """`repro chaos --devices N`: device-loss soak over the sharded
    driver; exit 0 iff no crash, exactly-once, SHA parity with the
    1-device run, and every fault attributed to one fault domain."""
    from repro.graph.generators import power_law_graph
    from repro.obs import Observer, build_serve_manifest, observing
    from repro.serve.chaos import default_shard_chaos_plan, run_shard_chaos

    if args.fault_plan:
        from repro.reliability import load_fault_plan

        plan = load_fault_plan(args.fault_plan)
    else:
        plan = default_shard_chaos_plan(args.seed)

    graph = attach_uniform_weights(
        power_law_graph(args.nodes, seed=args.seed, name=f"shardchaos{args.nodes}"),
        seed=args.seed,
    )
    observer = Observer()
    with observing(observer):
        report = run_shard_chaos(
            num_queries=args.queries if args.queries is not None else 12,
            num_devices=args.devices,
            seed=args.seed,
            partition=args.partition,
            fault_plan=plan,
            graph=graph,
        )

    table = Table(["metric", "value"], title=f"shard chaos soak x{args.devices}")
    table.add_row(["queries", report.num_queries])
    table.add_row(["devices", report.num_devices])
    table.add_row(["partition", report.partition])
    table.add_row(["faults injected", report.faults_injected])
    table.add_row(["device losses", report.device_losses])
    table.add_row(["shards migrated", report.migrations])
    table.add_row(["rollbacks", report.restores])
    table.add_row(["cpu degradations", report.degraded_queries])
    table.add_row(["sha mismatches", report.sha_mismatches])
    table.add_row(["unattributed faults", report.unattributed_faults])
    table.add_row(["verdict", "PASS" if report.passed else "FAIL"])
    print(table.render())
    for violation in report.violations:
        print(f"violation: {violation}", file=sys.stderr)
    if args.manifest:
        manifest = build_serve_manifest(
            report.result_dict(), graph=graph, observer=observer
        )
        manifest.write(args.manifest)
        print(f"[manifest written to {args.manifest}]")
    return 0 if report.passed else 1


def cmd_chaos(args) -> int:
    """Seeded chaos soak over the serve loop; exit 0 iff every
    invariant held (no crash, exactly-once, SHA parity)."""
    from repro.obs import Observer, observing
    from repro.obs.manifest import build_serve_manifest
    from repro.serve.chaos import default_chaos_plan, run_chaos

    if getattr(args, "devices", 0) > 1:
        return _chaos_sharded(args)
    if args.fault_plan:
        from repro.reliability import load_fault_plan

        plan = load_fault_plan(args.fault_plan)
    else:
        plan = default_chaos_plan(args.seed)

    observer = Observer()
    with observing(observer):
        report = run_chaos(
            num_queries=args.queries if args.queries is not None else 200,
            num_nodes=args.nodes,
            seed=args.seed,
            fault_plan=plan,
            queue_capacity=args.queue_capacity,
            max_batch_rows=args.batch_size,
            deadline_s=args.deadline_s,
            scheduler=args.scheduler,
            mutation_batches=getattr(args, "mutations", 0),
        )

    doc = report.result_dict()
    table = Table(["metric", "value"], title="chaos soak")
    table.add_row(["queries", report.num_queries])
    table.add_row(["faults injected", report.faults_injected])
    table.add_row(["answered", doc["answered"]])
    table.add_row(["ok", doc["ok"]])
    table.add_row(["errors", doc["errors"]])
    table.add_row(["shed", doc["shed"]])
    table.add_row(["deadline misses", doc["deadline_misses"]])
    table.add_row(["rows ejected", doc["rows_ejected"]])
    table.add_row(["fallbacks", doc["fallbacks"]])
    table.add_row(["super-iterations", doc["super_iterations"]])
    table.add_row(["duplicates", report.duplicate_responses])
    table.add_row(["missing", report.missing_responses])
    table.add_row(["sha mismatches", report.sha_mismatches])
    if report.mutation_batches:
        table.add_row(["mutation batches", report.mutation_batches])
        table.add_row(["graph epoch", doc["graph_epoch"]])
        table.add_row(["digest mismatches", report.mutation_digest_mismatches])
    table.add_row(["verdict", "PASS" if report.passed else "FAIL"])
    print(table.render())
    for violation in report.violations:
        print(f"violation: {violation}", file=sys.stderr)
    if args.manifest:
        manifest = build_serve_manifest(
            doc,
            graph=report.session.graph,
            device=report.session.device,
            config=report.session.config,
            observer=observer,
        )
        manifest.write(args.manifest)
        print(f"[manifest written to {args.manifest}]")
    return 0 if report.passed else 1


def cmd_mutate(args) -> int:
    """Apply a mutation JSONL stream to a graph through the delta
    overlay, compact, and (optionally) recompute incrementally.

    A malformed or invalid batch fails with one line-numbered
    :class:`~repro.errors.GraphError` (exit 2) before any simulated
    cost accrues — never a retry ladder.  With ``--algorithm`` the
    command also runs the traversal twice — from scratch on the base
    graph, then incrementally after the mutation — and verifies the
    warm-started values are SHA-identical to a from-scratch run on the
    compacted graph.
    """
    from repro.core import adaptive_run
    from repro.graph.dynamic import DeltaOverlayGraph, EdgeBatch
    from repro.obs import (
        Observer, build_dynamic_manifest, observing, values_sha256,
    )

    info = get_algorithm(args.algorithm) if args.algorithm else None
    source_based = info is not None and info.source_based
    if not source_based and args.source is not None:
        reason = (
            "without --algorithm" if info is None
            else f"by --algorithm {info.name}"
        )
        print(f"repro mutate: --source is not read {reason}", file=sys.stderr)
        return 2
    batch = EdgeBatch.from_jsonl(args.mutations)
    weighted = (info is not None and info.weighted) or any(
        op.weight is not None for op in batch.ops if op.op == "insert"
    )
    graph, source, device = _resolve_workload(
        args, weighted=weighted, resolve_source=source_based
    )
    memory = _make_memory(args, device)

    observer = Observer()
    with observing(observer):
        overlay = DeltaOverlayGraph(graph)
        delta = overlay.apply(batch, mode=_io_mode(args))
        compaction = overlay.compact(
            device=device, memory=memory, name=graph.name
        )
    mutated = compaction.graph
    report = delta.report

    table = Table(["metric", "value"], title=f"mutate {graph.name}")
    table.add_row(["ops parsed", report.parsed_ops])
    table.add_row(["edges inserted", report.edges_inserted])
    table.add_row(["edges deleted", report.edges_deleted])
    table.add_row(["nodes added", report.nodes_added])
    if report.quarantined:
        table.add_row(
            ["quarantined",
             f"self-loops {report.self_loops_dropped}, duplicates "
             f"{report.duplicates_collapsed}, dangling "
             f"{report.dangling_dropped}, missing deletes "
             f"{report.missing_deletes_dropped}"]
        )
    table.add_row(["graph", f"{graph.num_nodes} nodes / {graph.num_edges} "
                   f"-> {mutated.num_nodes} / {mutated.num_edges} edges"])
    table.add_row(["epoch", overlay.epoch])
    table.add_row(["delta upload", _fmt_bytes(compaction.delta_bytes)])
    table.add_row(["compaction time", f"{compaction.seconds * 1e3:.3f} ms"])
    _add_memory_rows(table, memory.report() if memory is not None else None)

    result_doc = {
        "kind": "mutate",
        "mutation_events": [delta.event_dict()],
        "mutation_report": report.to_dict(),
        "compaction_seconds": float(compaction.seconds),
        "delta_bytes": int(compaction.delta_bytes),
        "graph_epoch": overlay.epoch,
    }

    exit_code = 0
    if info is not None:
        with observing(observer):
            previous = adaptive_run(graph, args.algorithm, source)
            incremental = run_incremental(
                mutated, args.algorithm, previous, delta,
                source=source, device=device,
            )
            scratch = adaptive_run(mutated, args.algorithm, source)
        digest = values_sha256(incremental.values)
        parity = digest == values_sha256(scratch.values)
        speedup = scratch.total_seconds / max(
            incremental.total_seconds, 1e-12
        )
        table.add_row(["algorithm", args.algorithm])
        table.add_row(["affected nodes", incremental.affected_nodes])
        table.add_row(["seed frontier", incremental.seed_frontier_size])
        table.add_row(
            ["incremental time",
             f"{incremental.total_seconds * 1e3:.3f} ms "
             f"(from-scratch {scratch.total_seconds * 1e3:.3f} ms, "
             f"{speedup:.1f}x)"]
        )
        table.add_row(["sha parity", "PASS" if parity else "FAIL"])
        result_doc["incremental"] = {
            "algorithm": args.algorithm,
            "affected_nodes": incremental.affected_nodes,
            "seed_frontier": incremental.seed_frontier_size,
            "incremental_seconds": float(incremental.total_seconds),
            "scratch_seconds": float(scratch.total_seconds),
            "values_sha256": digest,
            "parity": parity,
        }
        if not parity:
            exit_code = 1

    print(table.render())
    if args.out:
        from repro.graph.io import (
            write_dimacs, write_matrix_market, write_snap_edgelist,
        )

        out = str(args.out)
        if out.endswith(".gr"):
            write_dimacs(mutated, out)
        elif out.endswith(".mtx"):
            write_matrix_market(mutated, out)
        else:
            write_snap_edgelist(mutated, out)
        print(f"[mutated graph written to {out}]")
    if args.manifest:
        manifest = build_dynamic_manifest(
            result_doc, graph=mutated, device=device,
            config=RuntimeConfig(), observer=observer,
        )
        manifest.write(args.manifest)
        print(f"[manifest written to {args.manifest}]")
    return exit_code


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive GPU graph-algorithm runtime (Li & Becchi 2013) "
        "on a simulated SIMT GPU",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table-1 dataset analogues").set_defaults(
        func=cmd_datasets
    )
    sub.add_parser("devices", help="list simulated device presets").set_defaults(
        func=cmd_devices
    )
    sub.add_parser(
        "algorithms",
        help="list registered algorithms and their capability flags",
    ).set_defaults(func=cmd_algorithms)

    from repro.engine import registered_algorithms

    algorithms = registered_algorithms()
    algo_names = [info.name for info in algorithms]

    p = sub.add_parser(
        "run",
        help="one run of any registered algorithm: --mode / --devices "
        "pick the entry function",
        description="One run of any registered algorithm (see `repro "
        "algorithms`), verified against its CPU reference (exit 1 on a "
        "mismatch).  --mode and --devices pick the entry function: "
        "adaptive (adaptive_run), resilient (resilient_run: retry, "
        "fallback, checkpoint restore, CPU degradation), default "
        "(run_default: the algorithm's own policy, e.g. DO-BFS's "
        "direction switch), hybrid (hybrid_run: "
        "per-iteration CPU/GPU placement, bfs and sssp), a variant code "
        "like U_B_QU (run_static), or --devices N (run_sharded).  A flag "
        "the chosen mode does not read exits 2.",
    )
    _add_workload_args(p)
    p.add_argument("--algorithm", choices=algo_names, default="bfs")
    p.add_argument("--mode", default=None,
                   help="'adaptive', 'resilient', 'default', 'hybrid' or a "
                   "variant code like U_B_QU (default: adaptive when the "
                   "algorithm is eligible, else 'default')")
    p.add_argument("--damping", type=float, default=None,
                   help="PageRank damping factor (pagerank only)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="PageRank convergence tolerance (pagerank only)")
    p.add_argument("--devices", type=int, default=None, metavar="N",
                   help="shard the graph across N simulated devices "
                   "(batchable algorithms only; --devices 1 runs the "
                   "sharded driver on a single device, e.g. as the "
                   "bit-identity reference)")
    p.add_argument("--partition", choices=("contiguous", "balanced"),
                   default=None,
                   help="1D vertex partitioning strategy for --devices "
                   "(default: contiguous)")
    p.add_argument("--interconnect", choices=("pcie", "nvlink"),
                   default=None,
                   help="peer link pricing for frontier exchange "
                   "(--devices; default: pcie)")
    p.add_argument("--manifest", default=None, metavar="FILE",
                   help="write the run's RunManifest JSON here: config, "
                   "graph fingerprint, decisions, metrics, spans, memory "
                   "peaks and fault events")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write the combined Perfetto/chrome-trace JSON: "
                   "kernels, transfers, decisions, faults and profiler "
                   "spans on one timeline (single-device modes)")
    p.add_argument("--fuse", action="store_true",
                   help="lower the run through the spec-fusion pass "
                   "(repro.engine.fusion): merge computation+generation "
                   "launches and hoist loop-invariant H2D payloads where "
                   "the plan permits; values stay bit-identical (adaptive, "
                   "default and variant modes)")
    p.add_argument("--policy", default=None, metavar="SPEC",
                   help="drive adaptive decisions with a fitted policy "
                   "artifact: 'learned:<policy.json>' (see fit-policy); "
                   "the manifest records mode 'learned' plus the digest")
    p.add_argument("--warp-mapping", action="store_true",
                   help="let the decision maker pick the virtual-warp "
                   "mapping (adaptive, resilient, hybrid, --devices)")
    p.add_argument("--fault-plan", default=None, metavar="JSON",
                   help="fault-injection plan for --mode resilient or "
                   "--devices: inline JSON or a file path (keys: seed, "
                   "launch_failure_rate, memory_fault_rate, "
                   "latency_spike_rate, latency_spike_factor, "
                   "device_loss_rate, device, kinds, max_faults)")
    p.add_argument("--max-retries", type=int, default=None,
                   help="consecutive no-progress failures before degrading "
                   "to the CPU baseline (--mode resilient, --devices; "
                   "default: exhaust the ladder)")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="wall-clock deadline for the whole guarded query "
                   "(--mode resilient)")
    p.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                   help="checkpoint every N iterations (--mode resilient, "
                   "--devices; default: cost-aware policy bounded by a 2%% "
                   "overhead budget)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("characterize", help="Table-1-style graph characterization")
    _add_workload_args(p)
    p.add_argument("--diameter", action="store_true", help="estimate pseudo-diameter")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("compare", help="run every variant plus the adaptive runtime")
    _add_workload_args(p)
    p.add_argument("--algorithm", choices=("bfs", "sssp"), default="sssp")
    p.add_argument("--extended", action="store_true",
                   help="include the virtual-warp variants")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "fit-policy",
        help="fit a learned decision-tree policy from run manifests",
        description="Extract per-iteration decision features from one or "
        "more RunManifest JSON files (repro run --manifest …), label each "
        "decision with the cheapest kernel variant under the cost model, "
        "and fit a small cost-sensitive decision tree.  The resulting "
        "policy.json is a versioned, digest-pinned artifact accepted by "
        "'repro run --policy learned:policy.json'.",
    )
    p.add_argument("manifests", nargs="+", metavar="MANIFEST",
                   help="RunManifest JSON files with decision traces")
    p.add_argument("--out", default="policy.json", metavar="FILE",
                   help="policy artifact output path (default: policy.json)")
    p.add_argument("--max-depth", type=int, default=8,
                   help="decision-tree depth cap (default: 8)")
    p.add_argument("--min-samples-leaf", type=int, default=2,
                   help="minimum training samples per leaf (default: 2)")
    p.set_defaults(func=cmd_fit_policy)

    p = sub.add_parser(
        "batch",
        help="answer a JSONL file of queries in one batched multi-source "
        "run over a shared graph session",
        description="Ingest the graph once (a GraphSession), then answer "
        "every query of a JSONL file: batch-capable queries share one "
        "fused multi-source host loop (amortizing per-iteration "
        "readbacks and kernel launches), the rest fall back to guarded "
        "single-source runs.  Failed queries are isolated, reported per "
        "row, and turn the exit code to 1 without stopping the batch.",
    )
    _add_workload_args(p)
    p.add_argument("--queries", required=True, metavar="FILE",
                   help="JSONL query file: one JSON object per line with "
                   "keys algorithm (default 'bfs'), source (required), "
                   "mode (default 'adaptive')")
    p.add_argument("--manifest", default=None, metavar="FILE",
                   help="write the batch RunManifest JSON here")
    p.add_argument("--max-iterations", type=int, default=None,
                   help="per-query iteration budget")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "serve",
        help="serve queries from stdin against one graph session "
        "(JSONL requests in, JSON answers out)",
        description="A resilient continuous-batching server: a bounded "
        "admission queue sheds overload with explicit error responses, "
        "deadlines start at admission, new queries join the running "
        "fused frame at the next super-iteration, and per-row faults "
        "eject one query to the guarded fallback while the rest of the "
        "batch keeps running.",
    )
    _add_workload_args(p)
    p.add_argument("--batch-size", type=int, default=32,
                   help="max rows resident in the fused frame at once")
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="admission-queue bound; overload sheds with "
                   "explicit error responses")
    p.add_argument("--deadline-s", type=float, default=None,
                   help="default per-query wall-clock deadline, armed at "
                   "admission (queries may carry their own deadline_s)")
    p.add_argument("--scheduler", choices=("continuous", "drain"),
                   default="continuous",
                   help="continuous batching vs drain-then-refill")
    p.add_argument("--fault-plan", default=None, metavar="JSON|FILE",
                   help="inject seeded faults while serving (chaos)")
    p.add_argument("--max-iterations", type=int, default=None,
                   help="per-query iteration budget")
    p.add_argument("--mutations", action="store_true",
                   help="accept interleaved mutation lines on stdin "
                   "(JSON objects with an 'op' key: insert/delete/grow); "
                   "batches apply at super-iteration barriers and bump "
                   "the graph epoch tagged on every response")
    p.add_argument("--manifest", default=None, metavar="FILE",
                   help="write the serve RunManifest JSON here on exit")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "chaos",
        help="seeded chaos soak over the serve loop (no crash, "
        "exactly-once, SHA parity)",
        description="Run a seeded query stream through the serve loop "
        "under an aggressive fault plan, deadline pressure and a "
        "bounded queue, then check the resilience invariants against a "
        "fault-free reference run.  Exit 0 iff all invariants held.",
    )
    p.add_argument("--queries", type=int, default=None,
                   help="queries in the soak stream (default: 200 for the "
                   "serve soak, 12 for the sharded --devices soak)")
    p.add_argument("--nodes", type=int, default=600,
                   help="size of the generated chaos graph")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the graph, query stream and fault plan")
    p.add_argument("--fault-plan", default=None, metavar="JSON|FILE",
                   help="override the default chaos fault plan")
    p.add_argument("--queue-capacity", type=int, default=48,
                   help="admission-queue bound during the soak")
    p.add_argument("--batch-size", type=int, default=16,
                   help="max rows resident in the fused frame")
    p.add_argument("--deadline-s", type=float, default=5.0,
                   help="deadline carried by a slice of the queries")
    p.add_argument("--scheduler", choices=("continuous", "drain"),
                   default="continuous")
    p.add_argument("--devices", type=int, default=0, metavar="N",
                   help="run the device-loss soak over the N-device "
                   "sharded driver instead of the serve loop")
    p.add_argument("--partition", choices=("contiguous", "balanced"),
                   default="contiguous",
                   help="partitioning strategy for the sharded soak")
    p.add_argument("--mutations", type=int, default=0, metavar="N",
                   help="interleave N seeded mutation batches with the "
                   "query stream: the soak turns epoch-aware (per-epoch "
                   "SHA parity, post-compaction digest checks)")
    p.add_argument("--manifest", default=None, metavar="FILE",
                   help="write the soak's RunManifest JSON here")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "mutate",
        help="apply a mutation JSONL stream through the delta overlay, "
        "compact, and optionally recompute incrementally",
        description="Validate and apply a JSONL stream of graph "
        "mutations (insert/delete/grow) to a delta-CSR overlay, price "
        "the compaction (host rebuild + delta PCIe upload), and print "
        "the mutation report.  A malformed batch fails with one "
        "line-numbered error (exit 2) before any simulated cost "
        "accrues.  With --algorithm the command warm-starts the "
        "traversal from the pre-mutation values and verifies the "
        "incremental result is SHA-identical to a from-scratch run on "
        "the compacted graph (mismatch: exit 1).",
    )
    _add_workload_args(p)
    p.add_argument("--mutations", required=True, metavar="FILE",
                   help="mutation JSONL: one op per line, e.g. "
                   '{"op": "insert", "u": 0, "v": 9, "weight": 2.0} / '
                   '{"op": "delete", "u": 3, "v": 7} / '
                   '{"op": "grow", "nodes": 16}')
    p.add_argument("--algorithm",
                   choices=[info.name for info in algorithms if info.incremental],
                   default=None,
                   help="also recompute incrementally and verify SHA "
                   "parity against a from-scratch run")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the compacted mutated graph (.gr / .mtx "
                   "/ SNAP edge list by extension)")
    p.add_argument("--manifest", default=None, metavar="FILE",
                   help="write a dynamic RunManifest with the mutation "
                   "events here")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("sweep-t3", help="Figure-13-style T3 sensitivity sweep")
    _add_workload_args(p)
    p.set_defaults(func=cmd_sweep_t3)

    p = sub.add_parser(
        "oracle", help="score the adaptive decisions vs a per-iteration oracle"
    )
    _add_workload_args(p)
    p.add_argument("--algorithm", choices=("bfs", "sssp"), default="sssp")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns a process exit code.

    Library failures (:class:`ReproError`) are reported as one line on
    stderr with exit code 2; a keyboard interrupt exits 130 — a service
    wrapper can discriminate "bad request / bad config" from crashes.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
