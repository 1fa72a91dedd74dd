#!/usr/bin/env python
"""End-to-end smoke scenarios for the shipped CLI.

Usage::

    python tools/smoke.py [NAME...]

runs the named scenarios (every scenario when no name is given) and
exits 0 when all of them pass, 1 when any fails, 2 for an unknown name.
Each scenario runs in a fresh temporary directory holding a link to the
repository's ``examples/``; its commands run as ``python -m repro ...``
subprocesses with the repository's ``src/`` on ``PYTHONPATH``, and its
checks read back what they wrote.  The CI ``smoke`` job runs one
scenario per entry of its ``matrix.scenario`` list, which must equal
:data:`SCENARIOS` (a tier-1 test asserts it).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


class SmokeFailure(Exception):
    """A scenario command exited non-zero."""


def _run(argv, *, stdin=None, cwd=None):
    """Run *argv* with ``src/`` importable; a non-zero exit fails the
    scenario with the command's output attached."""
    print("$", " ".join(str(a) for a in argv), flush=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [str(a) for a in argv], input=stdin, cwd=cwd, env=env,
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SmokeFailure(
            f"exit {proc.returncode}: {' '.join(str(a) for a in argv)}\n"
            f"{proc.stdout}{proc.stderr}"
        )
    return proc


def repro(*args, stdin=None):
    """``python -m repro ARGS`` in the scenario directory."""
    return _run([sys.executable, "-m", "repro", *args], stdin=stdin)


def run_pytest(*args):
    """``python -m pytest ARGS`` from the repository root (its config)."""
    return _run([sys.executable, "-m", "pytest", *args], cwd=REPO_ROOT)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sha(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def batch():
    """16 queries in one batch, manifest out, exit 0; then the read-path
    gate."""
    repro("batch", "--file", "examples/roadnet.snap.txt",
          "--queries", "examples/batch_queries.jsonl",
          "--manifest", "batch-manifest.json")
    doc = _load("batch-manifest.json")
    assert doc["algorithm"] == "batch", doc["algorithm"]
    assert doc["result"]["failed"] == 0, doc["result"]

    # Read-path gate: every query and served answer's SHA-256 against
    # repro.cpu, and counts that repeat between passes.
    run_pytest("perfbench", "-q", "-k", "social and (query or serve)")


def serve_chaos():
    """Seeded chaos soak, then a faulty serve over stdin."""
    repro("chaos", "--queries", "32", "--nodes", "300", "--seed", "2",
          "--deadline-s", "5", "--queue-capacity", "24", "--batch-size", "8",
          "--manifest", "chaos-manifest.json")
    doc = _load("chaos-manifest.json")
    assert doc["result"]["kind"] == "chaos", doc["result"]
    assert doc["result"]["passed"] is True, doc["result"]
    assert doc["result"]["num_queries"] == 32, doc["result"]

    # One JSON answer per line, exit 0.
    queries = [json.dumps({"algorithm": "bfs", "source": i}) for i in range(16)]
    plan = json.dumps(
        {"seed": 5, "memory_fault_rate": 0.05, "launch_failure_rate": 0.03}
    )
    proc = repro("serve", "--file", "examples/roadnet.snap.txt",
                 "--fault-plan", plan, "--deadline-s", "30",
                 "--queue-capacity", "32", "--batch-size", "8",
                 stdin="\n".join(queries) + "\n")
    assert "Traceback" not in proc.stderr, proc.stderr
    answers = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    assert sorted(a["line"] for a in answers) == list(range(1, 17)), answers


def shard_chaos():
    """A device loss mid-run recovers SHA-identical to the unsharded run;
    then the sharded chaos soak."""
    repro("run", "--algorithm", "bfs", "--dataset", "sns", "--scale", "0.02",
          "--devices", "1", "--manifest", "shard-ref.json")
    repro("run", "--algorithm", "bfs", "--dataset", "sns", "--scale", "0.02",
          "--devices", "4", "--partition", "balanced",
          "--fault-plan",
          '{"seed": 11, "device_loss_rate": 0.25, "device": 1, "max_faults": 1}',
          "--checkpoint-every", "2", "--manifest", "shard-loss.json")
    ref = _load("shard-ref.json")
    doc = _load("shard-loss.json")
    assert doc["mode"] == "sharded", doc["mode"]
    assert doc["result"]["num_devices"] == 4, doc["result"]
    assert doc["faults"], "no fault was injected"
    assert doc["faults"][0]["device"] == 1, doc["faults"]
    rung = doc["reliability"]["recovery_rung"]
    assert rung in ("retry", "restore", "cpu"), rung
    assert doc["result"]["values_sha256"] == ref["result"]["values_sha256"], (
        "value SHA diverged"
    )
    repro("chaos", "--devices", "4", "--queries", "8", "--nodes", "400",
          "--seed", "1")


def learned_policy():
    """Seed a manifest corpus, fit a policy, deploy it; the learned run's
    values are SHA-identical to the threshold policy's."""
    repro("run", "--dataset", "citeseer", "--scale", "0.05", "--seed", "1",
          "--algorithm", "sssp", "--manifest", "corpus-citeseer.json")
    repro("run", "--dataset", "co-road", "--scale", "0.05", "--seed", "2",
          "--algorithm", "sssp", "--manifest", "corpus-co-road.json")
    repro("fit-policy", "corpus-citeseer.json", "corpus-co-road.json",
          "--out", "policy.json")
    repro("run", "--algorithm", "sssp", "--dataset", "citeseer",
          "--scale", "0.05", "--seed", "1", "--policy", "learned:policy.json")

    from repro.core import PolicyArtifact, adaptive_run
    from repro.graph.datasets import make_dataset
    from repro.obs import build_manifest

    artifact = PolicyArtifact.load("policy.json")
    graph = make_dataset("citeseer", scale=0.05, weighted=True, seed=1)
    threshold = adaptive_run(graph, "sssp", 358)
    learned = adaptive_run(graph, "sssp", 358, policy=artifact)
    assert _sha(threshold.values) == _sha(learned.values), "value SHA diverged"
    assert learned.policy["digest"] == artifact.digest

    manifest = build_manifest(learned, graph=graph, algorithm="sssp",
                              mode="learned", source=358)
    doc = json.loads(manifest.to_json())
    assert doc["mode"] == "learned", doc["mode"]
    assert doc["policy"]["digest"] == artifact.digest, doc["policy"]


def dynamic():
    """Mutate + incremental parity, a mutation stream mid-serve, the
    mutating chaos soak and the write-path gate."""
    from repro.core.runtime import adaptive_run
    from repro.graph.dynamic import DeltaOverlayGraph, EdgeBatch
    from repro.graph.io import load_graph

    n = load_graph("examples/roadnet.snap.txt").num_nodes
    with open("muts.jsonl", "w", encoding="utf-8") as fh:
        for doc in ({"op": "grow", "nodes": 2},
                    {"op": "insert", "u": n, "v": 0},
                    {"op": "insert", "u": 0, "v": n + 1}):
            fh.write(json.dumps(doc) + "\n")
    repro("mutate", "--file", "examples/roadnet.snap.txt",
          "--mutations", "muts.jsonl", "--algorithm", "bfs", "--source", "0",
          "--manifest", "mutate-manifest.json")
    doc = _load("mutate-manifest.json")
    assert doc["mode"] == "dynamic", doc["mode"]
    assert doc["result"]["kind"] == "mutate", doc["result"]
    assert doc["result"]["graph_epoch"] == 1, doc["result"]
    assert doc["result"]["incremental"]["parity"] is True, doc["result"]
    assert doc["result"]["mutation_events"][0]["inserted"] == 2, doc["result"]

    # Mutation stream mid-serve: exactly-once + post-compaction SHA parity.
    graph = load_graph("examples/roadnet.snap.txt")
    row = graph.col_indices[graph.row_offsets[0]:graph.row_offsets[1]]
    absent = next(v for v in range(1, graph.num_nodes)
                  if v not in set(int(x) for x in row))
    op = {"op": "insert", "u": 0, "v": absent}
    lines = (
        [json.dumps({"algorithm": "bfs", "source": 0})]
        + [json.dumps(op)]
        + [json.dumps({"algorithm": "bfs", "source": s}) for s in range(4)]
    )
    proc = repro("serve", "--file", "examples/roadnet.snap.txt",
                 "--mutations", "--batch-size", "1",
                 stdin="\n".join(lines) + "\n")
    assert "Traceback" not in proc.stderr, proc.stderr
    docs = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    answers = {d["line"]: d for d in docs if d.get("line")}
    events = [d for d in docs if d.get("mutation")]
    # Exactly one answer per query line, none dropped, none duplicated.
    assert sorted(answers) == [1, 3, 4, 5, 6], sorted(answers)
    assert all(answers[k]["ok"] for k in answers), answers
    # The pre-mutation answer rode epoch 0, post-mutation ones epoch 1...
    assert answers[1]["graph_epoch"] == 0, answers[1]
    assert [answers[k]["graph_epoch"] for k in (3, 4, 5, 6)] == [1] * 4
    # ...and both epochs are SHA-identical to from-scratch runs.
    assert answers[1]["values_sha256"] == _sha(
        adaptive_run(graph, "bfs", 0).values)
    overlay = DeltaOverlayGraph(graph)
    overlay.apply(EdgeBatch.from_docs([(1, op)]))
    mutated = overlay.materialize(name=graph.name)
    assert answers[3]["values_sha256"] == _sha(
        adaptive_run(mutated, "bfs", 0).values)
    # One barrier, applied exactly once, digest bumped.
    assert len(events) == 1, events
    assert events[0]["ok"] and events[0]["edges_inserted"] == 1
    assert events[0]["old_digest"] != events[0]["new_digest"]
    assert "graph epoch 1" in proc.stderr, proc.stderr

    repro("chaos", "--queries", "40", "--nodes", "300", "--seed", "7",
          "--mutations", "3", "--manifest", "dynamic-chaos-manifest.json")
    doc = _load("dynamic-chaos-manifest.json")["result"]
    assert doc["passed"] is True, doc
    assert doc["mutation_batches"] == 3, doc
    assert doc["mutation_digest_mismatches"] == 0, doc
    assert doc["duplicate_responses"] == 0, doc

    # Write-path gate: each epoch's compacted graph vs a from-scratch
    # build, and a dropped batch fails.
    run_pytest("perfbench", "-q", "-k", "mutate or dropped")


def fusion_parity():
    """Fused and unfused runs are SHA-identical and fusion is cheaper;
    then the fusion savings bench."""
    repro("run", "--algorithm", "bfs", "--file", "examples/roadnet.snap.txt",
          "--mode", "U_T_BM", "--manifest", "fusion-ref.json")
    repro("run", "--algorithm", "bfs", "--file", "examples/roadnet.snap.txt",
          "--mode", "U_T_BM", "--fuse", "--manifest", "fusion-fused.json")
    ref = _load("fusion-ref.json")
    doc = _load("fusion-fused.json")
    assert doc["result"]["values_sha256"] == ref["result"]["values_sha256"], (
        "value SHA diverged"
    )
    assert doc["result"]["total_seconds"] < ref["result"]["total_seconds"], (
        "fusion saved nothing"
    )
    assert doc["metrics"]["fusion.fused_launches"]["value"] > 0, doc["metrics"]
    assert doc["metrics"]["fusion.overhead_saved_s"]["value"] > 0, doc["metrics"]
    run_pytest("-q", "benchmarks/bench_fusion_savings.py")


#: scenario name -> function, in the order a bare run executes them
SCENARIOS = {
    "batch": batch,
    "serve-chaos": serve_chaos,
    "shard-chaos": shard_chaos,
    "learned-policy": learned_policy,
    "dynamic": dynamic,
    "fusion-parity": fusion_parity,
}


def main(argv=None) -> int:
    names = list(argv if argv is not None else sys.argv[1:]) or list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)} "
              f"(known: {', '.join(SCENARIOS)})", file=sys.stderr)
        return 2
    if not __debug__:
        print("tools/smoke.py checks with assert; run it without -O",
              file=sys.stderr)
        return 2
    # The checks import repro in-process, next to the subprocesses.
    sys.path.insert(0, str(SRC))
    failed = []
    home = os.getcwd()
    for name in names:
        print(f"== {name}", flush=True)
        with tempfile.TemporaryDirectory(prefix=f"smoke-{name}-") as tmp:
            os.symlink(REPO_ROOT / "examples", Path(tmp) / "examples")
            os.chdir(tmp)
            try:
                SCENARIOS[name]()
            except (AssertionError, SmokeFailure):
                failed.append(name)
                traceback.print_exc()
                print(f"FAIL {name}", file=sys.stderr)
            else:
                print(f"ok   {name}", flush=True)
            finally:
                os.chdir(home)
    if failed:
        print(f"{len(failed)} of {len(names)} scenario(s) failed: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(names)} scenario(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
