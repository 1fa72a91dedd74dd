"""Chaos soaks over the serve loop — in-process and through the CLI.

Acceptance for the resilient serving layer: a seeded 200-query soak
under an aggressive fault plan finishes with zero crashes, exactly one
response per query, and SHA parity between every successful answer and
a fault-free single-source run.  The subprocess tests additionally pin
the stdin/stdout protocol: every input line gets exactly one JSON
response object, nothing tracebacks, and exit codes follow the CLI
contract.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import registered_algorithms
from repro.graph.generators import attach_uniform_weights, erdos_renyi_graph
from repro.graph.io import write_dimacs, write_snap_edgelist
from repro.reliability import FaultPlan
from repro.serve.chaos import (
    default_chaos_plan,
    default_shard_chaos_plan,
    run_chaos,
    run_shard_chaos,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _graph_file(tmp_path):
    g = attach_uniform_weights(erdos_renyi_graph(60, 300, seed=1), seed=2)
    path = tmp_path / "little.gr"
    write_dimacs(g, path)
    return str(path)


class TestChaosSoak:
    def test_default_plan_is_seeded_and_aggressive(self):
        plan = default_chaos_plan(7)
        assert plan.seed == 7
        assert not plan.is_empty
        assert plan == default_chaos_plan(7)

    def test_two_hundred_query_soak_passes(self):
        report = run_chaos(num_queries=200, num_nodes=300, seed=3)
        assert report.passed, report.violations
        assert report.duplicate_responses == 0
        assert report.missing_responses == 0
        assert report.sha_mismatches == 0
        assert report.serve.answered == 200
        # The soak is only meaningful if chaos actually happened.
        assert report.faults_injected > 0
        assert report.serve.ok > 0

    def test_soak_is_deterministic(self):
        first = run_chaos(num_queries=40, num_nodes=200, seed=11)
        second = run_chaos(num_queries=40, num_nodes=200, seed=11)
        # Wall-clock latency is real elapsed time; everything else —
        # outcomes, fault counts, simulated timing — replays exactly.
        a, b = first.result_dict(), second.result_dict()
        a.pop("latency_wall_s"), b.pop("latency_wall_s")
        assert a == b

    def test_drain_scheduler_soak_passes(self):
        report = run_chaos(
            num_queries=40, num_nodes=200, seed=5, scheduler="drain"
        )
        assert report.passed, report.violations

    def test_heavy_fault_plan_still_exactly_once(self):
        plan = FaultPlan(
            seed=23,
            launch_failure_rate=0.15,
            memory_fault_rate=0.15,
            latency_spike_rate=0.2,
            latency_spike_factor=6.0,
        )
        report = run_chaos(
            num_queries=60,
            num_nodes=200,
            seed=23,
            fault_plan=plan,
            deadline_s=2.0,
            queue_capacity=12,
        )
        # Under this much pressure queries may shed, miss deadlines or
        # error — but never crash, duplicate or silently vanish.
        assert report.passed, report.violations
        assert report.serve.answered == 60


class TestShardChaosSoak:
    def test_default_shard_plan_is_seeded_and_lossy(self):
        plan = default_shard_chaos_plan(9)
        assert plan.seed == 9
        assert plan.device_loss_rate > 0
        assert plan == default_shard_chaos_plan(9)

    def test_device_loss_soak_passes(self):
        report = run_shard_chaos(
            num_queries=8, num_nodes=400, num_devices=4, seed=1
        )
        assert report.passed, report.violations
        assert report.sha_mismatches == 0
        assert report.unattributed_faults == 0
        # The soak is only meaningful if devices actually died.
        assert report.device_losses > 0

    def test_shard_soak_is_deterministic(self):
        a = run_shard_chaos(num_queries=4, num_nodes=300, seed=6)
        b = run_shard_chaos(num_queries=4, num_nodes=300, seed=6)
        assert a.result_dict() == b.result_dict()

    def test_shard_chaos_subcommand(self, capsys):
        rc = main(["chaos", "--devices", "4", "--queries", "6",
                   "--nodes", "300", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "device losses" in out


class TestChaosCommand:
    def test_chaos_subcommand_passes(self, capsys):
        rc = main(["chaos", "--queries", "24", "--nodes", "200",
                   "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "faults injected" in out

    def test_chaos_manifest(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        rc = main(["chaos", "--queries", "16", "--nodes", "200",
                   "--seed", "4", "--manifest", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["algorithm"] == "serve"
        assert doc["result"]["kind"] == "chaos"
        assert doc["result"]["passed"] is True
        assert doc["result"]["num_queries"] == 16


class TestServeSubprocessSoak:
    """The real thing: ``repro serve`` as a child process, JSONL on
    stdin, seeded faults and tight deadlines from the flags."""

    def _run_serve(self, tmp_path, lines, *extra_args):
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--file", _graph_file(tmp_path), *extra_args,
        ]
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        return subprocess.run(
            cmd, input="\n".join(lines) + "\n", capture_output=True,
            text=True, env=env, timeout=300,
        )

    def test_faulty_soak_no_crash_exactly_once(self, tmp_path):
        queries = [
            json.dumps({
                "algorithm": "bfs" if i % 2 else "sssp",
                "source": i % 60,
                "priority": i % 3,
            })
            for i in range(24)
        ]
        plan = json.dumps({
            "seed": 9,
            "launch_failure_rate": 0.05,
            "memory_fault_rate": 0.08,
            "latency_spike_rate": 0.1,
        })
        proc = self._run_serve(
            tmp_path, queries,
            "--fault-plan", plan, "--deadline-s", "30",
            "--queue-capacity", "64", "--batch-size", "8",
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        answers = [json.loads(line) for line in proc.stdout.splitlines()
                   if line.strip()]
        # Exactly one response per input line, no duplicates.
        assert sorted(a["line"] for a in answers) == list(range(1, 25))
        for doc in answers:
            assert doc["path"] in ("batch", "fallback", "shed",
                                   "deadline", "error")
            if doc["ok"]:
                assert doc["values_sha256"]
            else:
                assert doc["error"]
        assert "slo:" in proc.stderr

    def test_tight_deadlines_and_tiny_queue_shed_explicitly(self, tmp_path):
        queries = [json.dumps({"algorithm": "bfs", "source": i})
                   for i in range(12)]
        proc = self._run_serve(
            tmp_path, queries,
            "--queue-capacity", "2", "--batch-size", "2",
        )
        assert proc.returncode == 0, proc.stderr
        answers = [json.loads(line) for line in proc.stdout.splitlines()
                   if line.strip()]
        assert len(answers) == 12
        assert any(a["path"] == "shed" for a in answers)
        assert all(a["ok"] or a["error"] for a in answers)

    def test_malformed_lines_answered_never_fatal(self, tmp_path):
        lines = [
            json.dumps({"algorithm": "bfs", "source": 0}),
            "not json at all",
            json.dumps({"algorithm": "bfs", "source": 9999}),
            json.dumps({"algorithm": "bfs", "source": 1}),
        ]
        proc = self._run_serve(tmp_path, lines)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        answers = [json.loads(line) for line in proc.stdout.splitlines()
                   if line.strip()]
        by_line = {a["line"]: a for a in answers}
        assert by_line[1]["ok"]
        assert not by_line[2]["ok"]
        assert not by_line[3]["ok"] and "out of range" in by_line[3]["error"]
        assert by_line[4]["ok"]


class TestDynamicServeCli:
    """Mutation streams through the CLI: ``repro mutate``, interleaved
    mutation lines on ``repro serve --mutations`` stdin, and the
    mutating chaos soak."""

    def _mutations_file(self, tmp_path):
        path = tmp_path / "muts.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"op": "grow", "nodes": 2}),
                    json.dumps({"op": "insert", "u": 60, "v": 1, "weight": 2.0}),
                    json.dumps({"op": "insert", "u": 61, "v": 2, "weight": 1.0}),
                ]
            )
            + "\n"
        )
        return str(path)

    def test_mutate_subcommand_parity_and_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "mutate.json"
        rc = main([
            "mutate", "--file", _graph_file(tmp_path),
            "--mutations", self._mutations_file(tmp_path),
            "--lenient-io", "--algorithm", "bfs", "--source", "0",
            "--manifest", str(manifest),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sha parity" in out and "PASS" in out
        doc = json.loads(manifest.read_text())
        assert doc["mode"] == "dynamic"
        assert doc["result"]["kind"] == "mutate"
        assert doc["result"]["graph_epoch"] == 1
        assert doc["result"]["incremental"]["parity"] is True
        assert doc["result"]["mutation_events"][0]["inserted"] == 2

    @pytest.mark.parametrize(
        "algorithm", [i.name for i in registered_algorithms() if i.incremental]
    )
    def test_mutate_unweighted_batch_on_unweighted_file(
        self, tmp_path, capsys, algorithm
    ):
        # An unweighted file and batch: the algorithm alone decides
        # whether the graph gets weights, so SSSP runs and verifies too.
        g = erdos_renyi_graph(60, 300, seed=1)
        path = tmp_path / "little.txt"
        write_snap_edgelist(g, path)
        u, v = 0, int(g.neighbors(0)[0])
        muts = tmp_path / "muts.jsonl"
        muts.write_text(
            json.dumps({"op": "delete", "u": u, "v": v}) + "\n"
            + json.dumps({"op": "insert", "u": u, "v": 59}) + "\n"
        )
        source = ["--source", "0"] if algorithm != "cc" else []
        rc = main([
            "mutate", "--file", str(path), "--mutations", str(muts),
            "--lenient-io", "--algorithm", algorithm, *source,
        ])
        assert rc == 0, capsys.readouterr().err
        assert "PASS" in capsys.readouterr().out

    def test_mutate_cc_reads_no_source(self, tmp_path, capsys, monkeypatch):
        # CC has no source: an explicit one is refused like `repro run`
        # refuses it, and none is searched for when it is absent.
        import repro.cli as cli_mod

        rc = main([
            "mutate", "--file", _graph_file(tmp_path),
            "--mutations", self._mutations_file(tmp_path), "--lenient-io",
            "--algorithm", "cc", "--source", "9999",
        ])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "repro mutate: --source is not read by --algorithm cc"
        )

        def no_search(*args, **kwargs):
            raise AssertionError("searched a source for CC")

        monkeypatch.setattr(cli_mod, "largest_out_component_node", no_search)
        rc = main([
            "mutate", "--file", _graph_file(tmp_path),
            "--mutations", self._mutations_file(tmp_path), "--lenient-io",
            "--algorithm", "cc",
        ])
        assert rc == 0, capsys.readouterr().err
        assert "PASS" in capsys.readouterr().out

    def test_mutate_source_needs_an_algorithm(self, tmp_path, capsys):
        # Without --algorithm nothing traverses, so no option reads a
        # source: one is refused like `repro run` refuses unread flags.
        rc = main([
            "mutate", "--file", _graph_file(tmp_path),
            "--mutations", self._mutations_file(tmp_path), "--lenient-io",
            "--source", "9999",
        ])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "repro mutate: --source is not read without --algorithm"
        )

    def test_mutate_bad_batch_is_line_numbered_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"op": "delete", "u": 0, "v": 59}) + "\n")
        rc = main([
            "mutate", "--file", _graph_file(tmp_path),
            "--mutations", str(bad), "--strict-io",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.jsonl:1:" in err and "missing edge" in err

    def test_serve_mutations_stream_exactly_once_with_epochs(self, tmp_path):
        lines = [
            json.dumps({"algorithm": "bfs", "source": 0}),            # 1
            json.dumps({"op": "insert", "u": 0, "v": 45}),            # 2
            json.dumps({"op": "frobnicate"}),                         # 3
            json.dumps({"algorithm": "bfs", "source": 0}),            # 4
            json.dumps({"algorithm": "sssp", "source": 3}),           # 5
        ]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--file", _graph_file(tmp_path), "--mutations",
             "--lenient-io", "--batch-size", "1"],
            input="\n".join(lines) + "\n", capture_output=True,
            text=True, timeout=300,
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        docs = [json.loads(line) for line in proc.stdout.splitlines()
                if line.strip()]
        answers = {d["line"]: d for d in docs if "line" in d and d["line"]}
        events = [d for d in docs if d.get("mutation")]
        # Exactly one response per query line (1, 4, 5); the malformed
        # mutation line answers with a line-numbered format error.
        assert sorted(answers) == [1, 3, 4, 5]
        assert answers[1]["ok"] and answers[1]["graph_epoch"] == 0
        assert not answers[3]["ok"]
        assert "unknown mutation op" in answers[3]["error"]
        for line in (4, 5):
            assert answers[line]["ok"]
            assert answers[line]["graph_epoch"] == 1
        # The applied batch surfaced as exactly one mutation event.
        assert len(events) == 1
        assert events[0]["ok"] and events[0]["edges_inserted"] == 1
        assert events[0]["old_digest"] != events[0]["new_digest"]
        assert "graph epoch 1" in proc.stderr

    def test_chaos_mutations_subcommand(self, capsys):
        rc = main(["chaos", "--queries", "30", "--nodes", "200",
                   "--seed", "5", "--mutations", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "graph epoch" in out
        assert "digest mismatches" in out
