"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph.generators import attach_uniform_weights, erdos_renyi_graph
from repro.graph.io import write_dimacs


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["teleport"])

    def test_dataset_and_file_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "amazon", "--file", "x.gr"]
            )


class TestListingCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for key in ("co-road", "citeseer", "p2p", "amazon", "google", "sns"):
            assert key in out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Tesla C2070" in out
        assert "14" in out

    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("bfs", "sssp", "pagerank", "cc", "kcore", "dobfs"):
            assert name in out
        for column in ("ordered", "checkpoint", "adaptive", "variants"):
            assert column in out
        # DOBFS owns its policy: no variant codes, not adaptive-eligible.
        dobfs_row = next(l for l in out.splitlines() if "dobfs" in l)
        assert "no" in dobfs_row
        assert "U_T_BM" not in dobfs_row

    def test_algorithms_lists_each_spec_default_variant(self, capsys):
        assert main(["algorithms"]) == 0
        rows = {
            line.split()[0]: line for line in capsys.readouterr().out.splitlines()
            if line.strip()
        }
        assert "U_T_QU" in rows["triangles"]
        assert "U_B_QU" in rows["kcore"]
        assert "U_T_BM" in rows["bfs"]


class TestRunSubcommand:
    def test_run_pagerank_adaptive(self, capsys):
        rc = main(
            ["run", "--algorithm", "pagerank", "--dataset", "citeseer",
             "--scale", "0.02", "--tolerance", "1e-5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pagerank on" in out
        assert "verified vs CPU reference" in out
        assert "MISMATCH" not in out

    def test_run_dobfs_defaults_to_own_driver(self, capsys):
        rc = main(
            ["run", "--algorithm", "dobfs", "--dataset", "citeseer",
             "--scale", "0.02"]
        )
        assert rc == 0
        assert "(default)" in capsys.readouterr().out

    def test_run_cc_static_variant(self, capsys):
        rc = main(
            ["run", "--algorithm", "cc", "--dataset", "p2p",
             "--scale", "0.05", "--mode", "U_B_QU"]
        )
        assert rc == 0
        assert "(U_B_QU)" in capsys.readouterr().out

    def test_run_ordered_variant_needs_ordered_support(self, capsys):
        rc = main(
            ["run", "--algorithm", "cc", "--dataset", "p2p",
             "--scale", "0.05", "--mode", "O_T_BM"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "(O_T_BM)" not in captured.out
        assert captured.err.startswith("repro: error: 'cc' has no ordered variants")

    def test_run_resilient_mode(self, capsys):
        rc = main(
            ["run", "--algorithm", "kcore", "--dataset", "p2p",
             "--scale", "0.05", "--mode", "resilient"]
        )
        assert rc == 0
        assert "guarded KCORE" in capsys.readouterr().out

    def test_run_resilient_mode_writes_manifest(self, tmp_path, capsys):
        import json

        path = tmp_path / "resilient.json"
        rc = main(
            ["run", "--algorithm", "bfs", "--dataset", "p2p", "--scale", "0.05",
             "--mode", "resilient", "--manifest", str(path)]
        )
        assert rc == 0
        assert f"[manifest written to {path}]" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["mode"] == "resilient"
        assert doc["reliability"]["stage"] == "adaptive"
        assert doc["result"]["values_sha256"]

    @pytest.mark.parametrize(
        "flags, named, where",
        [
            (["--fault-plan", '{"seed": 3, "launch_failure_rate": 0.5}'],
             "--fault-plan", "--mode adaptive"),
            (["--deadline", "0.000001"], "--deadline", "--mode adaptive"),
            (["--checkpoint-every", "1"], "--checkpoint-every",
             "--mode adaptive"),
            (["--max-retries", "0"], "--max-retries", "--mode adaptive"),
            (["--damping", "0.5"], "--damping", "--algorithm bfs"),
            (["--devices", "2", "--mode", "U_T_BM"], "--mode", "--devices"),
            (["--devices", "2", "--deadline", "0.0000001",
              "--policy", "learned:nonexistent.json"], "--policy", "--devices"),
            (["--algorithm", "cc", "--source", "5"], "--source",
             "--algorithm cc"),
            (["--partition", "balanced"], "--partition", "--mode adaptive"),
            (["--interconnect", "nvlink"], "--interconnect", "--mode adaptive"),
            (["--devices", "2", "--trace", "t.json"], "--trace", "--devices"),
            (["--devices", "2", "--fuse"], "--fuse", "--devices"),
            (["--mode", "resilient", "--fuse"], "--fuse", "--mode resilient"),
            (["--mode", "U_B_QU", "--warp-mapping"], "--warp-mapping",
             "--mode U_B_QU"),
            (["--algorithm", "dobfs", "--warp-mapping"], "--warp-mapping",
             "--mode default"),
            (["--mode", "hybrid", "--mem-budget", "64M"], "--mem-budget",
             "--mode hybrid"),
        ],
    )
    def test_unread_flag_exits_2(self, flags, named, where, capsys):
        """A flag the chosen run mode never reads is refused up front,
        with one stderr line naming the flag and the mode."""
        rc = main(["run", "--dataset", "p2p", "--scale", "0.05", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"repro run: {named} is not read by {where}")

    @pytest.mark.parametrize(
        "algorithm, nudge",
        [("sssp", lambda x: np.nextafter(x, np.inf)),
         ("pagerank", lambda x: x + 5e-9)],
    )
    def test_verification_honours_cpu_exact(self, algorithm, nudge,
                                            monkeypatch, capsys):
        """SSSP must match Dijkstra bit for bit (one ulp off fails);
        PageRank must match within 1e-9 (5e-9 off fails)."""
        import repro.cli as cli_mod

        real_adaptive_run = cli_mod.adaptive_run

        def perturbed(*args, **kwargs):
            result = real_adaptive_run(*args, **kwargs)
            values = result.values
            node = np.flatnonzero(np.isfinite(values) & (values > 0))[0]
            values[node] = nudge(values[node])
            return result

        monkeypatch.setattr(cli_mod, "adaptive_run", perturbed)
        rc = main(["run", "--algorithm", algorithm, "--dataset", "p2p",
                   "--scale", "0.05"])
        assert rc == 1
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("warp", [False, True])
    @pytest.mark.parametrize("devices", [[], ["--devices", "2"]])
    def test_manifest_records_runtime_config(self, devices, warp, tmp_path):
        import json

        path = tmp_path / "manifest.json"
        rc = main(
            ["run", "--algorithm", "sssp", "--dataset", "citeseer",
             "--scale", "0.05", "--seed", "1", *devices,
             "--manifest", str(path)]
            + (["--warp-mapping"] if warp else [])
        )
        assert rc == 0
        config = json.loads(path.read_text())["config"]
        assert config["t3_fraction"] == 0.03
        assert config["use_warp_mapping"] is warp


class TestCharacterize:
    def test_dataset(self, capsys):
        assert main(["characterize", "--dataset", "p2p", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "avg outdegree" in out
        assert "outdegree distribution" in out

    def test_with_diameter(self, capsys):
        rc = main(
            ["characterize", "--dataset", "co-road", "--scale", "0.01", "--diameter"]
        )
        assert rc == 0
        assert "pseudo-diameter" in capsys.readouterr().out


class TestTraversals:
    def test_bfs_adaptive(self, capsys):
        rc = main(["run", "--dataset", "amazon", "--scale", "0.01"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified vs CPU reference" in out
        assert "MISMATCH" not in out
        assert "decisions" in out

    def test_sssp_static_variant(self, capsys):
        rc = main(["run", "--algorithm", "sssp", "--dataset", "p2p",
                   "--scale", "0.1", "--mode", "U_B_QU"])
        assert rc == 0
        assert "speedup" in capsys.readouterr().out

    def test_sssp_warp_mapping(self, capsys):
        rc = main(
            ["run", "--algorithm", "sssp", "--dataset", "amazon", "--scale",
             "0.01", "--warp-mapping"]
        )
        assert rc == 0

    def test_explicit_source(self, capsys):
        import re

        rc = main(["run", "--dataset", "p2p", "--scale", "0.1", "--source", "5"])
        assert rc == 0
        assert re.search(r"source\s*\|\s*5\b", capsys.readouterr().out)

    def test_file_input(self, tmp_path, capsys):
        g = attach_uniform_weights(erdos_renyi_graph(60, 300, seed=1), seed=2)
        path = tmp_path / "little.gr"
        write_dimacs(g, path)
        rc = main(["run", "--algorithm", "sssp", "--file", str(path)])
        assert rc == 0
        assert "little" in capsys.readouterr().out


class TestCompare:
    def test_compare_sssp(self, capsys):
        rc = main(["compare", "--dataset", "p2p", "--scale", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        for code in ("U_T_BM", "U_B_QU", "adaptive"):
            assert code in out

    def test_compare_extended(self, capsys):
        rc = main(
            ["compare", "--dataset", "amazon", "--scale", "0.01", "--extended"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "U_W_QU" in out
        assert "adaptive+W" in out


class TestSweep:
    def test_sweep_t3(self, capsys):
        rc = main(["sweep-t3", "--dataset", "p2p", "--scale", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best T3" in out
        assert "13%" in out


class TestExtensionCommands:
    def test_cc(self, capsys):
        rc = main(["run", "--algorithm", "cc", "--dataset", "p2p", "--scale", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "components" in out
        assert "MISMATCH" not in out

    def test_kcore(self, capsys):
        rc = main(["run", "--algorithm", "kcore", "--dataset", "p2p", "--scale",
                   "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max core" in out
        assert "MISMATCH" not in out

    def test_pagerank(self, capsys):
        rc = main(["run", "--algorithm", "pagerank", "--dataset", "p2p",
                   "--scale", "0.05", "--tolerance", "1e-5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top nodes" in out
        assert "MISMATCH" not in out

    def test_hybrid(self, capsys):
        rc = main(
            ["run", "--mode", "hybrid", "--dataset", "co-road", "--scale",
             "0.01", "--algorithm", "bfs"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "CPU iterations" in out
        assert "MISMATCH" not in out

    def test_oracle(self, capsys):
        rc = main(["oracle", "--dataset", "p2p", "--scale", "0.1",
                   "--algorithm", "bfs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "regret" in out
        assert "agreement" in out

    def test_trace_export(self, tmp_path, capsys):
        import json

        path = tmp_path / "t.json"
        rc = main(
            ["run", "--dataset", "p2p", "--scale", "0.05", "--trace", str(path)]
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestReliability:
    PLAN = (
        '{"seed": 3, "launch_failure_rate": 0.1, "memory_fault_rate": 0.05}'
    )

    def test_reliability_subcommand_fault_free(self, capsys):
        rc = main(["run", "--mode", "resilient", "--dataset", "p2p", "--scale",
                   "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served by" in out
        assert "MISMATCH" not in out

    def test_reliability_with_fault_plan(self, capsys):
        rc = main(
            ["run", "--mode", "resilient", "--dataset", "p2p", "--scale", "0.1",
             "--algorithm", "sssp", "--fault-plan", self.PLAN,
             "--checkpoint-every", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults seen" in out
        assert "MISMATCH" not in out

    def test_resilient_mode_on_bfs(self, capsys):
        rc = main(
            ["run", "--dataset", "p2p", "--scale", "0.1",
             "--mode", "resilient", "--fault-plan", self.PLAN]
        )
        assert rc == 0
        assert "served by" in capsys.readouterr().out


class TestShardedRun:
    def test_run_devices_fault_free(self, capsys):
        rc = main(
            ["run", "--algorithm", "bfs", "--dataset", "sns",
             "--scale", "0.02", "--devices", "4",
             "--partition", "balanced"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sharded x4, balanced" in out
        assert "exchange volume" in out
        assert "verified vs CPU reference" in out
        assert "MISMATCH" not in out

    def test_run_devices_with_device_loss(self, capsys, tmp_path):
        import json

        manifest_path = tmp_path / "shard.json"
        plan = '{"seed": 11, "device_loss_rate": 0.25, "device": 1, "max_faults": 1}'
        rc = main(
            ["run", "--algorithm", "sssp", "--dataset", "sns",
             "--scale", "0.02", "--devices", "4", "--fault-plan", plan,
             "--checkpoint-every", "2", "--manifest", str(manifest_path)]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "MISMATCH" not in captured.out
        assert "recovery rung" in captured.out
        doc = json.loads(manifest_path.read_text())
        assert doc["mode"] == "sharded"
        assert doc["result"]["num_devices"] == 4
        if doc["faults"]:
            assert doc["reliability"]["recovery_rung"] in (
                "retry", "restore", "cpu"
            )
            assert "[recovery:" in captured.err

    def test_devices_rejects_non_batchable(self, capsys):
        rc = main(
            ["run", "--algorithm", "pagerank", "--dataset", "sns",
             "--scale", "0.02", "--devices", "2"]
        )
        assert rc == 2
        assert "batch" in capsys.readouterr().err


class TestExitCodes:
    def test_repro_error_exits_2(self, capsys):
        # source beyond the graph is a ReproError: one line on stderr,
        # exit code 2
        rc = main(
            ["run", "--dataset", "p2p", "--scale", "0.05",
             "--source", "99999999"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1

    def test_bad_fault_plan_exits_2(self, capsys):
        rc = main(
            ["run", "--mode", "resilient", "--dataset", "p2p",
             "--scale", "0.05", "--fault-plan", "{bad json"]
        )
        assert rc == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_fault_plan_unknown_key_named(self, capsys):
        rc = main(
            ["run", "--mode", "resilient", "--dataset", "p2p",
             "--scale", "0.05",
             "--fault-plan", '{"seed": 1, "lunch_failure_rate": 0.1}']
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "lunch_failure_rate" in err
        assert len(err.strip().splitlines()) == 1

    def test_fault_plan_unknown_kind_named(self, capsys):
        rc = main(
            ["run", "--mode", "resilient", "--dataset", "p2p",
             "--scale", "0.05", "--fault-plan", '{"kinds": ["cosmic_ray"]}']
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "cosmic_ray" in err
        assert len(err.strip().splitlines()) == 1

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.cli as cli_mod

        def boom(args):
            raise KeyboardInterrupt

        args = build_parser().parse_args(["datasets"])
        args.func = boom

        class FixedParser:
            def parse_args(self, argv=None):
                return args

        monkeypatch.setattr(cli_mod, "build_parser", FixedParser)
        assert cli_mod.main(["datasets"]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestMemoryBudgetFlags:
    def test_ample_budget_reports_memory(self, capsys):
        rc = main(
            ["run", "--dataset", "p2p", "--scale", "0.05",
             "--mem-budget", "64M"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "memory budget" in out
        assert "memory peak" in out
        assert "MISMATCH" not in out

    def test_oom_exits_2_with_one_line_stderr(self, capsys):
        rc = main(
            ["run", "--dataset", "p2p", "--scale", "0.05",
             "--mem-budget", "1k"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "device memory budget exhausted" in err
        assert len(err.strip().splitlines()) == 1

    def test_resilient_mode_recovers_from_oom(self, capsys):
        from repro.graph.datasets import make_dataset
        from repro.gpusim.memory import traversal_state_bytes

        graph = make_dataset("p2p", scale=0.05, weighted=False, seed=1)
        budget = graph.device_bytes() + traversal_state_bytes(graph.num_nodes) + 16
        rc = main(
            ["run", "--dataset", "p2p", "--scale", "0.05",
             "--mode", "resilient", "--mem-budget", str(budget)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "OOM ladder rung" in out
        assert "workset_spill" in out
        assert "MISMATCH" not in out

    def test_bad_budget_spec_exits_2(self, capsys):
        rc = main(
            ["run", "--dataset", "p2p", "--scale", "0.05",
             "--mem-budget", "lots"]
        )
        assert rc == 2
        assert "memory size" in capsys.readouterr().err


class TestIngestionFlags:
    def _messy_file(self, tmp_path):
        path = tmp_path / "messy.gr"
        path.write_text(
            "p sp 3 3\na 1 2 1\na 2 2 1\na 2 3 1\n", encoding="utf-8"
        )
        return str(path)

    def test_strict_io_exits_2_naming_file_and_line(self, tmp_path, capsys):
        rc = main(["run", "--file", self._messy_file(tmp_path),
                   "--source", "0", "--strict-io"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "messy.gr:3" in err
        assert len(err.strip().splitlines()) == 1

    def test_lenient_io_repairs_and_reports(self, tmp_path, capsys):
        rc = main(["run", "--file", self._messy_file(tmp_path),
                   "--source", "0", "--lenient-io"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[ingest]" in out
        assert "self-loops 1" in out

    def test_max_edges_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--file", self._messy_file(tmp_path),
                   "--source", "0", "--max-edges", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "more than 1 edges" in err
        assert len(err.strip().splitlines()) == 1

    def test_strict_and_lenient_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "p2p", "--strict-io", "--lenient-io"]
            )


class TestProfile:
    EXAMPLE = "examples/roadnet.snap.txt"

    def test_adaptive_profile_writes_manifest(self, tmp_path, capsys):
        out = tmp_path / "manifest.json"
        rc = main(["run", "--file", self.EXAMPLE, "--manifest", str(out)])
        assert rc == 0
        assert out.exists()
        from repro.obs import RunManifest

        manifest = RunManifest.read(out)
        stdout = capsys.readouterr().out
        # The printed table is read back from the manifest; spot-check
        # that the headline numbers really appear in the output.
        assert str(manifest.result["iterations"]) in stdout
        assert str(manifest.result["reached"]) in stdout
        assert manifest.graph["digest"][:16] in stdout
        assert manifest.mode == "adaptive"
        assert manifest.metrics["frame.iterations"]["value"] == (
            manifest.result["iterations"]
        )
        assert "verified" in stdout

    def test_trace_contains_decision_track(self, tmp_path):
        import json

        out = tmp_path / "manifest.json"
        trace = tmp_path / "trace.json"
        rc = main(["run", "--file", self.EXAMPLE, "--manifest", str(out),
                   "--trace", str(trace)])
        assert rc == 0
        with open(trace) as fh:
            doc = json.load(fh)
        from repro.obs.trace import TID_DECISIONS, TID_SPANS

        tids = {e.get("tid") for e in doc["traceEvents"]}
        assert TID_DECISIONS in tids
        assert TID_SPANS in tids

    def test_requires_exactly_one_input(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--dataset --file" in err
        with pytest.raises(SystemExit) as exc:
            main(["run", "--file", self.EXAMPLE, "--dataset", "p2p"])
        assert exc.value.code == 2

    def test_dataset_input(self, tmp_path, capsys):
        out = tmp_path / "manifest.json"
        rc = main(["run", "--dataset", "p2p", "--scale", "0.05",
                   "--manifest", str(out)])
        assert rc == 0
        assert out.exists()

    def test_resilient_mode(self, tmp_path, capsys):
        out = tmp_path / "manifest.json"
        rc = main(["run", "--file", self.EXAMPLE, "--mode", "resilient",
                   "--manifest", str(out)])
        assert rc == 0
        from repro.obs import RunManifest

        manifest = RunManifest.read(out)
        assert manifest.mode == "resilient"
        assert manifest.reliability is not None
        assert manifest.reliability["attempts"] >= 1
        assert "served by" in capsys.readouterr().out

    def test_static_mode(self, tmp_path, capsys):
        out = tmp_path / "manifest.json"
        rc = main(["run", "--file", self.EXAMPLE, "--mode", "U_B_QU",
                   "--manifest", str(out)])
        assert rc == 0
        from repro.obs import RunManifest

        assert RunManifest.read(out).mode == "U_B_QU"

    def test_sssp_profile(self, tmp_path):
        out = tmp_path / "manifest.json"
        rc = main(["run", "--dataset", "p2p", "--scale", "0.05",
                   "--algorithm", "sssp", "--manifest", str(out)])
        assert rc == 0
        from repro.obs import RunManifest

        assert RunManifest.read(out).algorithm == "sssp"

    def test_help_matches_docs(self, capsys, monkeypatch):
        """The --help text pasted into docs/observability.md is current."""
        import os
        import re

        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out.strip()

        doc_path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "docs", "observability.md",
        )
        with open(doc_path, encoding="utf-8") as fh:
            doc = fh.read()
        match = re.search(r"```text\n(usage: repro run.*?)```", doc, re.S)
        assert match, "docs/observability.md lost its pasted --help block"
        assert match.group(1).strip() == help_text


class TestFitPolicy:
    @pytest.fixture(scope="class")
    def manifests(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("corpus")
        paths = []
        for key, seed in (("citeseer", 1), ("p2p", 2)):
            path = root / f"{key}.json"
            rc = main(["run", "--dataset", key, "--scale", "0.05",
                       "--seed", str(seed), "--algorithm", "sssp",
                       "--manifest", str(path)])
            assert rc == 0
            paths.append(str(path))
        return paths

    def test_fit_policy_writes_artifact(self, manifests, tmp_path, capsys):
        out = tmp_path / "policy.json"
        rc = main(["fit-policy", *manifests, "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "training samples" in stdout
        assert f"[policy written to {out}]" in stdout
        from repro.core import PolicyArtifact

        artifact = PolicyArtifact.load(out)
        assert artifact.digest[:16] in stdout
        assert len(artifact.training["manifests"]) == 2

    def test_fit_policy_missing_manifest_exit_2(self, tmp_path, capsys):
        rc = main(["fit-policy", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "p.json")])
        assert rc == 2
        assert "absent.json" in capsys.readouterr().err

    def test_run_with_learned_policy(self, manifests, tmp_path, capsys):
        out = tmp_path / "policy.json"
        assert main(["fit-policy", *manifests, "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["run", "--algorithm", "sssp", "--dataset", "citeseer",
                   "--scale", "0.05", "--policy", f"learned:{out}"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "(learned)" in stdout
        assert "policy digest:" in stdout
        assert "MISMATCH" not in stdout

    def test_profile_with_learned_policy(self, manifests, tmp_path):
        policy = tmp_path / "policy.json"
        assert main(["fit-policy", *manifests, "--out", str(policy)]) == 0
        out = tmp_path / "manifest.json"
        rc = main(["run", "--dataset", "citeseer", "--scale", "0.05",
                   "--algorithm", "sssp", "--policy", f"learned:{policy}",
                   "--manifest", str(out)])
        assert rc == 0
        from repro.core import PolicyArtifact
        from repro.obs import RunManifest

        manifest = RunManifest.read(out)
        assert manifest.mode == "learned"
        assert manifest.policy["digest"] == PolicyArtifact.load(policy).digest

    def test_policy_requires_adaptive_mode(self, tmp_path, capsys):
        rc = main(["run", "--algorithm", "sssp", "--dataset", "p2p",
                   "--scale", "0.05", "--mode", "U_B_QU",
                   "--policy", "learned:whatever.json"])
        assert rc == 2
        assert "adaptive" in capsys.readouterr().err

    def test_bad_policy_spec_exit_2(self, capsys):
        rc = main(["run", "--algorithm", "sssp", "--dataset", "p2p",
                   "--scale", "0.05", "--policy", "oracle"])
        assert rc == 2
        assert "unknown policy spec" in capsys.readouterr().err


class TestBatchCommand:
    def _graph_file(self, tmp_path):
        g = attach_uniform_weights(erdos_renyi_graph(60, 300, seed=1), seed=2)
        path = tmp_path / "little.gr"
        write_dimacs(g, path)
        return str(path)

    def _queries_file(self, tmp_path, lines):
        path = tmp_path / "queries.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_batch_answers_and_writes_manifest(self, tmp_path, capsys):
        import json

        manifest_path = tmp_path / "batch.json"
        rc = main(
            ["batch", "--file", self._graph_file(tmp_path),
             "--queries", self._queries_file(tmp_path, [
                 '{"source": 0}',
                 '{"algorithm": "sssp", "source": 5}',
                 '{"algorithm": "sssp", "source": 9, "mode": "O_T_QU"}',
             ]),
             "--manifest", str(manifest_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sha256:" in out
        assert "batched" in out and "fallback" in out
        doc = json.loads(manifest_path.read_text())
        assert doc["algorithm"] == "batch"
        assert doc["result"]["ok"] == 3

    def test_failing_query_isolated_and_exits_1(self, tmp_path, capsys):
        rc = main(
            ["batch", "--file", self._graph_file(tmp_path),
             "--queries", self._queries_file(tmp_path, [
                 '{"source": 0}',
                 '{"source": 5000}',
             ])]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "error:" in out
        assert "1 / 2" in out  # the good query still answered

    def test_bad_query_file_exits_2(self, tmp_path, capsys):
        rc = main(
            ["batch", "--file", self._graph_file(tmp_path),
             "--queries", self._queries_file(tmp_path, ["not json"])]
        )
        assert rc == 2
        assert ":1:" in capsys.readouterr().err

    def test_source_out_of_range_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--file", self._graph_file(tmp_path),
                   "--source", "99"])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    def test_serve_round_trip(self, tmp_path, capsys, monkeypatch):
        import io
        import json

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                '{"source": 0}\n'
                "not json\n"
                '{"algorithm": "sssp", "source": 3}\n'
            ),
        )
        rc = main(["serve", "--file", self._graph_file(tmp_path),
                   "--batch-size", "2"])
        assert rc == 0
        captured = capsys.readouterr()
        answers = [json.loads(line) for line in captured.out.splitlines()
                   if line.startswith("{")]
        by_line = {doc["line"]: doc for doc in answers}
        assert by_line[1]["ok"] and by_line[1]["values_sha256"]
        assert not by_line[2]["ok"] and "error" in by_line[2]
        assert by_line[3]["ok"] and by_line[3]["algorithm"] == "sssp"
        # The malformed line is answered with an error object but only
        # real queries count as served.
        assert "served 2 queries" in captured.err

    def test_serve_interrupt_flushes_and_exits_130(self, tmp_path, capsys,
                                                   monkeypatch):
        import json

        class InterruptedStdin:
            """Two good queries, then the operator hits Ctrl-C."""

            def __init__(self):
                self.lines = [
                    '{"algorithm": "bfs", "source": 0}\n',
                    '{"algorithm": "bfs", "source": 5}\n',
                ]

            def __iter__(self):
                return self

            def __next__(self):
                if self.lines:
                    return self.lines.pop(0)
                raise KeyboardInterrupt

        monkeypatch.setattr("sys.stdin", InterruptedStdin())
        rc = main(["serve", "--file", self._graph_file(tmp_path),
                   "--batch-size", "8"])
        assert rc == 130
        captured = capsys.readouterr()
        # Pending queries are flushed before exiting, not dropped.
        answers = [json.loads(line) for line in captured.out.splitlines()
                   if line.strip()]
        assert sorted(a["line"] for a in answers) == [1, 2]
        assert all(a["ok"] for a in answers)
        assert "interrupted" in captured.err
        assert "served 2 queries" in captured.err

    def test_serve_manifest_and_slo_summary(self, tmp_path, capsys,
                                            monkeypatch):
        import io
        import json

        from repro.obs import RunManifest

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"algorithm": "bfs", "source": 2}\n'),
        )
        out = tmp_path / "serve.json"
        rc = main(["serve", "--file", self._graph_file(tmp_path),
                   "--manifest", str(out)])
        assert rc == 0
        manifest = RunManifest.read(out)
        assert manifest.algorithm == "serve"
        assert manifest.result["answered"] == 1
        assert "slo:" in capsys.readouterr().err

    def test_serve_deadline_zero_rejected(self, tmp_path, capsys,
                                          monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        rc = main(["serve", "--file", self._graph_file(tmp_path),
                   "--deadline-s", "0"])
        assert rc == 2
