"""Tests for the learned decision maker: fitting, the artifact, and
deployment through the adaptive runtime."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FEATURE_NAMES,
    LearnedPolicy,
    PolicyArtifact,
    adaptive_run,
    extract_samples,
    fit_policy,
    load_manifest_corpus,
    resolve_policy,
    run_static,
    variant_costs,
)
from repro.core.decision import PRESSURE_THRESHOLD
from repro.core.learned import POLICY_SCHEMA_VERSION
from repro.errors import ReproError
from repro.gpusim.allocator import MemoryBudget
from repro.gpusim.device import TESLA_C2070
from repro.gpusim.memory import traversal_state_bytes
from repro.graph.generators import (
    attach_uniform_weights,
    chain_graph,
    erdos_renyi_graph,
    power_law_graph,
    rmat_graph,
)
from repro.kernels.variants import Mapping, WorksetRepr
from repro.obs import Observer, build_manifest, observing


@pytest.fixture(scope="module")
def workload():
    g = attach_uniform_weights(
        power_law_graph(8_000, alpha=1.9, max_degree=120, seed=5), seed=6
    )
    src = int(np.argmax(g.out_degrees))
    return g, src


@pytest.fixture(scope="module")
def corpus(workload):
    g, src = workload
    manifests = []
    for seed in (21, 22):
        graph = attach_uniform_weights(
            erdos_renyi_graph(3_000, 18_000, seed=seed), seed=seed + 50
        )
        result = adaptive_run(graph, "sssp", 0)
        manifests.append(
            build_manifest(result, graph=graph, algorithm="sssp",
                           mode="adaptive", source=0)
        )
    result = adaptive_run(g, "sssp", src)
    manifests.append(
        build_manifest(result, graph=g, algorithm="sssp",
                       mode="adaptive", source=src)
    )
    return manifests


@pytest.fixture(scope="module")
def artifact(corpus):
    return fit_policy(corpus)


def _learned_decision(artifact, workset_size, avg_out_degree, pressure):
    """One learned decision on a 10,000-node graph at a given average
    outdegree and memory pressure: (unconstrained, variant, region)."""
    policy = LearnedPolicy(chain_graph(10_000), artifact, device=TESLA_C2070)
    policy._avg_degree = avg_out_degree
    return policy._decide(0, workset_size, pressure)


class TestVariantCosts:
    def test_prices_all_unordered_variants(self):
        out = variant_costs(500, 4.0, 10_000)
        assert set(out) == {"U_T_BM", "U_T_QU", "U_B_BM", "U_B_QU"}
        assert all(v > 0 for v in out.values())

    def test_rejects_empty_graph(self):
        with pytest.raises(ReproError):
            variant_costs(10, 2.0, 0)


class TestExtractSamples:
    def test_one_sample_per_decision(self, workload, corpus):
        manifest = corpus[-1]
        samples = extract_samples(manifest)
        assert len(samples) == len(manifest.decisions)
        assert all(len(s.features) == len(FEATURE_NAMES) for s in samples)

    def test_no_decisions_no_samples(self, workload):
        g, src = workload
        static = run_static(g, src, "sssp", "U_B_QU")
        manifest = build_manifest(static, graph=g, algorithm="sssp",
                                  mode="U_B_QU", source=src)
        assert extract_samples(manifest) == []


class TestFitPolicy:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ReproError, match="empty manifest corpus"):
            fit_policy([])

    def test_traceless_corpus_rejected(self, workload):
        g, src = workload
        static = run_static(g, src, "sssp", "U_B_QU")
        manifest = build_manifest(static, graph=g, algorithm="sssp",
                                  mode="U_B_QU", source=src)
        with pytest.raises(ReproError, match="no decision traces"):
            fit_policy([manifest])

    def test_bad_hyperparameters_rejected(self, corpus):
        with pytest.raises(ReproError):
            fit_policy(corpus, max_depth=0)
        with pytest.raises(ReproError):
            fit_policy(corpus, min_samples_leaf=0)

    def test_mixed_algorithm_corpus(self, workload):
        g, src = workload
        bfs = adaptive_run(g, "bfs", src)
        sssp = adaptive_run(g, "sssp", src)
        art = fit_policy([
            build_manifest(bfs, graph=g, algorithm="bfs",
                           mode="adaptive", source=src),
            build_manifest(sssp, graph=g, algorithm="sssp",
                           mode="adaptive", source=src),
        ])
        assert art.training["algorithms"] == ["bfs", "sssp"]
        assert art.training["samples"] == (
            len(bfs.trace.decisions) + len(sssp.trace.decisions)
        )

    def test_training_provenance(self, corpus, artifact):
        entries = artifact.training["manifests"]
        assert len(entries) == len(corpus)
        for entry, manifest in zip(entries, corpus):
            assert entry["graph_digest"] == manifest.graph["digest"]
            assert entry["decisions"] == len(manifest.decisions)

    def test_depth_cap_respected(self, corpus):
        art = fit_policy(corpus, max_depth=2)
        assert art.depth <= 2


class TestPolicyArtifact:
    def test_round_trip(self, artifact):
        doc = artifact.to_dict()
        again = PolicyArtifact.from_dict(doc)
        assert again == artifact
        assert again.digest == artifact.digest

    def test_save_load(self, artifact, tmp_path):
        path = tmp_path / "policy.json"
        artifact.save(path)
        assert PolicyArtifact.load(path) == artifact

    def test_schema_version_mismatch_rejected(self, artifact):
        doc = artifact.to_dict()
        doc["schema_version"] = POLICY_SCHEMA_VERSION + 1
        with pytest.raises(ReproError, match="schema_version"):
            PolicyArtifact.from_dict(doc)

    def test_digest_tamper_rejected(self, artifact, tmp_path):
        doc = artifact.to_dict()
        doc["classes"] = list(reversed(doc["classes"]))
        with pytest.raises(ReproError, match="digest mismatch"):
            PolicyArtifact.from_dict(doc)
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ReproError, match="digest mismatch"):
            PolicyArtifact.load(path)

    def test_wrong_kind_rejected(self, artifact):
        with pytest.raises(ReproError, match="kind"):
            dataclasses.replace(artifact, kind="mlp")

    def test_wrong_feature_schema_rejected(self, artifact):
        with pytest.raises(ReproError, match="feature schema"):
            dataclasses.replace(artifact, feature_names=("workset_size",))

    def test_missing_file_is_repro_error(self, tmp_path):
        with pytest.raises(ReproError, match="cannot load"):
            PolicyArtifact.load(tmp_path / "absent.json")


# Random-but-valid trees over the real feature schema: internal nodes
# split on a feature name + float threshold, leaves carry a variant.
_CLASSES = ("U_T_BM", "U_T_QU", "U_B_BM", "U_B_QU")
_FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_LEAVES = st.fixed_dictionaries({
    "variant": st.sampled_from(_CLASSES),
    "samples": st.integers(1, 10_000),
    "regret": st.floats(0, 1e3, allow_nan=False),
})
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.fixed_dictionaries({
        "feature": st.sampled_from(FEATURE_NAMES),
        "threshold": _FLOATS,
        "samples": st.integers(2, 10_000),
        "left": children,
        "right": children,
    }),
    max_leaves=12,
)


class TestArtifactProperties:
    @given(tree=_TREES)
    @settings(max_examples=60, deadline=None)
    def test_serialize_load_round_trip(self, tree):
        art = PolicyArtifact(tree=tree, classes=_CLASSES)
        text = json.dumps(art.to_dict())
        again = PolicyArtifact.from_dict(json.loads(text))
        assert again == art
        assert again.digest == art.digest

    @given(tree=_TREES, ws=st.integers(0, 10_000), deg=st.floats(0, 500),
           pressure=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_decide_always_legal(self, tree, ws, deg, pressure):
        art = PolicyArtifact(tree=tree, classes=_CLASSES)
        _, variant, _ = _learned_decision(art, ws, deg, pressure)
        assert variant.code in {
            "U_T_BM", "U_T_QU", "U_B_BM", "U_B_QU",
            "U_W_BM", "U_W_QU",
        }
        if pressure >= PRESSURE_THRESHOLD:
            assert variant.mapping is not Mapping.BLOCK


class TestResolvePolicy:
    def test_artifact_passthrough(self, artifact):
        assert resolve_policy(artifact) is artifact

    def test_learned_spec_loads(self, artifact, tmp_path):
        path = tmp_path / "p.json"
        artifact.save(path)
        assert resolve_policy(f"learned:{path}") == artifact

    def test_empty_path_rejected(self):
        with pytest.raises(ReproError, match="requires an artifact path"):
            resolve_policy("learned:")

    def test_unknown_spec_rejected(self):
        with pytest.raises(ReproError, match="unknown policy spec"):
            resolve_policy("oracle")


class TestLearnedPolicyDecisions:
    def test_pressure_override_is_the_threshold_policys(self, artifact):
        relaxed, _, _ = _learned_decision(artifact, 4_000, 8.0, 0.0)
        _, squeezed, _ = _learned_decision(artifact, 4_000, 8.0, 0.95)
        assert squeezed.workset is WorksetRepr.BITMAP  # minimal for big ws
        assert squeezed.mapping is not Mapping.BLOCK
        assert relaxed.ordering is squeezed.ordering

    def test_region_labels(self, artifact):
        _, _, region = _learned_decision(artifact, 100, 4.0, 0.0)
        assert region.startswith("learned/leaf-depth-")
        _, _, region = _learned_decision(artifact, 100, 4.0, 0.99)
        assert region.endswith("/mem-pressure")

    def test_unconstrained_pick_is_the_zero_pressure_walk(self):
        """The tree reads memory pressure as a feature: a decision whose
        final variant is the tree's own pick under pressure still counts
        as forced when the tree picks otherwise at zero pressure."""
        leaf = {"samples": 1, "regret": 0.0}
        tree = {
            "feature": "memory_pressure",
            "threshold": 0.5,
            "samples": 2,
            "left": {"variant": "U_B_QU", **leaf},
            "right": {"variant": "U_T_BM", **leaf},
        }
        art = PolicyArtifact(tree=tree, classes=_CLASSES)
        graph = attach_uniform_weights(rmat_graph(10, 8.0, seed=3), seed=3)
        n = graph.num_nodes
        budget = graph.device_bytes() + traversal_state_bytes(n) + (n + 7) // 8 + 64
        result = adaptive_run(
            graph, "sssp", 0, memory=MemoryBudget(budget), policy=art
        )
        kept = [
            d for d in result.trace.decisions
            if d.variant == "U_T_BM" and d.memory_pressure > 0.5
        ]
        assert kept
        assert all(d.forced_by_memory for d in kept)
        assert all(d.region.endswith("/mem-pressure") for d in kept)

    def test_overrides_count_the_changed_picks(self):
        """``policy.overrides`` counts the decisions whose tree pick the
        pressure override changed, not every pressured decision."""
        art = PolicyArtifact(
            tree={"variant": "U_T_BM", "samples": 1, "regret": 0.0},
            classes=_CLASSES,
        )
        graph = attach_uniform_weights(rmat_graph(10, 8.0, seed=3), seed=3)
        n = graph.num_nodes
        budget = graph.device_bytes() + traversal_state_bytes(n) + (n + 7) // 8 + 64
        observer = Observer()
        with observing(observer):
            result = adaptive_run(
                graph, "sssp", 0, memory=MemoryBudget(budget), policy=art
            )
        decisions = result.trace.decisions
        changed = sum(d.variant != "U_T_BM" for d in decisions)
        assert all(d.region.endswith("/mem-pressure") for d in decisions)
        assert 0 < changed < len(decisions)
        snapshot = observer.metrics.snapshot()
        assert snapshot["policy.overrides"]["value"] == changed


class TestDeployment:
    def test_values_match_threshold_policy(self, workload, artifact):
        g, src = workload
        threshold = adaptive_run(g, "sssp", src)
        learned = adaptive_run(g, "sssp", src, policy=artifact)
        assert np.array_equal(threshold.values, learned.values)
        assert learned.policy is not None
        assert learned.policy["digest"] == artifact.digest
        assert threshold.policy is None

    def test_policy_spec_string(self, workload, artifact, tmp_path):
        g, src = workload
        path = tmp_path / "p.json"
        artifact.save(path)
        learned = adaptive_run(g, "sssp", src, policy=f"learned:{path}")
        assert learned.policy["digest"] == artifact.digest

    def test_learned_policy_name_and_info(self, workload, artifact, device):
        g, _ = workload
        policy = LearnedPolicy(g, artifact, device=device)
        assert policy.name == "learned"
        info = policy.policy_info()
        assert info["kind"] == "decision_tree"
        assert info["num_leaves"] == artifact.num_leaves

    def test_manifest_records_policy(self, workload, artifact):
        g, src = workload
        learned = adaptive_run(g, "sssp", src, policy=artifact)
        manifest = build_manifest(learned, graph=g, algorithm="sssp",
                                  mode="learned", source=src)
        assert manifest.policy["digest"] == artifact.digest
        again = type(manifest).from_dict(manifest.to_dict())
        assert again == manifest

    def test_policy_metrics_reported(self, workload, artifact):
        # One evaluation and one leaf depth per decision (each decision
        # used to walk the tree twice and count both walks).
        g, src = workload
        observer = Observer()
        with observing(observer):
            result = adaptive_run(g, "sssp", src, policy=artifact)
        snapshot = observer.metrics.snapshot()
        decisions = snapshot["runtime.decisions"]["value"]
        assert decisions == result.trace.num_decisions > 0
        assert snapshot["policy.evaluations"]["value"] == decisions
        assert snapshot["policy.leaf_depth"]["count"] == decisions


class TestCorpusLoading:
    def test_round_trip_through_disk(self, corpus, tmp_path):
        paths = []
        for i, manifest in enumerate(corpus):
            path = tmp_path / f"m{i}.json"
            manifest.write(path)
            paths.append(path)
        loaded = load_manifest_corpus(paths)
        assert [m for _, m in loaded] == list(corpus)

    def test_bad_file_named_in_error(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError, match="broken.json"):
            load_manifest_corpus([bad])

    def test_missing_file_named_in_error(self, tmp_path):
        with pytest.raises(ReproError, match="absent.json"):
            load_manifest_corpus([tmp_path / "absent.json"])
