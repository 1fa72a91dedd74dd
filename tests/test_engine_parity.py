"""Golden-fixture parity: every run mode reproduces the committed
traversals bit-identically.

``tests/fixtures/engine_parity.json`` was first generated before the
iteration engine existed and has stayed byte-identical since.  This
test rebuilds the same 32 runs (2 workloads x 16 run labels) through
``tools/make_parity_fixtures.py`` — ``run_static``, ``adaptive_run``,
``resilient_run`` and ``run_default`` (DOBFS) — and diffs
every field: value-array SHA-256, per-iteration records, and simulated
times serialized as float hex — any drift in kernel ordering, pricing
or float addition fails here before it can silently change a paper
figure.  The labels (``run_bfs_U_T_BM``, ``adaptive_cc``, ...) are
fixture keys only.

The fixture's ``fused_parity`` section additionally pins the
spec-fusion pass (:mod:`repro.engine.fusion`): for every registry
algorithm, static and adaptive, the fused run's value digest, decision
trace and fusion counters — value parity is asserted *inside* the
generator, so a fusion pass that changed any answer cannot even build
the fixture.
"""

import json
import os
import sys

import pytest

_TOOLS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"
)
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)

from make_parity_fixtures import FIXTURE_PATH, WORKLOADS, build  # noqa: E402

RUN_NAMES = (
    "run_bfs_U_T_BM",
    "run_bfs_U_B_QU",
    "run_sssp_U_T_QU",
    "run_sssp_O_T_QU",
    "adaptive_bfs",
    "adaptive_sssp",
    "adaptive_cc",
    "adaptive_pagerank",
    "adaptive_kcore",
    "run_pagerank",
    "run_cc",
    "run_kcore",
    "dobfs",
    "run_triangles",
    "adaptive_triangles",
    "resilient_bfs_faulted",
)

FUSED_NAMES = (
    "static_bfs_U_T_BM",
    "static_bfs_U_B_QU",
    "static_sssp_O_T_QU",
    "static_triangles_U_T_QU",
    "adaptive_bfs",
    "adaptive_sssp",
    "adaptive_cc",
    "adaptive_pagerank",
    "adaptive_kcore",
    "adaptive_triangles",
    "dobfs",
)


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def fresh():
    return build()


def test_fixture_covers_every_entry_point(golden):
    assert set(golden["workloads"]) == set(WORKLOADS)
    for workload in WORKLOADS:
        assert sorted(golden["workloads"][workload]["runs"]) == sorted(RUN_NAMES)
        assert sorted(golden["workloads"][workload]["fused_parity"]) == sorted(
            FUSED_NAMES
        )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_shape_unchanged(fresh, golden, workload):
    for key in ("dataset", "num_nodes", "num_edges"):
        assert fresh["workloads"][workload][key] == golden["workloads"][workload][key]


@pytest.mark.parametrize(
    ("workload", "run"),
    [(w, r) for w in sorted(WORKLOADS) for r in RUN_NAMES],
)
def test_run_bit_identical(fresh, golden, workload, run):
    got = fresh["workloads"][workload]["runs"][run]
    want = golden["workloads"][workload]["runs"][run]
    # Compare field by field so a failure names what drifted.
    assert sorted(got) == sorted(want)
    for field in want:
        assert got[field] == want[field], f"{workload}/{run}: {field} drifted"


@pytest.mark.parametrize(
    ("workload", "run"),
    [(w, r) for w in sorted(WORKLOADS) for r in FUSED_NAMES],
)
def test_fused_run_bit_identical(fresh, golden, workload, run):
    got = fresh["workloads"][workload]["fused_parity"][run]
    want = golden["workloads"][workload]["fused_parity"][run]
    assert sorted(got) == sorted(want)
    for field in want:
        assert got[field] == want[field], (
            f"{workload}/fused:{run}: {field} drifted"
        )
    # Fusion reprices launches; it must never reshape the traversal.
    assert got["decisions_match_unfused"] is True
