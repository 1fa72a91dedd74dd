"""Golden-fixture parity for every execution shape beyond one
``run_frame`` call.

``tests/fixtures/engine_parity.json`` pins the single-run doors.  This
file's fixture, ``tests/fixtures/shape_parity.json``, pins the shapes
that iterate rows their own way: one-shot and continuous batches
(including per-row ejection and spec fusion), a ``ServeLoop`` soak,
sharded runs over 1, 2 and 4 devices (including the recovery ladder, a
spilling memory budget and scan generation), hybrid CPU/GPU runs,
incremental recomputes after mutations, and budgeted adaptive runs.

Each entry holds the value SHA-256, every row's iteration records and
the simulated clock as float hex, so any drift in pricing order or
float addition fails here.  ``tools/make_parity_fixtures.py
--shapes`` rebuilds it; regenerate only when a simulated clock is meant
to change.
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

from make_parity_fixtures import SHAPES_PATH, WORKLOADS, build_shapes  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    with open(SHAPES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def fresh():
    # Round-trip through JSON so tuples compare as the stored lists.
    return json.loads(json.dumps(build_shapes()))


def test_fixture_covers_both_workloads(golden):
    assert set(golden["workloads"]) == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_run_labels(golden, fresh, workload):
    assert sorted(fresh["workloads"][workload]["runs"]) == sorted(
        golden["workloads"][workload]["runs"]
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_shape_keeps_its_clock(golden, fresh, workload):
    want = golden["workloads"][workload]["runs"]
    got = fresh["workloads"][workload]["runs"]
    drifted = sorted(label for label in want if got.get(label) != want[label])
    assert not drifted, f"{workload}: shapes drifted from the fixture: {drifted}"
