"""The CI ``smoke`` job runs exactly the scenarios ``tools/smoke.py`` has."""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import smoke  # noqa: E402


def test_ci_matrix_lists_every_smoke_scenario():
    path = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")
    with open(path, encoding="utf-8") as fh:
        match = re.search(r"^\s*scenario:\s*\[([^\]]*)\]", fh.read(), re.M)
    assert match, "ci.yml lost the smoke job's matrix.scenario list"
    assert [name.strip() for name in match.group(1).split(",")] == list(
        smoke.SCENARIOS
    )
