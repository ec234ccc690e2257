"""Smoke test of the demos: each runs to completion in a fresh interpreter."""

import subprocess
import sys

import pytest

from oracles import ROOT, child_env


# look_ahead_search.py (about 15 s) and greedy_and_jumps.py (about 4 s) are
# left out to keep the suite short
@pytest.mark.parametrize("demo", [
    "cycle_statistics.py",
    "exact_oracles.py",
    "second_moment.py",
    "walks_and_worst_cases.py",
])
def test_demo_runs(demo):
    child = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=child_env(),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
