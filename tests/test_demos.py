"""Smoke test of the demos: each runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# look_ahead_search.py (about 15 s) and greedy_and_jumps.py (about 4 s) are
# left out to keep the suite short
@pytest.mark.parametrize("demo", [
    "cycle_statistics.py",
    "exact_oracles.py",
    "second_moment.py",
    "walks_and_worst_cases.py",
])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
