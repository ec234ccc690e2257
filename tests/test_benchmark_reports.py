"""The benchmark's seed-0 reports, run in process, match their recorded digests.

perfbench/run.py checks every report it runs against perfbench/reference.json;
this runs the same commands through ``harness.main`` so a report that moves
fails the test suite as well, not only the benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from incpaths import harness

BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH)
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # its dataclasses look their module up there
_spec.loader.exec_module(bench)

COMMANDS = [cmd for commands in bench.WORKLOADS.values() for cmd in commands]


@pytest.mark.parametrize("cmd", COMMANDS, ids=[cmd.label for cmd in COMMANDS])
def test_seed0_report_matches_reference_digest(cmd, capsys):
    assert harness.main(cmd.argv(bench.DEFAULT_SEED)) == 0
    report = json.loads(capsys.readouterr().out)
    assert bench.digest(report) == bench.load_reference()[cmd.label]
