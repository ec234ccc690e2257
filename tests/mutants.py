"""The mutant gate, run as ``python tests/mutants.py``.  Each row of
``MUTANTS`` is (file in src/incpaths, old text, new text, killing test ids
in tests/).  For each row the gate copies src/, tests/ and pyproject.toml
to a temporary directory, checks that the old text occurs exactly once,
puts the new text in its place and runs only the named tests.  It exits 1
if any mutant survives them.  A mutant keeps every import and name, so
only a changed value can kill it.  ``EQUIVALENT`` lists mutants that
change no result, with the reason, so that nobody re-tries them."""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    ("core.py", "ranked[start : start + _BLOCK + 1]", "ranked[start : start + _BLOCK]",
     ["test_core.py::test_tie_repair_equals_the_loop[block-2-3-2-way tie]"]),
    ("core.py", "ranked[0] > 0", "ranked[0] >= 0",
     ["test_core.py::test_tie_repair_equals_the_loop[default-block-3-zero]"]),
    ("exact.py", "factorial(n - 1).bit_length()", "factorial(n - 1).bit_length() - 1",
     ["test_exact.py::test_count_k3_example"]),
    ("harness.py", "min(ped_max) >= n - 1", "min(ped_max) >= n - 2",
     ["test_harness.py::test_walk_guarantees_at_their_thresholds[walk-short]"]),
    ("harness.py", "min(ref_max) >= math.ceil", "min(ref_max) >= math.floor",
     ["test_harness.py::test_walk_guarantees_at_their_thresholds[path-short]"]),
    ("harness.py", "3 * sigma", "5 * sigma",
     ["test_harness.py::test_cycles_mc_verdict_at_three_sigma[4-sigma]"]),
    ("secondmoment.py", "factorial(c_max) << c_max", "factorial(c_max) << c_max | 1",
     ["test_secondmoment.py::test_constant_c_partial_equals_triple_loop"]),
    ("secondmoment.py", "mid = _split_sum(range(c_small + 1,", "mid = _split_sum(range(c_small + 2,",
     ["test_secondmoment.py::test_split_sums_equal_per_term_binomials[50]",
      "test_secondmoment.py::test_split_sums_equal_per_term_binomials[100]"]),
    ("cyclestats.py", "pairwise([0, *counts])", "pairwise([1, *counts])",
     ["test_cyclestats.py::test_integer_tables_match_fraction_recurrence"]),
]

EQUIVALENT = [
    ("walks.py", "(row > last)", "(row >= last)", "labels are distinct, and the only label "
     "equal to last leads back to a visited vertex"),
    ("kgreedy.py", "hi = lo + span - 1", "hi = lo + span - 2", "the one entry the narrower "
     "bracket can leave queued is the rejoining edge itself, at label tau, whose other end is "
     "on the path or in the tree, so queue_from or the pop skips it"),
]


def survives(file, old, new, tests):
    """True if ``tests`` pass with ``old`` replaced by ``new`` in ``file``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, f"{tmp}/{name}", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = Path(tmp, "src", "incpaths", file)
        text = path.read_text()
        if text.count(old) != 1:
            sys.exit(f"{file}: {old!r} occurs {text.count(old)} times, not once")
        path.write_text(text.replace(old, new))
        # pyproject.toml puts the copy's src/ first on the path
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *(f"tests/{test}" for test in tests)], cwd=tmp, capture_output=True, text=True)
    if child.returncode not in (0, 1):  # a collection, usage or internal error
        sys.exit(f"pytest could not run {tests}:\n{child.stdout}{child.stderr}")
    return child.returncode == 0


def main():
    for file, old, _, _ in EQUIVALENT:
        if (ROOT / "src" / "incpaths" / file).read_text().count(old) != 1:
            sys.exit(f"{file}: {old!r} does not occur exactly once")
    survivors = 0
    for file, old, new, tests in MUTANTS:
        start = time.perf_counter()
        survived = survives(file, old, new, tests)
        survivors += survived
        print(f"{'SURVIVED' if survived else 'killed'} {time.perf_counter() - start:4.1f} s  "
              f"{file}: {old!r} -> {new!r}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
