"""Every command variant's report, run in process, matches its recorded digest.

``tests/golden.json`` holds the toolkit version the digests were recorded
at and one sha256 per argv: of the report's ``config`` and ``results``
block, as perfbench's ``digest`` hashes it, or of the file an ``--out`` to
a .csv path writes.  A digest that moves while ``__version__`` is
unchanged fails the test.  A change that moves a report on purpose bumps
the version and re-records the file:

    python tests/test_golden_reports.py --record

At an unchanged version ``--record`` only adds new variants: when a
recorded digest moved it lists the moved variants, exits non-zero and
leaves the file as it was.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from incpaths import __version__, harness  # noqa: E402

GOLDEN = Path(__file__).resolve().with_name("golden.json")
CSV = "{csv}"  # an argv's stand-in for a .csv path in a fresh directory

_TRIAL_COMMANDS = [
    "greedy-sim --n 30 --trials 20",
    "walks-demo --n 20 --trials 10",
    "hamprob --n 8 --trials 50",
    "moments --n 6 --trials 50",
]
VARIANTS = [
    *(f"{cmd} --model {model}{raw}" for cmd in _TRIAL_COMMANDS
      for model in ("perm", "real") for raw in ("", " --emit-raw")),
    *(f"kgreedy-sim --n 40 --k 3 --trials 5 --mode {mode} --model {model}{raw}"
      for mode in ("strict", "exhaust") for model in ("perm", "real")
      for raw in ("", " --emit-raw")),
    "cycles-mc --k 10 --trials 2000",
    "cycles-mc --k 10 --trials 2000 --emit-raw",
    "alpha-table --k 30 --precision rational",
    "alpha-table --k 30 --precision float",
    "moments --n 5",
    "census --n 5",
    "bounds --n 50",
    "constant-c --k 40",
    "worstcase --n 2",
    "worstcase --n 8",
    "worstcase --n 22",
    f"alpha-table --k 30 --out {CSV}",
    f"census --n 5 --out {CSV}",
]


def report_digest(variant: str) -> str:
    """sha256 of ``variant``'s ``config``+``results`` block, or of the CSV
    it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "export.csv"
        argv = [csv_path.as_posix() if arg == CSV else arg for arg in variant.split()]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert harness.main(argv) == 0, variant
        if CSV in variant:
            return hashlib.sha256(csv_path.read_bytes()).hexdigest()
    report = json.loads(stdout.getvalue())
    block = {"config": report["config"], "results": report["results"]}
    return hashlib.sha256(json.dumps(block, sort_keys=True).encode()).hexdigest()


def record(path: Path = GOLDEN, variants: list[str] = VARIANTS) -> None:
    """Write the digests of ``variants`` at this version to ``path``; exit
    non-zero, the file untouched, if one it holds at this version moved."""
    digests = {variant: report_digest(variant) for variant in variants}
    if path.exists():
        golden = json.loads(path.read_text())
        if golden["version"] == __version__:
            moved = [variant for variant, digest in golden["digests"].items()
                     if digests.get(variant, digest) != digest]
            if moved:
                sys.exit(f"reports moved at unchanged version {__version__}; bump the "
                         f"version, then re-record: {moved}")
    path.write_text(json.dumps({"version": __version__, "digests": digests}, indent=2) + "\n")


def test_golden_reports_match_their_recorded_digests():
    golden = json.loads(GOLDEN.read_text())
    if golden["version"] != __version__:
        pytest.fail(f"golden.json was recorded at version {golden['version']}, this is "
                    f"{__version__}: re-record it with python tests/test_golden_reports.py --record")
    assert list(golden["digests"]) == VARIANTS
    moved = [variant for variant in VARIANTS if report_digest(variant) != golden["digests"][variant]]
    assert not moved, (f"reports moved at unchanged version {__version__}; bump the version "
                       f"and re-record: {moved}")


def test_record_refuses_to_overwrite_a_moved_digest_at_the_same_version(tmp_path):
    path = tmp_path / "golden.json"
    variants = ["worstcase --n 2", "constant-c --k 40", "bounds --n 50"]
    current = {variant: report_digest(variant) for variant in variants}
    stale = json.dumps({"version": __version__,
                        "digests": {**current, "constant-c --k 40": "0" * 64}}) + "\n"
    path.write_text(stale)
    with pytest.raises(SystemExit, match=r"\['constant-c --k 40'\]") as exit_info:
        record(path, variants)
    assert exit_info.value.code != 0
    assert path.read_text() == stale

    # a new variant is added to the digests recorded at this version
    path.write_text(json.dumps({"version": __version__,
                                "digests": {"worstcase --n 2": current["worstcase --n 2"]}}))
    record(path, variants)
    assert json.loads(path.read_text()) == {"version": __version__, "digests": current}

    # a file from another version is re-recorded whatever moved
    path.write_text(stale.replace(__version__, "0.0.0"))
    record(path, variants)
    assert json.loads(path.read_text()) == {"version": __version__, "digests": current}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: python {sys.argv[0]} --record")
    record()
