"""Tests for incpaths.harness."""

import concurrent.futures
import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction

import numpy
import pytest

from incpaths import CapacityError, core, cyclestats, harness, walks
from incpaths.cyclestats import FLOAT_CAP, alpha_table
from incpaths.harness import (
    ExperimentConfig,
    Report,
    main,
    run,
    summarize,
    trial_seed,
)
from oracles import SRC, child_env, traced_peak


def strip_meta(report: Report) -> dict:
    d = report.to_dict()
    d.pop("meta")
    return d


def test_summarize_constant():
    mean, stddev, ci = summarize([3.0, 3.0, 3.0])
    assert mean == 3.0
    assert stddev == 0.0
    assert ci == (3.0, 3.0)


def test_summarize_two_values():
    mean, stddev, ci = summarize([0.0, 1.0])
    assert mean == 0.5
    assert abs(stddev - math.sqrt(0.5)) < 1e-15
    assert abs(ci[0] - (0.5 - 1.96 * math.sqrt(0.5) / math.sqrt(2))) < 1e-12


def test_summarize_permutation_invariant():
    a = summarize([1.0, 2.0, 7.0, -1.0])
    b = summarize([7.0, -1.0, 2.0, 1.0])
    assert a == b


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_resolved_rejects_an_unknown_command():
    with pytest.raises(ValueError, match="unknown command 'nope'"):
        ExperimentConfig(command="nope").resolved()


def test_trial_seed_mixing():
    seeds = {trial_seed(42, t) for t in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    assert trial_seed(42, 0) != trial_seed(43, 0)
    assert trial_seed(42, 7) == trial_seed(42, 7)


@pytest.mark.parametrize(
    "base",
    [
        dict(command="greedy-sim", n=60, trials=8, seed=11),
        # tuple measures through the process pool
        dict(command="walks-demo", n=12, trials=8, seed=11, emit_raw=True),
        # the Monte Carlo branch, whose reducer adds expected_mean
        dict(command="moments", n=6, trials=8, seed=11, emit_raw=True),
    ],
    ids=["greedy-sim", "walks-demo", "moments-trials"],
)
def test_reports_bit_identical_across_runs_and_threads(base):
    one = run(ExperimentConfig(**base, threads=1))
    again = run(ExperimentConfig(**base, threads=1))
    parallel = run(ExperimentConfig(**base, threads=2))
    assert strip_meta(one) == strip_meta(again) == strip_meta(parallel)
    assert json.dumps(strip_meta(one), sort_keys=True) == json.dumps(
        strip_meta(parallel), sort_keys=True
    )


def test_greedy_sim_report_shape():
    report = run(ExperimentConfig(command="greedy-sim", n=80, trials=6, seed=3, emit_raw=True))
    series = report.results["fraction"]
    assert series["count"] == 6
    assert len(series["values"]) == 6
    assert 0 < series["mean"] < 1
    assert report.config["model"] == "real"
    assert report.config["seed"] == 3
    assert report.prng.startswith("numpy-PCG64")


def test_kgreedy_sim_runs():
    report = run(ExperimentConfig(command="kgreedy-sim", n=60, k=3, trials=4, seed=0))
    assert 0 < report.results["fraction"]["mean"] <= 1


def test_walks_demo_guarantees():
    report = run(ExperimentConfig(command="walks-demo", n=20, trials=30, seed=5))
    results = report.results
    assert results["all_walk_guarantees_met"]
    assert results["all_step_totals_exact"]
    assert results["all_path_guarantees_met"]
    assert results["pedestrian_total_steps"]["mean"] == 20 * 19


@pytest.mark.parametrize("n, ped_max, ped_total, ref_max, met", [
    (10, [9, 8], [90, 90], [3, 3], (False, True, True)),  # a walk one short of n - 1
    (11, [10, 10], [110, 110], [4, 3], (True, True, False)),  # 3 < ceil(sqrt(10)) = 4
    (10, [9, 9], [90, 89], [3, 3], (True, False, True)),  # a step total other than n(n-1)
    (10, [9], [90], [3], (True, True, True)),  # each column at its threshold
    (11, [10], [110], [4], (True, True, True)),
], ids=["walk-short", "path-short", "step-total-off", "at-thresholds-10", "at-thresholds-11"])
def test_walk_guarantees_at_their_thresholds(n, ped_max, ped_total, ref_max, met):
    flags = harness._walk_guarantees({"n": n}, ped_max, ped_total, ref_max)
    assert (flags["all_walk_guarantees_met"], flags["all_step_totals_exact"],
            flags["all_path_guarantees_met"]) == met


def test_alpha_table_command_with_csv(tmp_path):
    out = tmp_path / "alpha.csv"
    report = run(ExperimentConfig(command="alpha-table", k=12, out=str(out)))
    assert report.results["last_row"]["k"] == 12
    assert out.exists()
    assert len(out.read_text().strip().splitlines()) == 13
    with open(out, newline="") as fh:
        rows = [{key: float(v) for key, v in row.items()} for row in csv.DictReader(fh)]
    assert rows == alpha_table(12) == report.results["rows"]  # floats round-trip


def test_cycles_mc_matches_exact():
    report = run(ExperimentConfig(command="cycles-mc", k=6, trials=20000, seed=1))
    assert report.results["within_3_sigma"]
    assert abs(report.results["empirical_mean"] - report.results["exact_mean"]) < 0.1


@pytest.mark.parametrize("m, within", [(2, True), (4, False)], ids=["2-sigma", "4-sigma"])
def test_cycles_mc_verdict_at_three_sigma(monkeypatch, m, within):
    # the exact k = 6 pmf with m sigma of bin 3 moved from bin 4 to bin 3;
    # bin 4's sigma is 0.97 of bin 3's, so bin 3 decides the verdict
    trials = 10_000
    pmf = numpy.array([float(p) for p in cyclestats.longest_cycle_distribution(6).pmf])
    shift = m * math.sqrt(pmf[3] * (1 - pmf[3]) / trials)
    pmf[3] += shift
    pmf[4] -= shift
    monkeypatch.setattr(cyclestats, "sample_longest_cycle", lambda *args: pmf)
    results = run(ExperimentConfig(command="cycles-mc", k=6, trials=trials)).results
    assert results["within_3_sigma"] is within
    assert results["max_abs_deviation"] == pytest.approx(shift, rel=1e-12)


def test_cycles_mc_refuses_k_past_float_cap_before_sampling(monkeypatch):
    def sampler(*args):
        raise AssertionError("sampled before the capacity check")

    monkeypatch.setattr(cyclestats, "sample_longest_cycle", sampler)
    with pytest.raises(CapacityError):
        run(ExperimentConfig(command="cycles-mc", k=FLOAT_CAP + 1, trials=1))


def test_hamprob_probability_range():
    report = run(ExperimentConfig(command="hamprob", n=8, trials=40, seed=2))
    assert 0.0 <= report.results["existence"]["mean"] <= 1.0


def test_moments_exact_and_monte_carlo():
    exact = run(ExperimentConfig(command="moments", n=4))
    assert exact.results["first_moment"] == {"numerator": "4", "denominator": "1"}
    mc = run(ExperimentConfig(command="moments", n=6, trials=50, seed=9))
    assert mc.results["expected_mean"] == 6
    assert mc.results["count"]["mean"] > 0


def test_census_command(tmp_path):
    out = tmp_path / "census.csv"
    report = run(ExperimentConfig(command="census", n=4, out=str(out)))
    assert report.results["total_pairs"] == 576
    assert out.exists()
    recombined = report.results["recombined_second_moment"]
    assert abs(recombined - 296 / 15) < 1e-9


def test_census_reports_disjoint_fraction():
    report = run(ExperimentConfig(command="census", n=6))
    frac = report.results["disjoint_pair_fraction"]
    assert 0 < frac < 1
    assert abs(report.results["disjoint_pair_fraction_limit"] - math.exp(-2)) < 1e-15


def test_bounds_command():
    report = run(ExperimentConfig(command="bounds", n=50))
    assert report.results["s1"] > 0
    assert report.results["s3_bound"] > 0


def test_constant_c_command():
    report = run(ExperimentConfig(command="constant-c", k=40))
    assert report.results["abs_error"] < 1e-3


def test_constant_c_prints_numerators_past_the_int_str_limit(capsys):
    # from c_max = 1559 on the numerator has more than 4300 digits, CPython's
    # default limit for int-to-str conversion (3.10.7 on)
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    limit = get_limit()
    assert main(["constant-c", "--k", "1559"]) == 0
    assert get_limit() == limit
    results = json.loads(capsys.readouterr().out)["results"]
    printed = results["partial_sum"]
    assert len(printed["numerator"]) > 4300
    set_limit(0)  # int() of more than 4300 digits is limited too
    try:
        partial_sum = Fraction(int(printed["numerator"]), int(printed["denominator"]))
    finally:
        set_limit(limit)
    assert float(partial_sum) == results["partial_sum_float"]


@pytest.mark.parametrize(
    "config",
    [dict(command="walks-demo", n=20, trials=5, seed=5), dict(command="worstcase", n=8)],
    ids=["walks-demo", "worstcase"],
)
def test_walk_commands_build_no_trajectories(config, monkeypatch):
    def refuse(ordering):
        raise AssertionError("the CLI measures walk lengths without trajectories")

    monkeypatch.setattr(walks, "pedestrian_walks", refuse)
    monkeypatch.setattr(walks, "refusal_paths", refuse)
    assert "refusal_max_length" in run(ExperimentConfig(**config)).results


def test_walk_lengths_trace_little_memory():
    # the n(n-1) trajectory entries and n visited sets of the trajectory
    # functions traced 9.9 MiB here; the lengths pass keeps O(n^2) bytes
    harness._import_layers(("core", "walks"))
    ordering = core.random_ordering(400, 0)
    ordering.edges_by_label  # the sort every walk measure shares
    assert traced_peak(lambda: harness._walk_lengths(ordering)) < 2 * 2**20


def test_worstcase_command_deterministic():
    a = run(ExperimentConfig(command="worstcase", n=8))
    b = run(ExperimentConfig(command="worstcase", n=8))
    assert strip_meta(a) == strip_meta(b)
    assert a.results["pedestrian_max_length"] == 7
    assert a.results["has_increasing_ham_path"] is False


@pytest.mark.parametrize("n, has_ham_path", [(2, True), (8, False)])
def test_worstcase_reads_existence_off_the_longest_path(n, has_ham_path, monkeypatch):
    harness._import_layers(("exact",))

    def refuse(ordering):
        raise AssertionError("worstcase runs one DP, the longest path's")

    monkeypatch.setattr(harness.exact, "has_increasing_ham_path", refuse)
    results = run(ExperimentConfig(command="worstcase", n=n)).results
    assert results["longest_increasing_path"] == (n - 1 if has_ham_path else n - 2)
    assert results["has_increasing_ham_path"] is has_ham_path


def test_report_written_to_file(tmp_path):
    out = tmp_path / "report.json"
    run(ExperimentConfig(command="greedy-sim", n=40, trials=3, seed=0, out=str(out)))
    data = json.loads(out.read_text())
    assert data["config"]["command"] == "greedy-sim"
    assert data["results"]["fraction"]["count"] == 3


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["greedy-sim", "--n", "40", "--trials", "3"]) == 0
    capsys.readouterr()
    assert main(["moments", "--n", "9"]) == 3  # capacity
    assert main(["greedy-sim", "--trials", "0"]) == 2  # invalid argument
    assert main(["worstcase", "--n", "7"]) == 2  # odd n is invalid here
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


_UNSET = {"n": None, "k": None, "trials": None, "seed": 0, "model": None, "mode": None,
          "precision": None, "out": None, "threads": 1, "emit_raw": False}


@pytest.mark.parametrize("name", list(harness.COMMANDS))
def test_parser_takes_the_ten_options_for_each_command(name):
    # the namespace main and perfbench/replay.py's experiment_config read
    parse = harness.build_parser().parse_args
    assert vars(parse([name])) == {"command": name, **_UNSET}
    argv = [name, "--n", "7", "--k", "3", "--trials", "5", "--seed", "11", "--model", "real",
            "--mode", "strict", "--precision", "float", "--out", "r.json", "--threads", "2",
            "--emit-raw"]
    assert vars(parse(argv)) == {"command": name, "n": 7, "k": 3, "trials": 5, "seed": 11,
                                 "model": "real", "mode": "strict", "precision": "float",
                                 "out": "r.json", "threads": 2, "emit_raw": True}


@pytest.mark.parametrize("argv", [[], ["bounds", "--model", "gauss"], ["bounds", "--n", "x"]],
                         ids=["no-command", "bad-choice", "bad-int"])
def test_parser_exits_2_on_a_bad_argument(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        harness.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_hamprob_past_the_dp_cap_exits_3_naming_the_counting_dp(capsys):
    # hamprob runs the 1-bit existence DP, whose cap the counting DP sets
    assert main(["hamprob", "--n", "21"]) == 3
    err = capsys.readouterr().err
    assert "n=21 exceeds cap 20 of the exact DPs, which counting sets" in err
    assert "existence and the longest path share" in err


@pytest.mark.parametrize(
    "argv",
    [["greedy-sim", "--n", "1000000", "--trials", "1"], ["worstcase", "--n", "1000000"]],
    ids=["greedy-sim", "worstcase"],
)
def test_cli_exits_3_before_allocating_an_ordering_over_the_cap(argv, capsys):
    assert main(argv) == 3
    assert "n <= 10000" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_nonpositive_threads(threads):
    assert main(["greedy-sim", "--n", "20", "--trials", "2", "--threads", threads]) == 2


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize(
    "argv", [["greedy-sim", "--n", "20", "--trials", "2"], ["cycles-mc", "--k", "6", "--trials", "10"]]
)
def test_cli_rejects_seed_outside_64_bits(argv, seed, capsys):
    # trial_seed reduces the seed mod 2**64, so seeds past it would repeat a stream
    assert main([*argv, "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: need 0 <= seed < 2**64, got seed={seed}\n" and not captured.out


def test_cli_accepts_the_largest_seed(capsys):
    assert main(["greedy-sim", "--n", "20", "--trials", "2", "--seed", str(2**64 - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 2**64 - 1


def test_cli_rejects_csv_out_without_export(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["greedy-sim", "--n", "20", "--trials", "2", "--out", str(out)]) == 2
    assert "no CSV export" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_out_in_a_missing_directory_before_any_work(tmp_path, monkeypatch, capsys):
    def work(*args):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setitem(harness.COMMANDS, "bounds", harness.COMMANDS["bounds"]._replace(impl=work))
    out = tmp_path / "missing" / "x.json"
    assert main(["bounds", "--n", "20", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --out directory does not exist")


def test_cli_exits_2_when_out_cannot_be_written(tmp_path, capsys):
    assert main(["bounds", "--n", "20", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write --out") and not captured.out


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size and runs
    the tasks in this process."""

    sizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


# hamprob at one and two workers in a fresh interpreter that starts its pool
# workers by the method in argv[1]: such a worker inherits no bound layer,
# so only the pool's initializer (_import_layers) binds them
_POOL_BY_START_METHOD = """
import json, multiprocessing, os, sys
multiprocessing.set_start_method(sys.argv[1])
os.cpu_count = lambda: 2  # so the clamp leaves two workers on a 1-CPU runner
from incpaths.harness import ExperimentConfig, run
configs = [ExperimentConfig(command="hamprob", n=8, trials=40, seed=2, threads=t) for t in (1, 2)]
print(json.dumps([run(config).to_dict() for config in configs]))
"""


@pytest.mark.parametrize("method", [method for method in ("spawn", "forkserver")
                                    if method in multiprocessing.get_all_start_methods()])
def test_trial_pool_under_a_non_fork_start_method(method):
    child = subprocess.run([sys.executable, "-c", _POOL_BY_START_METHOD, method], env=child_env(),
                           capture_output=True, text=True, timeout=60, check=True)
    one, two = json.loads(child.stdout)
    assert (one.pop("meta")["threads"], two.pop("meta")["threads"]) == (1, 2)
    assert one == two


@pytest.mark.parametrize(
    "trials, cpus, pool",
    [(2, 8, 2), (10, 3, 3), (10, None, None), (1, 8, None)],
    ids=["trials", "cpus", "cpu-count-unknown", "one-trial"],
)
def test_worker_count_is_clamped_to_trials_and_cpus(monkeypatch, trials, cpus, pool):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    base = dict(command="hamprob", n=5, trials=trials, seed=3)
    report = run(ExperimentConfig(**base, threads=5000))
    assert RecordingPool.sizes == ([] if pool is None else [pool])
    assert report.meta["threads"] == (pool or 1)
    assert strip_meta(report) == strip_meta(run(ExperimentConfig(**base, threads=1)))


def test_commands_without_trials_report_one_worker(monkeypatch):
    # cycles-mc takes --trials but draws no ordering per trial: it samples
    # in this process, so it builds no pool and reports one worker too
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for base in (dict(command="bounds", n=20), dict(command="cycles-mc", k=5, trials=100)):
        assert run(ExperimentConfig(**base, threads=4)).meta["threads"] == 1
    assert RecordingPool.sizes == []


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "20", "--k", "5", "--trials", "3"],
        ["bounds", "--n", "20", "--model", "perm"],
        ["census", "--n", "4", "--k", "2"],
        ["cycles-mc", "--k", "5", "--n", "3"],
        ["greedy-sim", "--n", "20", "--trials", "2", "--precision", "float"],
        # --emit-raw goes with --trials
        ["bounds", "--n", "20", "--emit-raw"],
        ["census", "--n", "4", "--emit-raw"],
        ["moments", "--n", "4", "--emit-raw"],
        ["alpha-table", "--k", "5", "--emit-raw"],
        ["constant-c", "--k", "10", "--emit-raw"],
        ["worstcase", "--n", "6", "--emit-raw"],
    ],
)
def test_cli_rejects_stray_flags(argv, capsys):
    assert main(argv) == 2
    assert "takes no --" in capsys.readouterr().err


@pytest.mark.parametrize(
    "base",
    [dict(command="greedy-sim", n=30, trials=3, seed=1),
     dict(command="cycles-mc", k=5, trials=100)],
    ids=["greedy-sim", "cycles-mc"],
)
def test_emit_raw_is_echoed_in_config(base):
    plain = run(ExperimentConfig(**base))
    raw = run(ExperimentConfig(**base, emit_raw=True))
    assert "emit_raw" not in plain.config
    assert raw.config == {**plain.config, "emit_raw": True}
    assert raw.results != plain.results  # the trial values, or the empirical pmf


def test_moments_takes_trials():
    report = run(ExperimentConfig(command="moments", n=5, trials=3, seed=1))
    assert report.config["trials"] == 3
    assert "trials" not in run(ExperimentConfig(command="moments", n=4)).config


def test_cli_prints_json(capsys):
    assert main(["constant-c", "--k", "10"]) == 0
    printed = capsys.readouterr().out
    data = json.loads(printed)
    assert data["results"]["c_max"] == 10


# harness.main in a fresh interpreter: its exit code, whether numpy and
# importlib.metadata were imported, the report's prng identifier, and the
# modules loaded beyond those the bare interpreter starts with
_FRESH_MAIN = """
import sys
bare = set(sys.modules)  # what this environment's site preloads
import contextlib, io, json
from incpaths.harness import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "metadata": "importlib.metadata" in sys.modules,
                  "prng": json.loads(out.getvalue())["prng"],
                  "loaded": sorted(set(sys.modules) - bare)}))
"""

_EXACT_ONLY = {
    "alpha-table-rational": ["alpha-table", "--k", "12", "--precision", "rational"],
    "bounds": ["bounds", "--n", "20"],
    "moments-exact": ["moments", "--n", "4"],
    "census": ["census", "--n", "4"],
    "constant-c": ["constant-c", "--k", "10"],
}
_WITH_NUMPY = {
    "greedy-sim": ["greedy-sim", "--n", "30", "--trials", "2"],
    "kgreedy-sim": ["kgreedy-sim", "--n", "30", "--k", "3", "--trials", "2"],
    "walks-demo": ["walks-demo", "--n", "10", "--trials", "2"],
    "worstcase": ["worstcase", "--n", "6"],
    "alpha-table-float": ["alpha-table", "--k", "12", "--precision", "float"],
    "cycles-mc": ["cycles-mc", "--k", "5", "--trials", "100"],
    "hamprob": ["hamprob", "--n", "6", "--trials", "4"],
    "moments-trials": ["moments", "--n", "5", "--trials", "3"],
    "hamprob-threads-2": ["hamprob", "--n", "6", "--trials", "4", "--threads", "2"],
}


@pytest.mark.parametrize(
    "argv, uses_numpy",
    [(argv, False) for argv in _EXACT_ONLY.values()]
    + [(argv, True) for argv in _WITH_NUMPY.values()],
    ids=[*_EXACT_ONLY, *_WITH_NUMPY],
)
def test_each_command_imports_only_its_layers(argv, uses_numpy):
    # a fresh interpreter per command: a layer missing from a command's
    # list fails here even when an earlier command in this process loaded it
    child = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *argv], env=child_env(),
                           capture_output=True, text=True, timeout=60, check=True)
    seen = json.loads(child.stdout)
    metadata = seen.pop("metadata")
    loaded = set(seen.pop("loaded"))
    assert seen == {"code": 0, "numpy": uses_numpy,
                    "prng": f"numpy-PCG64-{numpy.__version__}"}
    # no layer builds a dataclass, and csv is loaded only for a .csv --out
    assert not loaded & {"dataclasses", "csv"}
    if not uses_numpy:
        # the prng version is read from numpy/version.py, not the slow metadata
        assert not metadata
        # nor inspect or typing, which numpy itself imports
        assert not loaded & {"inspect", "typing"}
        # no Fraction is built: the split sums, alpha_table's rows and the
        # moment, census and constant-c reports are int / int divisions and
        # gcd-reduced integer pairs
        assert not loaded & {"fractions", "decimal"}


def test_missing_numpy_exits_2_with_one_error_line():
    # -S leaves site-packages, and with it numpy, off the path; src/ stands
    # alone on PYTHONPATH, since an inherited entry could put numpy back
    child = subprocess.run([sys.executable, "-S", "-m", "incpaths", "constant-c", "--k", "3"],
                           env=dict(os.environ, PYTHONPATH=SRC),
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 2
    assert child.stdout == ""
    assert child.stderr.startswith("error: numpy is not installed")
    assert child.stderr.count("\n") == 1


def _run_module(*argv):
    """``python -m incpaths argv`` in a fresh interpreter, as users start it."""
    return subprocess.run([sys.executable, "-m", "incpaths", *argv], env=child_env(),
                          capture_output=True, timeout=60)


def _reproducible_block(report_json):
    report = json.loads(report_json)
    return {"config": report["config"], "results": report["results"]}


@pytest.mark.parametrize("argv", [["bounds", "--n", "30"],
                                  ["greedy-sim", "--n", "30", "--trials", "2"]],
                         ids=["bounds", "greedy-sim"])
def test_module_entry_prints_the_in_process_report(argv, tmp_path, capsys):
    child = _run_module(*argv)
    assert (child.returncode, child.stderr) == (0, b"")
    assert main(argv) == 0
    assert _reproducible_block(child.stdout) == _reproducible_block(capsys.readouterr().out)
    out = tmp_path / "x.json"
    child = _run_module(*argv, "--out", str(out))
    assert child.returncode == 0
    assert out.read_bytes() == child.stdout


@pytest.mark.parametrize("argv, code, message", [
    (["bounds", "--n", "x"], 2, "argument --n: invalid int value: 'x'"),
    (["hamprob", "--n", "21"], 3, "n=21 exceeds cap 20 of the exact DPs"),
], ids=["bad-option", "past-the-cap"])
def test_module_entry_exit_codes_keep_one_error_line(argv, code, message):
    child = _run_module(*argv)
    assert (child.returncode, child.stdout) == (code, b"")
    errors = [line for line in child.stderr.decode().splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]


def test_entry_freezes_the_collector_after_main_and_exits_with_its_code(monkeypatch):
    from incpaths import __main__ as cli

    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 3
    assert calls == ["main", "freeze"]


@pytest.mark.parametrize(
    "base",
    [dict(command="bounds", n=20), dict(command="greedy-sim", n=30, trials=4, threads=2)],
    ids=["bounds", "greedy-sim-threads-2"],
)
def test_meta_reports_peak_rss(base):
    meta = run(ExperimentConfig(**base)).meta
    assert meta["peak_rss_mb"] > 0
