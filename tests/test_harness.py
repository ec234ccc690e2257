"""Tests for incpaths.harness."""

import json
import math

import pytest

from incpaths.cyclestats import alpha_table, write_alpha_rows
from incpaths.harness import (
    ExperimentConfig,
    Report,
    main,
    run,
    summarize,
    trial_seed,
)


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


def test_trial_seed_mixing():
    seeds = {trial_seed(42, t) for t in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    assert trial_seed(42, 0) != trial_seed(43, 0)
    assert trial_seed(42, 7) == trial_seed(42, 7)


def test_reports_bit_identical_across_runs_and_threads():
    base = dict(command="greedy-sim", n=60, trials=8, seed=11)
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


def test_alpha_table_command_with_csv(tmp_path):
    out = tmp_path / "alpha.csv"
    report = run(ExperimentConfig(command="alpha-table", k=12, out=str(out)))
    assert report.results["last_row"]["k"] == 12
    assert out.exists()
    assert len(out.read_text().strip().splitlines()) == 13
    direct = tmp_path / "direct.csv"
    write_alpha_rows(direct, alpha_table(12))
    assert out.read_bytes() == direct.read_bytes()


def test_cycles_mc_matches_exact():
    report = run(ExperimentConfig(command="cycles-mc", k=6, trials=20000, seed=1))
    assert report.results["within_3_sigma"]
    assert abs(report.results["empirical_mean"] - report.results["exact_mean"]) < 0.1


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


def test_worstcase_command_deterministic():
    a = run(ExperimentConfig(command="worstcase", n=8))
    b = run(ExperimentConfig(command="worstcase", n=8))
    assert strip_meta(a) == strip_meta(b)
    assert a.results["pedestrian_max_length"] == 7
    assert a.results["has_increasing_ham_path"] is False


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


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_nonpositive_threads(threads):
    assert main(["greedy-sim", "--n", "20", "--trials", "2", "--threads", threads]) == 2


@pytest.mark.parametrize("env", ["garbage", "0"])
def test_cli_rejects_invalid_threads_env(monkeypatch, env):
    monkeypatch.setenv("INCPATHS_THREADS", env)
    assert main(["greedy-sim", "--n", "20", "--trials", "2"]) == 2


def test_cli_rejects_csv_out_without_export(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["greedy-sim", "--n", "20", "--trials", "2", "--out", str(out)]) == 2
    assert "no CSV export" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "20", "--k", "5", "--trials", "3"],
        ["bounds", "--n", "20", "--model", "perm"],
        ["census", "--n", "4", "--k", "2"],
        ["cycles-mc", "--k", "5", "--n", "3"],
        ["greedy-sim", "--n", "20", "--trials", "2", "--precision", "float"],
    ],
)
def test_cli_rejects_stray_flags(argv, capsys):
    assert main(argv) == 2
    assert "takes no --" in capsys.readouterr().err


def test_moments_takes_trials():
    report = run(ExperimentConfig(command="moments", n=5, trials=3, seed=1))
    assert report.config["trials"] == 3
    assert "trials" not in run(ExperimentConfig(command="moments", n=4)).config


def test_cli_prints_json(capsys):
    assert main(["constant-c", "--k", "10"]) == 0
    printed = capsys.readouterr().out
    data = json.loads(printed)
    assert data["results"]["c_max"] == 10
