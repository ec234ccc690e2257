"""Seeded, parallel experiment runner and command-line interface.

Every command produces a JSON report echoing its configuration, the
pinned PRNG identifier, and the toolkit version; trial t draws its seed
from the master seed (0 <= seed < 2**64) through a SplitMix64 mix, so
results are bit-stable across runs and worker counts.  Wall-clock
duration, the worker count and the peak RSS live in a separate ``meta``
block, outside the reproducible part.

Each command names the layers it runs (``Command.layers``); ``run``
imports those, and no others, before its clock starts, so the duration is
the command's own work and a command that runs no ordering, float table
or sampler never imports numpy.

A trial draws its ordering in ``_trial`` and measures it; the trials of a
command become series, plus what its reducer derives, in
``_cmd_trial_series``.  ``run`` alone writes ``--out``: a .csv path gets
the command's ``Command.rows``, any other path the JSON report.

Commands
--------
greedy-sim    mean greedy-path fraction over random orderings
kgreedy-sim   mean k-look-ahead path fraction
walks-demo    pedestrian / refusal walk statistics
worstcase     deterministic round-robin adversarial instance
alpha-table   exact alpha/predicted-fraction/mean-ratio table (CSV export)
cycles-mc     restaurant-process sampler vs exact longest-cycle pmf
hamprob       increasing-Hamiltonian-path existence probability
moments       exact moments (or Monte Carlo mean count with --trials)
census        intersection-profile census (CSV export)
bounds        split-sum values S1, S2, S3 at a given n
constant-c    partial sums converging to e^3

Exit codes: 0 success, 2 invalid arguments, an unwritable --out or no
numpy, 3 capacity exceeded.  --threads (default 1) is the worker count,
clamped to the trial and CPU counts, and to 1 for a command that draws no
ordering per trial (``cycles-mc`` too), and reported in ``meta``.
--emit-raw (only with --trials) is echoed in ``config`` as ``"emit_raw": true``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import resource
import sys
import time
from collections import namedtuple
from functools import partial
from operator import itemgetter

from . import EXHAUST, FLOAT, PERMUTATION, RATIONAL, REAL, CapacityError, __version__

# The layer modules: ``_import_layers`` binds the ones a command runs, before
# its clock starts (and in each pool worker), and the code below reads them
# here, so a trial pays no import statement.
core = cyclestats = exact = kgreedy = numpy = secondmoment = walks = None

_M64 = (1 << 64) - 1


def _import_layers(layers: tuple) -> None:
    """Import each named layer, a module of this package or ``numpy``, and
    bind it as a global of this module."""
    for name in layers:
        module = name if name == "numpy" else f"{__package__}.{name}"
        globals()[name] = importlib.import_module(module)


def _prng_name() -> str:
    """numpy's PCG64 at the installed numpy version, the generator every
    ordering and sample draws from.  The version is the ``version = "..."``
    line of numpy/version.py, read without importing numpy; the package
    metadata, slower to load, is the fallback when that read fails."""
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ValueError("numpy is not installed (the report's prng names its version)")
    try:
        with open(os.path.join(spec.submodule_search_locations[0], "version.py")) as f:
            version = re.search(r'^version = "([^"]+)"$', f.read(), re.M).group(1)
    except (AttributeError, OSError, TypeError):
        from importlib.metadata import version as dist_version

        version = dist_version("numpy")
    return f"numpy-PCG64-{version}"


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of the largest child it has waited for
    (the pool workers), in MB; Linux reports ``ru_maxrss`` in KiB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


class ExperimentConfig(namedtuple(
        "ExperimentConfig", "command n k trials seed model mode precision out threads emit_raw",
        defaults=(None, None, None, 0, None, None, None, None, 1, False))):
    """One run's command and options, as the CLI parses them; None leaves a
    parameter at the command's default."""

    __slots__ = ()

    def resolved(self) -> dict:
        """Command defaults filled in; returns the config echo dict.

        A parameter the command does not take, a seed outside
        0 <= seed < 2**64, a .csv ``out`` for a command without a tabular
        export, or an ``out`` in a missing directory is rejected rather
        than echoed, ignored or run into."""
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        command = COMMANDS[self.command]
        params = dict(command.defaults)
        for name in ("n", "k", "trials", "model", "mode", "precision"):
            value = getattr(self, name)
            if value is None:
                continue
            if name not in params and name not in command.optional:
                raise ValueError(f"{self.command} takes no --{name}")
            params[name] = value
        if self.emit_raw:
            if "trials" not in params:
                raise ValueError(f"{self.command} takes no --emit-raw")
            params["emit_raw"] = True
        if self.out and self.out.endswith(".csv") and command.rows is None:
            raise ValueError(f"{self.command} has no CSV export: {self.out}")
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ValueError(f"--out directory does not exist: {self.out}")
        if not 0 <= self.seed <= _M64:
            # trial_seed reduces the seed mod 2**64: no two seeds may share a stream
            raise ValueError(f"need 0 <= seed < 2**64, got seed={self.seed}")
        params["command"] = self.command
        params["seed"] = self.seed
        if params.get("trials", 1) < 1:
            raise ValueError("need trials >= 1")
        return params


class Report(namedtuple("Report", "config results prng meta", defaults=(None, None))):
    """A run's reproducible config/results block, with the version and prng
    that fix it, and its ``meta`` block; ``to_dict`` reads the prng when
    none was given, and writes ``{}`` for a missing ``meta``."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "version": __version__,
            "prng": _prng_name() if self.prng is None else self.prng,
            "results": self.results,
            "meta": {} if self.meta is None else self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def trial_seed(master_seed: int, index: int) -> int:
    """SplitMix64 mix of (master seed, trial index); published so runs can
    be reproduced trial by trial."""
    x = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def summarize(values) -> tuple[float, float, tuple[float, float]]:
    """(mean, unbiased sample stddev, 95% normal CI for the mean)."""
    import numpy  # not bound by run: replays and tests call this outside it

    values = list(values)
    if not values:
        raise ValueError("cannot summarize an empty sequence")
    mean = float(numpy.mean(values))
    stddev = float(numpy.std(values, ddof=1)) if len(values) > 1 else 0.0
    half = 1.96 * stddev / math.sqrt(len(values))
    return mean, stddev, (mean - half, mean + half)


def _series(values, emit_raw: bool) -> dict:
    mean, stddev, ci = summarize(values)
    out = {
        "count": len(values),
        "mean": mean,
        "stddev": stddev,
        "ci95": [ci[0], ci[1]],
    }
    if emit_raw:
        out["values"] = list(values)
    return out


# ---------------------------------------------------------------------------
# trials (measures are module level so worker processes can import them)
# ---------------------------------------------------------------------------


def _walk_lengths(ordering, params=None):
    """(longest pedestrian walk, total pedestrian steps, longest refusal
    path), all in edges."""
    steps, lengths = walks.walk_lengths(ordering)
    return max(steps), sum(steps), max(lengths)


def _greedy_fraction(ordering, params):
    return (len(walks.greedy_path(ordering, 0)) - 1) / ordering.n


def _kgreedy_fraction(ordering, params):
    return (len(kgreedy.k_greedy_path(ordering, 0, params["k"], params["mode"])[0]) - 1) / ordering.n


def _has_ham_path(ordering, params):
    return 1 if exact.has_increasing_ham_path(ordering) else 0


def _ham_path_count(ordering, params):
    return float(exact.count_increasing_ham_paths(ordering))


def _trial(measure, params, seed):
    """Draw the ordering for one trial seed and measure it."""
    return measure(core.random_ordering(params["n"], seed, params["model"]), params)


def _cmd_trial_series(measure, keys, params, threads, reduce=None):
    """One series per key (a measure returns a tuple for several keys), plus
    the entries ``reduce(params, *columns)`` derives from them."""
    trials = params["trials"]
    seeds = [trial_seed(params["seed"], t) for t in range(trials)]
    task = partial(_trial, measure, params)
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor  # run imported it before its clock

        with ProcessPoolExecutor(max_workers=threads, initializer=_import_layers,
                                 initargs=(_layers(params),)) as pool:
            values = list(pool.map(task, seeds, chunksize=max(1, trials // (4 * threads))))
    else:
        values = list(map(task, seeds))
    columns = [values] if len(keys) == 1 else [list(col) for col in zip(*values)]
    results = {key: _series(col, params.get("emit_raw")) for key, col in zip(keys, columns)}
    if reduce is not None:
        results.update(reduce(params, *columns))
    return results


def _walk_guarantees(params, ped_max, ped_total, ref_max):
    n = params["n"]
    return {
        "walk_guarantee": n - 1,
        "path_guarantee": math.ceil(math.sqrt(n - 1)),
        "all_walk_guarantees_met": bool(min(ped_max) >= n - 1),
        "all_step_totals_exact": all(t == n * (n - 1) for t in ped_total),
        "all_path_guarantees_met": bool(min(ref_max) >= math.ceil(math.sqrt(n - 1))),
    }


def _expected_mean(params, counts):
    return {"expected_mean": params["n"]}


# ---------------------------------------------------------------------------
# other command implementations
# ---------------------------------------------------------------------------


def _cmd_alpha_table(params, threads):
    rows = cyclestats.alpha_table(params["k"], params["precision"])
    return {"rows": rows, "k_max": params["k"], "last_row": rows[-1]}


def _alpha_table_layers(params):
    return ("cyclestats", "numpy") if params["precision"] == FLOAT else ("cyclestats",)


def _cmd_cycles_mc(params, threads):
    k, trials = params["k"], params["trials"]
    precision = RATIONAL if k <= cyclestats.RATIONAL_CAP else FLOAT
    # first, so that a k past FLOAT_CAP is refused before any sampling
    exact_pmf = numpy.array(cyclestats.longest_cycle_distribution(k, precision).pmf, dtype=float)
    empirical = cyclestats.sample_longest_cycle(k, trials, params["seed"])
    p = exact_pmf[1:]
    deviation = numpy.abs(empirical[1:] - p)
    sigma = numpy.sqrt(p * (1 - p) / trials)
    results = {
        "k": k,
        "max_abs_deviation": float(deviation.max()),
        "within_3_sigma": bool(numpy.all(deviation <= 3 * sigma + 1e-15)),
        "empirical_mean": float(numpy.dot(numpy.arange(k + 1), empirical)),
        "exact_mean": float(numpy.dot(numpy.arange(k + 1), exact_pmf)),
    }
    if params.get("emit_raw"):
        results["empirical_pmf"] = [float(x) for x in empirical]
    return results


def _cmd_moments(params, threads):
    if "trials" in params:
        return _cmd_trial_series(_ham_path_count, ("count",), params, threads,
                                 reduce=_expected_mean)
    return secondmoment.moment_report_to_dict(secondmoment.exact_moments(params["n"]))


def _moments_layers(params):
    return ("core", "exact") if "trials" in params else ("secondmoment",)


def _cmd_census(params, threads):
    n = params["n"]
    report = secondmoment.exact_moments(n)
    census = report.census
    disjoint = census.get(secondmoment.ProfileSignature(0, 0, 0))
    results = {
        "n": n,
        "classes": secondmoment.census_classes(census),
        "total_pairs": sum(cls.pair_count for cls in census.values()),
        # int / int true division is correctly rounded, as float(Fraction) is
        "recombined_second_moment": report.second_numerator / math.factorial(2 * n - 2),
    }
    if disjoint is not None:
        # measured fraction of edge-disjoint pairs against its asymptotic
        # value exp(-2); reported, no threshold implied at desk scale
        results["disjoint_pair_fraction"] = disjoint.pair_count / math.factorial(n) ** 2
        results["disjoint_pair_fraction_limit"] = math.exp(-2)
    return results


def _cmd_bounds(params, threads):
    n = params["n"]
    s1, s2, s3 = secondmoment.s_sum_bounds(n)
    return {
        "n": n,
        "s1": s1,
        "s2_bound": s2,
        "s3_bound": s3,
        "s1_over_e_n2": s1 / (math.e * n * n),
        "s3_over_n2": s3 / (n * n),
    }


def _cmd_constant_c(params, threads):
    c_max = params["k"]
    total, denominator = secondmoment.constant_C_sum(c_max)
    partial_sum_float = total / denominator
    e_cubed = math.exp(3)
    return {
        "c_max": c_max,
        "partial_sum": secondmoment.fraction_dict(total, denominator),
        "partial_sum_float": partial_sum_float,
        "e_cubed": e_cubed,
        "abs_error": abs(partial_sum_float - e_cubed),
    }


def _cmd_worstcase(params, threads):
    n = params["n"]
    ordering = core.matching_ordering(n)
    ped_max, ped_total, ref_max = _walk_lengths(ordering)
    results = {
        "n": n,
        "pedestrian_max_length": ped_max,
        "pedestrian_total_steps": ped_total,
        "refusal_max_length": ref_max,
    }
    if n <= exact.DEFAULT_CAP:
        longest = exact.longest_increasing_path_len(ordering)  # in edges
        results["longest_increasing_path"] = longest
        results["has_increasing_ham_path"] = longest == n - 1
    return results


class Command(namedtuple("Command", "defaults impl layers optional rows", defaults=((), None))):
    """One CLI command: its default parameters, the function
    ``impl(params, threads)`` that returns its results block, the
    layers it runs (module names for ``_import_layers``, or a function of
    the resolved parameters that returns them), the parameters it also
    takes without a default, and, for a command with a tabular export, the
    function ``rows(results)`` that maps its results block to the CSV rows
    an ``out`` ending in .csv receives."""

    __slots__ = ()


COMMANDS = {
    "greedy-sim": Command(dict(n=2000, trials=200, model=REAL),
                          partial(_cmd_trial_series, _greedy_fraction, ("fraction",)),
                          layers=("core", "walks")),
    "kgreedy-sim": Command(dict(n=2000, k=10, trials=100, model=REAL, mode=EXHAUST),
                           partial(_cmd_trial_series, _kgreedy_fraction, ("fraction",)),
                           layers=("core", "kgreedy")),
    "walks-demo": Command(dict(n=30, trials=100, model=PERMUTATION),
                          partial(_cmd_trial_series, _walk_lengths,
                                  ("pedestrian_max_length", "pedestrian_total_steps",
                                   "refusal_max_length"),
                                  reduce=_walk_guarantees),
                          layers=("core", "walks")),
    "alpha-table": Command(dict(k=100, precision=RATIONAL), _cmd_alpha_table,
                           layers=_alpha_table_layers, rows=itemgetter("rows")),
    "cycles-mc": Command(dict(k=20, trials=100_000), _cmd_cycles_mc,
                         layers=("cyclestats", "numpy")),
    "hamprob": Command(dict(n=12, trials=2000, model=PERMUTATION),
                       partial(_cmd_trial_series, _has_ham_path, ("existence",)),
                       layers=("core", "exact")),
    "moments": Command(dict(n=4, model=PERMUTATION), _cmd_moments, layers=_moments_layers,
                       optional=("trials",)),
    "census": Command(dict(n=5), _cmd_census, layers=("secondmoment",),
                     rows=lambda results: secondmoment.census_rows(results["classes"])),
    "bounds": Command(dict(n=100), _cmd_bounds, layers=("secondmoment",)),
    "constant-c": Command(dict(k=80), _cmd_constant_c, layers=("secondmoment",)),
    "worstcase": Command(dict(n=10), _cmd_worstcase, layers=("core", "walks", "exact")),
}


def _layers(params: dict) -> tuple:
    """The layers the command ``params`` names runs with these parameters."""
    layers = COMMANDS[params["command"]].layers
    return layers(params) if callable(layers) else layers


def run(config: ExperimentConfig) -> Report:
    """Execute one experiment; the report's config/results block is
    bit-stable for a fixed (config, version) regardless of worker count."""
    params = config.resolved()
    if config.threads < 1:
        raise ValueError(f"need threads >= 1, got {config.threads}")
    prng = _prng_name()
    layers = _layers(params)
    # a fork pool starts all its workers at once: no more than trials or CPUs,
    # and none for a command that draws no ordering (``core``) per trial
    trials = params.get("trials", 1) if "core" in layers else 1
    threads = min(config.threads, trials, os.cpu_count() or 1)
    command = COMMANDS[config.command]
    _import_layers(layers)
    if threads > 1:
        import concurrent.futures  # noqa: F401  (the trial pool's, about 30 ms)
    start = time.time()
    results = command.impl(params, threads)
    meta = {"duration_seconds": time.time() - start, "threads": threads,
            "peak_rss_mb": _peak_rss_mb()}
    report = Report(params, results, prng, meta)
    if config.out:
        try:
            with open(config.out, "w", newline="") as fh:
                if config.out.endswith(".csv"):
                    import csv

                    rows = command.rows(results)
                    writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                    writer.writeheader()
                    writer.writerows(rows)
                else:
                    fh.write(report.to_json())
                    fh.write("\n")
        except OSError as exc:  # a directory, say
            raise ValueError(f"cannot write --out {config.out}: {exc.strerror}") from exc
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incpaths",
        description="Experiments on increasing paths in randomly edge-ordered complete graphs.",
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help=f"one of {', '.join(COMMANDS)}")
    parser.add_argument("--n", type=int)
    parser.add_argument("--k", type=int, help="look-ahead size / table size / partial-sum cutoff")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--model", choices=["perm", "real"])
    parser.add_argument("--mode", choices=["strict", "exhaust"])
    parser.add_argument("--precision", choices=["rational", "float"])
    parser.add_argument("--out", help="report path; .csv selects the tabular export where available")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--emit-raw", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.model = {"perm": PERMUTATION, "real": REAL, None: None}[args.model]
    config = ExperimentConfig(**vars(args))
    try:
        report = run(config)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json())
    return 0
