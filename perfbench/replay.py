"""Traced replay of the benchmark's commands through incpaths' public functions.

The replay calls the same layer functions, with the same trial seeds, that
the CLI's trial kernels call, and records a span around each call: name,
start, end, parent span and trial id.  Spans stay in memory until the
caller writes them out.  No tracing lives inside ``src/``.

Simulation commands are replayed in the calling process.  Exact-table
commands memoize tables module-wide, so each is replayed in a fresh
interpreter (``python3 perfbench/replay.py '<config JSON>'``, with
``src`` on ``PYTHONPATH``), which prints one JSON line with its spans and
the recomputed values, as CLI users start cold on every invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


class Tracer:
    """In-memory span recorder; ``spans`` holds one dict per span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, trial=None) -> "_Span":
        return _Span(self, name, trial)

    def extend(self, spans: list[dict], trial) -> None:
        """Append spans recorded by a child process under one trial id,
        re-indexing their parents."""
        offset = len(self.spans)
        for s in spans:
            parent = s["parent"]
            self.spans.append(
                dict(s, parent=None if parent is None else parent + offset, trial=trial)
            )


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, trial):
        self.tracer = tracer
        open_ = tracer._open
        self.record = {
            "name": name,
            "start": 0,
            "end": 0,
            "parent": open_[-1] if open_ else None,
            "trial": trial,
        }

    def __enter__(self):
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record["start"] = time.perf_counter_ns()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter_ns()
        self.tracer._open.pop()
        return False


# ---------------------------------------------------------------------------
# simulation commands: one function per CLI trial kernel
# ---------------------------------------------------------------------------


def _trial_greedy(tr, params, seed, trial):
    from incpaths.core import random_ordering
    from incpaths.walks import greedy_path

    with tr.span("core.generate", trial):
        ordering = random_ordering(params["n"], seed, params["model"])
    with tr.span("core.matrix", trial):
        ordering.matrix
    with tr.span("walks.greedy", trial):
        path = greedy_path(ordering, 0)
    return (len(path) - 1) / params["n"]


def _trial_kgreedy(tr, params, seed, trial):
    from incpaths.core import random_ordering
    from incpaths.kgreedy import k_greedy_path

    with tr.span("core.generate", trial):
        ordering = random_ordering(params["n"], seed, params["model"])
    with tr.span("core.sort", trial):
        ordering.edges_by_label
    with tr.span("kgreedy.run", trial) as span:
        path, trace = k_greedy_path(ordering, 0, params["k"], params["mode"])
    span["count"] = len(trace)  # full-tree extensions
    return (len(path) - 1) / params["n"]


def _trial_walks(tr, params, seed, trial):
    from incpaths.core import random_ordering
    from incpaths.walks import pedestrian_walks, refusal_paths

    with tr.span("core.generate", trial):
        ordering = random_ordering(params["n"], seed, params["model"])
    with tr.span("core.sort", trial):
        ordering.edges_by_label
    with tr.span("walks.pedestrian", trial):
        walks = pedestrian_walks(ordering)
    with tr.span("walks.refusal", trial):
        refusals = refusal_paths(ordering)
    return (
        max(len(w) - 1 for w in walks),
        sum(len(w) - 1 for w in walks),
        max(len(p) - 1 for p in refusals),
    )


def _trial_hamprob(tr, params, seed, trial):
    from incpaths.core import random_ordering
    from incpaths.exact import has_increasing_ham_path

    with tr.span("core.generate", trial):
        ordering = random_ordering(params["n"], seed, params["model"])
    with tr.span("core.sort", trial):
        ordering.edges_by_label
    with tr.span("exact.exists", trial):
        hit = has_increasing_ham_path(ordering)
    return 1 if hit else 0


def _trial_count(tr, params, seed, trial):
    from incpaths.core import random_ordering
    from incpaths.exact import count_increasing_ham_paths

    with tr.span("core.generate", trial):
        ordering = random_ordering(params["n"], seed, params["model"])
    with tr.span("core.sort", trial):
        ordering.edges_by_label
    with tr.span("exact.count", trial):
        count = count_increasing_ham_paths(ordering)
    return float(count)


# command -> (trial function, names of the report's series, one per value)
SIM_REPLAYS = {
    "greedy-sim": (_trial_greedy, ("fraction",)),
    "kgreedy-sim": (_trial_kgreedy, ("fraction",)),
    "walks-demo": (
        _trial_walks,
        ("pedestrian_max_length", "pedestrian_total_steps", "refusal_max_length"),
    ),
    "hamprob": (_trial_hamprob, ("existence",)),
    "moments": (_trial_count, ("count",)),
}


def _series(values) -> dict:
    from incpaths.harness import summarize

    mean, stddev, ci = summarize(values)
    return {"count": len(values), "mean": mean, "stddev": stddev, "ci95": [ci[0], ci[1]]}


def replay_trials(tr: Tracer, label: str, params: dict) -> dict:
    """Replay every trial of a simulation command under spans.

    ``params`` is the report's resolved config echo.  Returns one summary
    series per value the trial kernel yields, as the report lays them out.
    """
    from incpaths.harness import trial_seed

    trial_fn, keys = SIM_REPLAYS[params["command"]]
    rows = []
    for t in range(params["trials"]):
        trial = f"{label}:{t}"
        with tr.span("trial", trial):
            rows.append(trial_fn(tr, params, trial_seed(params["seed"], t), trial))
    if len(keys) == 1:
        return {keys[0]: _series(rows)}
    return {key: _series(list(col)) for key, col in zip(keys, zip(*rows))}


def experiment_config(argv: list[str]):
    """The ExperimentConfig the CLI builds from these arguments."""
    from incpaths.core import PERMUTATION, REAL
    from incpaths.harness import ExperimentConfig, build_parser

    args = build_parser().parse_args(argv)
    return ExperimentConfig(
        command=args.command, n=args.n, k=args.k, trials=args.trials, seed=args.seed,
        model={"perm": PERMUTATION, "real": REAL, None: None}[args.model],
        mode=args.mode, precision=args.precision, threads=args.threads,
    )


def _status_bytes(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"no {field} in /proc/self/status")


def _peak_rise(call) -> int:
    """Rise of this process' high-water RSS (VmHWM) over ``call``, in bytes.

    Meant for a fresh interpreter, where nothing before the call peaked
    higher.  VmHWM starts afresh at exec, unlike getrusage's maxrss, which
    keeps the forking parent's peak.  tracemalloc would count allocations
    exactly, but it slows the n=2000 k-greedy scan (millions of small ints)
    and the float tables tens of times over.
    """
    base = _status_bytes("VmRSS")
    call()
    return max(0, _status_bytes("VmHWM") - base)


def _kgreedy_peak(params: dict) -> int:
    """Peak rise over one k_greedy_path call on trial 0's ordering."""
    from incpaths.core import random_ordering
    from incpaths.harness import trial_seed
    from incpaths.kgreedy import k_greedy_path

    ordering = random_ordering(params["n"], trial_seed(params["seed"], 0), params["model"])
    ordering.edges_by_label
    return _peak_rise(lambda: k_greedy_path(ordering, 0, params["k"], params["mode"]))


def report_json_ms(config: dict, results: dict) -> float:
    """Time to serialize a report with the harness' own writer."""
    from incpaths.harness import Report

    start = time.perf_counter()
    Report(config=config, results=results).to_json()
    return (time.perf_counter() - start) * 1e3


# ---------------------------------------------------------------------------
# exact-table commands, each replayed in a fresh interpreter
# ---------------------------------------------------------------------------


def _exact_alpha_table(tr, params):
    from incpaths import cyclestats

    with tr.span("cyclestats.alpha_table"):
        rows = cyclestats.alpha_table(params["k"], params["precision"])
    return {"rows": rows}


def _exact_bounds(tr, params):
    from incpaths import secondmoment

    with tr.span("secondmoment.bounds"):
        s1, s2, s3 = secondmoment.s_sum_bounds(params["n"])
    return {"s1": s1, "s2_bound": s2, "s3_bound": s3}


def _exact_cycles_mc(tr, params):
    import numpy as np

    from incpaths import cyclestats

    k = params["k"]
    with tr.span("cyclestats.sample"):
        empirical = cyclestats.sample_longest_cycle(k, params["trials"], params["seed"])
    with tr.span("cyclestats.distribution"):
        table = cyclestats.longest_cycle_distribution(k, cyclestats.RATIONAL)
    exact = [float(p) for p in table.pmf]
    return {
        "empirical_mean": float(np.dot(np.arange(k + 1), empirical)),
        "exact_mean": float(np.dot(np.arange(k + 1), exact)),
    }


def _exact_moments(tr, params):
    from incpaths import secondmoment

    with tr.span("secondmoment.moments"):
        report = secondmoment.exact_moments(params["n"])
    return secondmoment.moment_report_to_dict(report)


def _exact_census(tr, params):
    from incpaths import secondmoment

    with tr.span("secondmoment.census"):
        census = secondmoment.profile_census(params["n"])
    return {
        "classes": [
            {"c": sig.c, "k": sig.k, "l": sig.ell,
             "pair_count": cls.pair_count, "mass": str(cls.mass)}
            for sig, cls in sorted(census.items())
        ],
        "total_pairs": sum(cls.pair_count for cls in census.values()),
    }


def _exact_constant_c(tr, params):
    from incpaths import secondmoment

    with tr.span("secondmoment.constant_c"):
        partial = secondmoment.constant_C_partial(params["k"])
    return {
        "partial_sum": {
            "numerator": str(partial.numerator),
            "denominator": str(partial.denominator),
        }
    }


# command -> replay; each returns a subset of the report's results block
EXACT_REPLAYS = {
    "alpha-table": _exact_alpha_table,
    "bounds": _exact_bounds,
    "cycles-mc": _exact_cycles_mc,
    "moments": _exact_moments,
    "census": _exact_census,
    "constant-c": _exact_constant_c,
}


def main(argv=None) -> int:
    """Child entry: replay one command from its resolved config."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="the command's resolved config, as JSON")
    parser.add_argument("--peak", action="store_true",
                        help="report the RSS rise over the call instead of spans")
    args = parser.parse_args(argv)
    params = json.loads(args.config)
    import incpaths.harness  # noqa: F401  (imports every layer before measuring)

    tr = Tracer()
    if args.peak:
        if params["command"] == "kgreedy-sim":
            peak = _kgreedy_peak(params)
        else:
            peak = _peak_rise(lambda: EXACT_REPLAYS[params["command"]](tr, params))
        print(json.dumps({"peak_bytes": peak}))
        return 0
    results = EXACT_REPLAYS[params["command"]](tr, params)
    print(json.dumps({"spans": tr.spans, "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
