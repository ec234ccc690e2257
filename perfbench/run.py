#!/usr/bin/env python3
"""Benchmark of the incpaths command-line interface.

    python3 perfbench/run.py --workload sim-large --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is built or installed.  The workload seed is passed to
every command as ``--seed``; trial seeds follow from it through
``harness.trial_seed``.

Untraced (``--trace 0``): a closed loop with one caller.  Each command of
the workload runs in its own fresh ``python -m incpaths ... --threads 1``
process, one at a time, with ``INCPATHS_THREADS`` unset and nothing warmed,
so every invocation pays interpreter start, the numpy import and cold
tables as CLI users do.  The workload's command list is repeated until
``--seconds`` have passed; timings are medians over the repeats.  Every
report is checked.  The gated metrics (last line) are the same on every
workload; the per-command ones (``greedy.trials_per_s``, ``bounds_s``, ...)
are printed above it.  ``--workload all`` runs the three workloads in turn.

Traced (``--trace 1``): a replay, through the modules' public functions
with spans (``replay.py``), of the commands of every workload, whichever
``--workload`` is named, so each run reports every layer.  Simulation
commands are replayed in this process and then run untraced through
``harness.run``; exact commands run untraced through the CLI and are then
replayed in a fresh interpreter.  The replayed values must equal the
untraced reports' results exactly.

Both modes print human-readable lines, then as the last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
traced run writes its spans and summaries to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple
    trials: int | None = None  # trial-series commands only
    small: bool = False  # summed into small_exact_s

    def argv(self, seed: int) -> list[str]:
        return [*self.args, "--seed", str(seed), "--threads", "1"]


def _sim(label, line):
    args = tuple(line.split())
    return Command(label, args, trials=int(args[args.index("--trials") + 1]))


def _exact(label, line, small=False):
    return Command(label, tuple(line.split()), small=small)


# Why these workloads and sizes:
# - sim-large: at n=2000 nearly all the time is in core (generate, sorts,
#   matrix) and the k-greedy O(m) scan; 16 greedy and 4 k-greedy trials keep
#   the means inside the criterion 1 and 2 windows at any seed (over 4 sd).
# - sim-small: thousands of tiny permutation-model orderings, where the
#   subset DPs, the walk scans, core's small-n path and per-trial harness
#   dispatch take the time; a core change that helps n=2000 real shows here
#   if it costs small orderings.
# - exact-tables: no orderings, only cyclestats and secondmoment.  The float
#   alpha-table is cubic in k, because _float_tables rebuilds the full tables
#   for every larger k alpha_table asks for: 0.9 s at k=200, 4.1 s at 400,
#   12.8 s at 600 and 240 s at 2000 were measured, so it runs at k=400.  The
#   four short commands are timed as one sum; alone each is too short to
#   hold steady.
# The per-command *.trials_per_s figures are throughputs (higher is better);
# every other metric is lower-is-better except exact.states_per_s.
WORKLOADS = {
    "sim-large": (
        _sim("greedy", "greedy-sim --n 2000 --model real --trials 16"),
        _sim("kgreedy", "kgreedy-sim --n 2000 --k 10 --mode exhaust --model real --trials 4"),
    ),
    "sim-small": (
        _sim("moments", "moments --n 10 --model perm --trials 1000"),
        _sim("hamprob", "hamprob --n 12 --model perm --trials 4000"),
        _sim("walks", "walks-demo --n 400 --model perm --trials 12"),
    ),
    "exact-tables": (
        _exact("alpha_rational", "alpha-table --k 200 --precision rational"),
        _exact("alpha_float", "alpha-table --k 400 --precision float"),
        _exact("bounds", "bounds --n 400"),
        _exact("cycles_mc", "cycles-mc --k 20 --trials 100000", small=True),
        _exact("moments_exact", "moments --n 7", small=True),
        _exact("census", "census --n 7", small=True),
        _exact("constant_c", "constant-c --k 120", small=True),
    ),
}

# Gated end-to-end metrics and their units; all lower-is-better.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cmd_geomean_s": "s"}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def summary(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (absent below eleven samples), and the sample count."""
    xs = sorted(values)
    out = {"median": statistics.median(xs), "n": len(xs)}
    if len(xs) > 10:
        out["tail_pct"] = round(100 * (len(xs) - 10) / len(xs), 1)
        out["tail"] = xs[len(xs) - 11]
    return out


def describe(s: dict, unit: str) -> str:
    tail = f", p{s['tail_pct']:g} {s['tail']:.6g}" if "tail" in s else ""
    return f"median {s['median']:.6g} {unit}{tail}, n={s['n']}"


# ---------------------------------------------------------------------------
# running one CLI command
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    exit_code: int
    report: dict | None
    stderr: str

    @property
    def setup_s(self) -> float:
        return self.wall_s - self.report["meta"]["duration_seconds"]


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("INCPATHS_THREADS", None)
    return env


def run_child(argv: list[str]) -> Invocation:
    """Run one child to completion.

    Peak RSS comes from this child alone (``os.wait4``), not the running
    maximum over all earlier children that RUSAGE_CHILDREN gives.  Linux
    keeps the forking process' peak in a child's maxrss across exec, which
    is harmless while this process stays smaller than its children.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if proc.returncode == 0:
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            pass
    return Invocation(wall, usage.ru_maxrss / 1024, proc.returncode, report,
                      err.decode(errors="replace"))


def run_cli(cmd: Command, seed: int) -> Invocation:
    return run_child([sys.executable, "-m", "incpaths", *cmd.argv(seed)])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

GREEDY_WINDOW = (0.612, 0.652)  # acceptance criterion 1
# 1 - exp(-1/alpha_10) with alpha_10 exact; criterion 2 allows +-0.03
KGREEDY_PREDICTED = 0.8049414375032503
KGREEDY_TOLERANCE = 0.03


def digest(report: dict) -> str:
    block = {"config": report["config"], "results": report["results"]}
    return hashlib.sha256(json.dumps(block, sort_keys=True).encode()).hexdigest()


def _check_greedy(c, r):
    mean = r["fraction"]["mean"]
    lo, hi = GREEDY_WINDOW
    return [] if lo <= mean <= hi else [f"greedy mean {mean} outside [{lo}, {hi}]"]


def _check_kgreedy(c, r):
    mean = r["fraction"]["mean"]
    if abs(mean - KGREEDY_PREDICTED) <= KGREEDY_TOLERANCE:
        return []
    return [f"k-greedy mean {mean} not within {KGREEDY_TOLERANCE} of {KGREEDY_PREDICTED}"]


def _check_walks(c, r):
    keys = ("all_walk_guarantees_met", "all_step_totals_exact", "all_path_guarantees_met")
    return [f"walks-demo {k} is false" for k in keys if r[k] is not True]


def _check_cycles_mc(c, r):
    # within_3_sigma is a 3-sigma test over k bins and fails by chance at
    # about 3 % of seeds, so any seed gets 5-sigma bounds that hold for
    # every bin and every pmf: a bin's sd is at most sqrt(1/4 / trials)
    # and L_k's sd at most (k-1)/2.  The digest pins within_3_sigma itself.
    k, trials = c["k"], c["trials"]
    problems = []
    if r["max_abs_deviation"] > 5 * math.sqrt(0.25 / trials):
        problems.append(f"cycles-mc max_abs_deviation {r['max_abs_deviation']}")
    if abs(r["empirical_mean"] - r["exact_mean"]) > 5 * (k - 1) / 2 / math.sqrt(trials):
        problems.append("cycles-mc empirical mean too far from the exact mean")
    return problems


def _check_moments_exact(c, r):
    first = r["first_moment"]  # E[H_n] = n!/(n-1)! = n exactly
    if first == {"numerator": str(c["n"]), "denominator": "1"}:
        return []
    return [f"moments first moment {first} != {c['n']}"]


def _check_census(c, r):
    pairs = math.factorial(c["n"]) ** 2
    return [] if r["total_pairs"] == pairs else [f"census total_pairs != {pairs}"]


def _check_constant_c(c, r):
    return [] if r["abs_error"] <= 1e-12 else [f"constant-c abs_error {r['abs_error']}"]


def _check_alpha(c, r):
    if len(r["rows"]) == r["k_max"] and r["rows"][-1] == r["last_row"]:
        return []
    return ["alpha-table rows do not match k_max / last_row"]


CHECKS = {
    "greedy": _check_greedy,
    "kgreedy": _check_kgreedy,
    "walks": _check_walks,
    "cycles_mc": _check_cycles_mc,
    "moments_exact": _check_moments_exact,
    "census": _check_census,
    "constant_c": _check_constant_c,
    "alpha_rational": _check_alpha,
    "alpha_float": _check_alpha,
}


def check_invocation(cmd: Command, seed: int, inv: Invocation, reference: dict) -> list[str]:
    if inv.report is None:
        return [f"{cmd.label}: exit code {inv.exit_code}: {inv.stderr.strip()[-300:]}"]
    return check_report(cmd, seed, inv.report, reference)


def check_report(cmd: Command, seed: int, report: dict, reference: dict) -> list[str]:
    problems = []
    if report["config"]["seed"] != seed or report["config"]["command"] != cmd.args[0]:
        problems.append("config echo does not match the request")
    if cmd.trials is not None:
        counts = {s["count"] for s in report["results"].values() if isinstance(s, dict)}
        if counts != {cmd.trials}:
            problems.append(f"series counts {counts} != trials {cmd.trials}")
    if seed == DEFAULT_SEED and digest(report) != reference.get(cmd.label):
        problems.append("config/results digest differs from the reference")
    problems += CHECKS.get(cmd.label, lambda c, r: [])(report["config"], report["results"])
    return [f"{cmd.label}: {p}" for p in problems]


def check_pass(results: dict) -> list[str]:
    """Cross-command checks: the float alpha table against the exact one."""
    if "alpha_rational" not in results or "alpha_float" not in results:
        return []
    exact = results["alpha_rational"]["rows"]
    worst = max(
        abs(a[key] - b[key])
        for a, b in zip(exact, results["alpha_float"]["rows"])
        for key in ("alpha", "predicted_fraction", "mean_ratio")
    )
    return [] if worst <= 1e-12 else [f"alpha_float: differs from exact rows by {worst}"]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["digests"]


# ---------------------------------------------------------------------------
# untraced end-to-end loop
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, reference: dict):
    """Repeat the workload's commands until ``seconds`` have passed.

    Returns (attempted, failed, problems, passes); a pass maps label ->
    Invocation.  A command fails on a nonzero exit or any failed check.
    """
    attempted, failed, problems, passes = 0, 0, [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        record, failed_labels = {}, set()
        for cmd in WORKLOADS[name]:
            attempted += 1
            inv = run_cli(cmd, seed)
            found = check_invocation(cmd, seed, inv, reference)
            if found:
                failed_labels.add(cmd.label)
            problems += found
            record[cmd.label] = inv
        found = check_pass({k: v.report["results"] for k, v in record.items() if v.report})
        if found:
            failed_labels.add("alpha_float")
        problems += found
        failed += len(failed_labels)
        passes.append(record)
        now = time.perf_counter()
        # stop before a pass as long as the last one would overrun
        if now - start + (now - pass_start) > seconds:
            return attempted, failed, problems, passes


def e2e_metrics(name: str, passes: list[dict]) -> tuple[dict, dict]:
    """(gated metrics, named per-command metrics), each name -> (summary, unit),
    over the passes in which every command succeeded."""
    commands = WORKLOADS[name]
    done = [p for p in passes if all(inv.report for inv in p.values())]
    if not done:
        return {}, {}
    gated = {
        "wall_s": summary([sum(inv.wall_s for inv in p.values()) for p in done]),
        "setup_s": summary([inv.setup_s for p in done for inv in p.values()]),
        "peak_rss_mb": summary([max(inv.rss_mb for inv in p.values()) for p in done]),
        "cmd_geomean_s": summary([
            math.exp(statistics.fmean(math.log(inv.wall_s) for inv in p.values()))
            for p in done]),
    }
    named = {}
    for cmd in commands:
        walls = [p[cmd.label].wall_s for p in done]
        if cmd.trials is not None:
            named[f"{cmd.label}.trials_per_s"] = (summary([cmd.trials / w for w in walls]), "1/s")
        elif not cmd.small:
            named[f"{cmd.label}_s"] = (summary(walls), "s")
    small = [cmd.label for cmd in commands if cmd.small]
    if small:
        named["small_exact_s"] = (summary([sum(p[c].wall_s for c in small) for p in done]), "s")
    return {k: (v, E2E_UNITS[k]) for k, v in gated.items()}, named


def run_untraced(workloads: list[str], seed: int, seconds: float):
    reference = load_reference()
    attempted, failed, problems, metrics = 0, 0, [], {}
    for name in workloads:
        n, n_failed, found, passes = run_workload(name, seed, seconds, reference)
        attempted += n
        failed += n_failed
        problems += found
        gated, named = e2e_metrics(name, passes)
        prefix = f"{name}/" if len(workloads) > 1 else ""
        print(f"== {name}: {len(passes)} passes, seed {seed}")
        for key, (s, unit) in {**gated, **named}.items():
            print(f"  {key:<24} {describe(s, unit)}")
        print(f"  {'failed_frac':<24} {n_failed / n:.4g} ({n_failed} of {n} commands)")
        for key, (s, unit) in gated.items():
            metrics[prefix + key] = {"value": s["median"], "unit": unit}
    return attempted, failed, problems, metrics


# ---------------------------------------------------------------------------
# traced replay
# ---------------------------------------------------------------------------

_BYTES = 8  # int64 permutation labels / indices, float64 real labels and matrix


def _tag(config: dict) -> str:
    model = "real" if config["model"] == "real" else "perm"
    return f"{model}_n{config['n']}"


def computed_counts(configs: dict) -> dict:
    """Counts derived from sizes, not measured; each with its base."""
    out = {}
    for cfg in configs.values():
        if cfg.get("model") is None or "trials" not in cfg:
            continue
        n, tag = cfg["n"], _tag(cfg)
        m = n * (n - 1) // 2
        parts = {"labels": _BYTES * m, "sort_permutation": _BYTES * m,
                 "endpoint_arrays": 2 * _BYTES * m, "matrix": _BYTES * n * n}
        out[f"computed.bytes_per_ordering.{tag}"] = (
            sum(parts.values()), "bytes", f"{parts} at m={m}")
        out[f"computed.edges_per_run.n{n}"] = (m, "count", "m = n(n-1)/2")
        if cfg["command"] in ("moments", "hamprob"):
            out[f"computed.dp_states_per_call.n{n}"] = (
                n * 2**n, "count", "n * 2^n subset states (S, v)")
    return out


def _peak_mb(config: dict) -> float:
    """RSS rise over the command's main call, in a fresh interpreter."""
    child = run_child([sys.executable, str(HERE / "replay.py"), json.dumps(config), "--peak"])
    if child.report is None:
        raise RuntimeError(f"peak replay failed: {child.stderr.strip()[-300:]}")
    return child.report["peak_bytes"] / 2**20


def _traced_sim(replay, tracer, cmd: Command, seed: int):
    """Traced replay, then the untraced harness.run, in this process.

    The replay goes first, so caches both share are cold only for the
    replay's first trial.  Returns (report, replayed values, replay wall).
    """
    from incpaths.harness import run

    config = replay.experiment_config(cmd.argv(seed))
    start = time.perf_counter()
    replayed = replay.replay_trials(tracer, cmd.label, config.resolved())
    wall = time.perf_counter() - start
    return run(config).to_dict(), replayed, wall


def _traced_exact(tracer, cmd: Command, seed: int):
    """Untraced CLI run, then a traced replay in a fresh interpreter."""
    inv = run_cli(cmd, seed)
    if inv.report is None:
        raise RuntimeError(f"exit code {inv.exit_code}: {inv.stderr.strip()[-300:]}")
    child = run_child([sys.executable, str(HERE / "replay.py"), json.dumps(inv.report["config"])])
    if child.report is None:
        raise RuntimeError(f"replay failed: {child.stderr.strip()[-300:]}")
    first = len(tracer.spans)
    tracer.extend(child.report["spans"], cmd.label)
    wall = sum((s["end"] - s["start"]) / 1e9 for s in tracer.spans[first:]
               if s["parent"] is None)
    return inv.report, child.report["results"], wall


def run_traced(seed: int):
    sys.path.insert(0, str(SRC))
    import replay

    reference = load_reference()
    tracer = replay.Tracer()
    attempted, failed, problems = 0, 0, []
    configs, durations, replay_walls, report_ms, extra = {}, {}, {}, [], {}
    for cmd in (c for commands in WORKLOADS.values() for c in commands):
        attempted += 1
        try:
            if cmd.trials is not None:
                report, replayed, wall = _traced_sim(replay, tracer, cmd, seed)
            else:
                report, replayed, wall = _traced_exact(tracer, cmd, seed)
            if cmd.label == "kgreedy":
                extra["kgreedy.peak_mb"] = _peak_mb(report["config"])
            elif cmd.label == "alpha_float":
                extra["cyclestats.float_peak_mb"] = _peak_mb(report["config"])
        except RuntimeError as exc:
            found = [f"{cmd.label}: {exc}"]
        else:
            config, results = report["config"], report["results"]
            configs[cmd.label] = config
            durations[cmd.label] = report["meta"]["duration_seconds"]
            replay_walls[cmd.label] = wall
            report_ms.append(replay.report_json_ms(config, results))
            found = check_report(cmd, seed, report, reference)
            mismatched = [k for k, v in replayed.items() if results.get(k) != v]
            if mismatched:
                found.append(f"{cmd.label}: replay differs from the report in {mismatched}")
        if found:
            failed += 1
            problems += found

    layer = layer_metrics(tracer.spans, configs, durations)
    for key, value in extra.items():
        layer[key] = ({"median": value, "n": 1}, "MB")
    if report_ms:
        layer["harness.report_ms"] = (summary(report_ms), "ms")
    if durations:
        overhead = sum(replay_walls.values()) / sum(durations[k] for k in replay_walls)
        layer["trace.overhead_frac"] = ({"median": overhead, "n": 1}, "ratio")

    print(f"== traced replay of every workload, seed {seed}")
    for key, (s, unit) in layer.items():
        print(f"  {key:<44} {describe(s, unit)}")
    counts = computed_counts(configs)
    for key, (value, unit, base) in counts.items():
        print(f"  {key:<44} {value} {unit} (computed: {base})")

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-seed{seed}.json").write_text(json.dumps({
        "spans": tracer.spans,
        "per_layer": {k: dict(s, unit=u) for k, (s, u) in layer.items()},
        "computed": {k: {"value": v, "unit": u, "base": b} for k, (v, u, b) in counts.items()},
    }))
    metrics = {k: {"value": s["median"], "unit": u} for k, (s, u) in layer.items()}
    metrics.update({k: {"value": v, "unit": u} for k, (v, u, _) in counts.items()})
    return attempted, failed, problems, metrics


def layer_metrics(spans: list[dict], configs: dict, durations: dict) -> dict:
    """Per-layer timings from the spans; name -> (summary, unit)."""
    by_label: dict[str, dict[str, list]] = {}
    for s in spans:
        label = str(s["trial"]).split(":")[0]
        by_label.setdefault(label, {}).setdefault(s["name"], []).append(s)

    def ms(label, name):
        return [(s["end"] - s["start"]) / 1e6 for s in by_label.get(label, {}).get(name, [])]

    out = {}
    sims = [c.label for w in ("sim-large", "sim-small") for c in WORKLOADS[w]
            if c.label in configs]
    for stage in ("generate", "sort", "matrix"):
        per_tag: dict[str, list] = {}
        for label in sims:
            per_tag.setdefault(_tag(configs[label]), []).extend(ms(label, f"core.{stage}"))
        for tag, values in per_tag.items():
            if values:
                out[f"core.{stage}_ms.{tag}"] = (summary(values), "ms")
    for label in sims:
        core = sum(sum(ms(label, f"core.{st}")) for st in ("generate", "sort", "matrix"))
        out[f"core.share_of_trial.{label}"] = (
            {"median": core / sum(ms(label, "trial")), "n": len(ms(label, "trial"))}, "ratio")
    for label, name in (("greedy", "greedy"), ("walks", "pedestrian"), ("walks", "refusal")):
        if label in configs:
            out[f"walks.{name}_ms"] = (summary(ms(label, f"walks.{name}")), "ms")
    if "kgreedy" in configs:
        runs = by_label["kgreedy"]["kgreedy.run"]
        out["kgreedy.run_ms"] = (summary(ms("kgreedy", "kgreedy.run")), "ms")
        out["kgreedy.us_per_extension"] = (summary(
            [(s["end"] - s["start"]) / 1e3 / s["count"] for s in runs]), "us")
    if "moments" in configs:
        counts = [x * 1e3 for x in ms("moments", "exact.count")]
        out["exact.count_us"] = (summary(counts), "us")
        n = configs["moments"]["n"]
        out["exact.states_per_s"] = (summary([n * 2**n / (x / 1e6) for x in counts]), "states/s")
    if "hamprob" in configs:
        out["exact.exists_us"] = (summary([x * 1e3 for x in ms("hamprob", "exact.exists")]), "us")
    for key, label, name in (
        ("cyclestats.rational_cold_s", "alpha_rational", "cyclestats.alpha_table"),
        ("cyclestats.float_table_s", "alpha_float", "cyclestats.alpha_table"),
        ("cyclestats.sample_s", "cycles_mc", "cyclestats.sample"),
        ("secondmoment.bounds_s", "bounds", "secondmoment.bounds"),
        ("secondmoment.moments_s", "moments_exact", "secondmoment.moments"),
        ("secondmoment.census_s", "census", "secondmoment.census"),
        ("secondmoment.constant_c_s", "constant_c", "secondmoment.constant_c"),
    ):
        values = [x / 1e3 for x in ms(label, name)]
        if values:
            out[key] = (summary(values), "s")
    for label in ("moments", "hamprob", "walks"):
        if label in configs:
            layer_s = sum(sum(ms(label, k)) for k in by_label[label] if k != "trial") / 1e3
            trials = configs[label]["trials"]
            out[f"harness.dispatch_us_per_trial.{label}"] = (
                {"median": (durations[label] - layer_s) / trials * 1e6, "n": trials}, "us")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def record_reference() -> None:
    digests = {}
    for commands in WORKLOADS.values():
        for cmd in commands:
            inv = run_cli(cmd, DEFAULT_SEED)
            if inv.report is None:
                raise SystemExit(f"{cmd.label} failed: {inv.stderr}")
            digests[cmd.label] = digest(inv.report)
    REFERENCE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "version": inv.report["version"], "digests": digests},
        indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite reference.json from a run at seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)
    if not (SRC / "incpaths" / "__init__.py").is_file():
        print(f"error: no incpaths sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.trace:
        attempted, failed, problems, metrics = run_traced(args.seed)
    else:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        attempted, failed, problems, metrics = run_untraced(names, args.seed, args.seconds)
    for p in problems:
        print(f"CHECK FAILED {p}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
