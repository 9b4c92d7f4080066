"""sentrade benchmark: train and backtest wall time, memory, and decision fidelity.

Usage (from the repository root):

    python3 bench/run.py --workload sentiment-B --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 1 --trace 1 --smoke

The benchmark writes the workload's sessions CSV and config file from the
seed, then starts fresh single-threaded worker processes one after another
(``bench/worker.py``) until ``--seconds`` have passed. Each worker times
``sentrade train`` followed by ``sentrade backtest`` through
``sentrade.cli.main``; this process checks every worker's output files.
With ``--trace 1`` it alternates plain and traced workers and reports the
per-layer metrics instead of the end-to-end ones. See bench/README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
REFERENCE = BENCH_DIR / "reference_digests.json"
OUT_DIR = ROOT / ".bench_run"
OUTPUT_FILES = ("training.csv", "params.txt", "predictions.csv", "report.csv")
COMMANDS = ("train", "backtest")
WORKER_TIMEOUT_S = 150.0
CANDIDATES_PER_WINDOW = 29
# Median time of worker.calibrate() on the 2-core Xeon box the benchmark was
# written on. A worker's times are scaled by this over its own calibration
# time, so they read as seconds at that box's usual speed (see README).
CALIBRATION_REFERENCE_S = 0.0625
SMOKE_N, SMOKE_TRAIN_FRACTION = 48, 0.9
# Training cost depends on how many candidates pass the filter, which varies
# strongly from series to series (up to 2x on sentiment-B). So the workers
# of one run cycle through this many series, and the run's median is taken
# over series as well as over repeats.
DATASETS_PER_RUN = 16


@dataclass(frozen=True)
class Workload:
    """A generated session series plus the config the run reads.

    Sizes are chosen so that one worker process takes a few seconds: long
    enough that process start-up is a small share, short enough that a run
    holds several workers and reports medians. ``train_fraction`` sets how
    many sessions training scores (split - 42) against how many the
    backtest fits (n - split).
    """

    kind: str
    n: int
    config: dict = field(default_factory=dict)
    signal: float = 0.02
    ar2: float = 0.0


WORKLOADS = {
    # Every candidate is full rank, so every regressor gets a p-value:
    # stresses regression and model_space. 13% of candidates pass.
    "sentiment-B": Workload("B", 58, {"train_fraction": 0.8}),
    # Flat counts make 28 of 29 candidates rank-deficient: the early-exit
    # path, with few p-values; replay has its largest share of train_s.
    "financial-A": Workload("A", 65, {"train_fraction": 0.76}, signal=1.0, ar2=-0.8),
    # Non-default paths: pooled spread, class override, share columns (the
    # three shares sum to 1, so 4 of 29 candidates are rank-deficient) and
    # frequent abstention.
    "noise-global-C": Workload(
        "C",
        60,
        {"train_fraction": 0.79, "spread_scope": "global", "normalize_sentiment": "true"},
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("backtest_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
)

ONLY_IN = {
    "adaptive.write_predictions_csv.s": "backtest",
    "backtest.write_report_csv.s": "backtest",
    "backtest.write_training_csv.s": "train",
}
OUTCOME_METRICS = (
    ("decisions.hit_rate.backtest", "ratio"),
    ("decisions.strategy_return.backtest", "sum_return"),
    ("training.scored_sessions.train", "count"),
    ("training.grid_ties.train", "count"),
)


def unit_of(stem: str) -> str:
    if stem.endswith(".calls"):
        return "count"
    if stem.endswith("_ratio"):
        return "ratio"
    return "s"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer stem once per command it applies to, suffixed .train or .backtest."""
    stems = [*layer_values({}), "trace.overhead_s"]
    names = [
        (f"{stem}.{command}", unit_of(stem))
        for command in COMMANDS
        for stem in stems
        if ONLY_IN.get(stem, command) == command
    ]
    return names + list(OUTCOME_METRICS)


# ---------------------------------------------------------------- inputs


def dataset_seed(seed: int, index: int) -> int:
    """Seed of a run's index-th series; series 0 is the run's own seed."""
    return seed if index == 0 else 1_000_000 + DATASETS_PER_RUN * seed + index


def sessions_csv(workload: Workload, n: int, seed: int) -> str:
    """The sessions CSV: alternating 6 h day and 18 h night sessions.

    Kind A: AR(2) returns with flat counts of 50. Kind B: returns driven by
    the previous session's positive-negative count difference. Kind C:
    noise returns with counts drawn as in B but unused.
    """
    rng = random.Random(seed)
    sigma, burn_in = 0.004, 50
    if workload.kind == "A":
        r: list[float] = []
        for t in range(burn_in + n):
            value = rng.gauss(0.0, sigma)
            if t >= 1:
                value += workload.signal * r[t - 1]
            if t >= 2:
                value += workload.ar2 * r[t - 2]
            r.append(value)
        returns = r[burn_in:]
        pos = neg = neu = [50] * n
    else:
        pos = [rng.randint(0, 200) for _ in range(n)]
        neg = [rng.randint(0, 200) for _ in range(n)]
        neu = [rng.randint(0, 100) for _ in range(n)]
        returns = [rng.gauss(0.0, sigma) for _ in range(n)]
        if workload.kind == "B":
            for t in range(1, n):
                returns[t] += workload.signal * (pos[t - 1] - neg[t - 1]) / 100.0
    lines = ["index,kind,open_time,close_time,open_price,close_price,pos,neg,neu"]
    opened = datetime(2012, 3, 5, 14, 30, tzinfo=timezone.utc)
    price = 100.0
    for t in range(n):
        hours = 6 if t % 2 == 0 else 18
        closed = opened + timedelta(hours=hours)
        close_price = price * (1.0 + returns[t])
        lines.append(
            f"{t},{'day' if t % 2 == 0 else 'night'},{opened:%Y-%m-%dT%H:%M:%SZ},"
            f"{closed:%Y-%m-%dT%H:%M:%SZ},{price!r},{close_price!r},{pos[t]},{neg[t]},{neu[t]}"
        )
        opened, price = closed, close_price
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- checks


SUMMARY = re.compile(
    r"strategy (\S+) benchmark (\S+) optimal (\S+) trades (\d+) hit_rate (\S+)"
)


def check_outputs(workdir: Path, backtest_stdout: str) -> tuple[dict, list[str], dict]:
    """Digests of the four output files, ledger problems, and decision facts."""
    texts, digests = {}, {}
    for name in OUTPUT_FILES:
        try:
            data = (workdir / f"run_{name}").read_bytes()
        except OSError as exc:
            return digests, [f"{name}: {exc}"], {}
        digests[name] = hashlib.sha256(data).hexdigest()
        texts[name] = data.decode("utf-8")
    report, predictions, training = (
        list(csv.reader(io.StringIO(texts[name])))[1:]
        for name in ("report.csv", "predictions.csv", "training.csv")
    )
    problems = []
    summary = SUMMARY.search(backtest_stdout)
    if not report or not training or summary is None:
        return digests, ["empty report or training file, or no backtest summary"], {}
    if len(report) != len(predictions):
        problems.append(f"report has {len(report)} rows, predictions {len(predictions)}")
    total = 0.0
    for row in report:
        total += float(row[2])
        if abs(float(row[3])) > float(row[6]) + 1e-12:
            problems.append(f"session {row[0]}: |strategy| {row[3]} exceeds optimal {row[6]}")
            break
    last = float(report[-1][3])
    if not math.isclose(total, last, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"last cum_strategy {last!r} differs from sum of step_pnl {total!r}")
    if summary.group(1) != f"{last:+.4f}":
        problems.append(f"summary strategy {summary.group(1)} differs from report {last!r}")
    scores = [float(row[2]) for row in training]
    facts = {
        "strategy_return": float(summary.group(1)),
        "hit_rate": None if summary.group(5) == "na" else float(summary.group(5)),
        "trades": int(summary.group(4)),
        "abstain_share_backtest": sum(r[1] == "none" for r in predictions) / len(predictions),
        "grid_ties": scores.count(max(scores)),
    }
    return digests, problems, facts


# ---------------------------------------------------------------- workers


@dataclass
class Rep:
    traced: bool
    ok: bool = False
    problems: list = field(default_factory=list)
    setup_s: float = math.nan
    total_s: float = math.nan
    seconds: dict = field(default_factory=dict)
    peak_rss_mb: float = math.nan
    calibration_s: float = math.nan
    speed: float = math.nan
    layers: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)


def worker_env() -> dict:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_worker(workdir: Path, traced: bool) -> Rep:
    rep = Rep(traced)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(ROOT), str(workdir), "1" if traced else "0"],
            env=worker_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        rep.problems.append(f"worker timed out after {WORKER_TIMEOUT_S}s")
        return rep
    rep.total_s = time.monotonic() - spawned
    if proc.returncode != 0:
        rep.problems.append(f"worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return rep
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        rep.problems.append(f"worker printed no result: {proc.stdout[-200:]!r}")
        return rep
    rep.setup_s = result["ready"] - spawned
    rep.peak_rss_mb = result["peak_rss_mb"]
    rep.calibration_s = statistics.mean(result["calibration_s"])
    rep.speed = CALIBRATION_REFERENCE_S / rep.calibration_s
    for command in COMMANDS:
        if command not in result or result[command]["code"] != 0:
            rep.problems.append(f"{command} failed: {proc.stderr.strip()[-400:]}")
            return rep
        rep.seconds[command] = result[command]["s"]
        rep.layers[command] = result[command]["layers"]
    rep.absent = result["absent"]
    rep.digests, problems, rep.facts = check_outputs(workdir, result["backtest"]["stdout"])
    rep.problems.extend(problems)
    if traced:
        for command in COMMANDS:
            fits = rep.layers[command].get("regression.fit_ols", {}).get("calls", 0)
            windows = rep.layers[command].get("model_space.fit_window", {}).get("calls", 0)
            if fits != CANDIDATES_PER_WINDOW * windows:
                rep.problems.append(
                    f"{command}: fit_ols calls {fits} != {CANDIDATES_PER_WINDOW} x fit_window calls {windows}"
                )
    rep.ok = not rep.problems
    return rep


# ---------------------------------------------------------------- metrics


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered) if ordered else 0.0, "n": n, "samples": values}
    if n >= 20:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = ordered[math.ceil(pct * n / 100) - 1]
    return out


def layer_values(layers: dict) -> dict:
    """Per-layer metric stems from one command's spans."""

    def get(span: str, key: str) -> float:
        return layers.get(span, {}).get(key, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    cache_calls = get("backtest.fitcache", "calls")
    window_calls = get("model_space.fit_window", "calls")
    return {
        "sessions.read_sessions_csv.s": get("sessions.read_sessions_csv", "total_s"),
        "regression.fit_ols.calls": get("regression.fit_ols", "calls"),
        "regression.fit_ols.self_s": get("regression.fit_ols", "self_s"),
        "regression.fit_ols.rank_deficient_ratio": ratio(
            get("regression.fit_ols", "rank_deficient"), get("regression.fit_ols", "calls")
        ),
        "regression.two_sided_t_pvalue.calls": get("regression.two_sided_t_pvalue", "calls"),
        "regression.two_sided_t_pvalue.s": get("regression.two_sided_t_pvalue", "total_s"),
        "model_space.build_design.calls": get("model_space.build_design", "calls"),
        "model_space.build_design.s": get("model_space.build_design", "total_s"),
        "model_space.fit_window.calls": window_calls,
        "model_space.fit_window.self_s": get("model_space.fit_window", "self_s"),
        "model_space.filter_pass_ratio": ratio(
            get("model_space.fit_window", "passed"), get("model_space.fit_window", "fitted")
        ),
        "adaptive.run_pipeline.calls": get("adaptive.run_pipeline", "calls"),
        "adaptive.run_pipeline.self_s": get("adaptive.run_pipeline", "nonfit_s"),
        "adaptive.propose.s": get("adaptive.propose", "total_s"),
        "adaptive.resolve.s": get("adaptive.resolve", "total_s"),
        "adaptive.select_tfw.s": get("adaptive.select_tfw", "total_s"),
        "adaptive.abstain_ratio": ratio(
            get("adaptive.run_pipeline", "abstained"), get("adaptive.run_pipeline", "records")
        ),
        "adaptive.write_predictions_csv.s": get("adaptive.write_predictions_csv", "total_s"),
        "backtest.fitcache.hit_ratio": 1.0 - ratio(window_calls, cache_calls) if cache_calls else 0.0,
        "backtest.simulate.s": get("backtest.simulate", "total_s"),
        "backtest.write_report_csv.s": get("backtest.write_report_csv", "total_s"),
        "backtest.write_training_csv.s": get("backtest.write_training_csv", "total_s"),
    }


def end_to_end_samples(reps: list[Rep], adjusted: bool = True) -> dict[str, list[float]]:
    """Samples of the plain workers; times scaled to the reference speed unless not adjusted."""
    plain = [r for r in reps if r.ok and not r.traced]
    scale = [r.speed if adjusted else 1.0 for r in plain]
    return {
        "setup_s": [r.setup_s * k for r, k in zip(plain, scale)],
        "train_s": [r.seconds["train"] * k for r, k in zip(plain, scale)],
        "backtest_s": [r.seconds["backtest"] * k for r, k in zip(plain, scale)],
        "total_s": [r.total_s * k for r, k in zip(plain, scale)],
        "peak_rss_mb": [r.peak_rss_mb for r in plain],
        "calibration_s": [r.calibration_s for r in plain],
    }


def per_layer_samples(reps: list[Rep]) -> dict[str, list[float]]:
    traced = [r for r in reps if r.ok and r.traced]
    plain = end_to_end_samples(reps)
    samples: dict[str, list[float]] = {name: [] for name, _ in per_layer_names()}
    for rep in traced:
        for command in COMMANDS:
            for stem, value in layer_values(rep.layers[command]).items():
                if f"{stem}.{command}" in samples:
                    samples[f"{stem}.{command}"].append(value * rep.speed if unit_of(stem) == "s" else value)
        samples["decisions.hit_rate.backtest"].append(rep.facts["hit_rate"] or 0.0)
        samples["decisions.strategy_return.backtest"].append(rep.facts["strategy_return"])
        samples["training.scored_sessions.train"].append(
            rep.layers["train"].get("adaptive.run_pipeline", {}).get("last_records", 0)
        )
        samples["training.grid_ties.train"].append(rep.facts["grid_ties"])
    for command in COMMANDS:
        untraced = plain[f"{command}_s"]
        if traced and untraced:
            overhead = statistics.median(r.seconds[command] * r.speed for r in traced) - statistics.median(untraced)
            samples[f"trace.overhead_s.{command}"] = [overhead]
    return samples


# ---------------------------------------------------------------- runs


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def properties(reps: list[Rep]) -> dict:
    """Input property shares a later change can cite, from the first good rep."""
    good = [r for r in reps if r.ok]
    if not good:
        return {}
    facts = dict(good[0].facts)
    traced = [r for r in good if r.traced]
    if traced:
        for command in COMMANDS:
            values = layer_values(traced[0].layers[command])
            for stem in ("regression.fit_ols.rank_deficient_ratio", "model_space.filter_pass_ratio",
                         "adaptive.abstain_ratio"):
                facts[f"{stem.split('.')[-1]}.{command}"] = values[stem]
        facts["scored_train_sessions"] = (
            traced[0].layers["train"].get("adaptive.run_pipeline", {}).get("last_records", 0)
        )
        facts["absent"] = traced[0].absent
    return facts


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, record: bool) -> dict:
    workload = WORKLOADS[name]
    n = SMOKE_N if smoke else workload.n
    config = dict(workload.config)
    if smoke:
        config["train_fraction"] = SMOKE_TRAIN_FRACTION
    key = f"{name}/n{n}/seed{seed}"
    reference = None if record else load_reference().get(key)
    rundir = OUT_DIR / f"{name}-n{n}-seed{seed}"
    workdirs = []
    for index in range(DATASETS_PER_RUN):
        workdir = rundir / f"d{index}"
        workdir.mkdir(parents=True, exist_ok=True)
        data_seed = dataset_seed(seed, index)
        (workdir / "sessions.csv").write_text(sessions_csv(workload, n, data_seed), encoding="utf-8")
        (workdir / "run.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8"
        )
        workdirs.append(workdir)
    subprocess.run([sys.executable, str(WORKER), str(ROOT), "-", "0"], env=worker_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)

    plan = (False, True) if trace else (False,)
    reps: list[Rep] = []
    first_digests: dict[int, dict] = {}
    deadline = time.monotonic() + seconds
    for cycle in itertools.count():
        began = time.monotonic()
        index = cycle % DATASETS_PER_RUN
        for traced in plan:
            rep = run_worker(workdirs[index], traced)
            if rep.ok and first_digests.setdefault(index, rep.digests) != rep.digests:
                rep.problems.append(f"dataset {index}: outputs differ from its first worker in this run")
            if rep.ok and index == 0 and reference is not None and rep.digests != reference:
                rep.problems.append(f"outputs differ from the reference digests for {key}")
            rep.ok = not rep.problems
            reps.append(rep)
        if time.monotonic() + (time.monotonic() - began) > deadline:
            break

    failed = [r for r in reps if not r.ok]
    for rep in failed[:3]:
        print(f"{name}: worker failed: {'; '.join(rep.problems)}", file=sys.stderr)
    if record and not failed:
        table = load_reference()
        table[key] = first_digests[0]
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    units = dict(per_layer_names() if trace else END_TO_END)
    samples = per_layer_samples(reps) if trace else end_to_end_samples(reps)
    stats = {metric: {**summarize(samples[metric]), "unit": units[metric]} for metric in units}
    result = {
        "workload": name,
        "seed": seed,
        "n_sessions": n,
        "config": config,
        "environment": environment(),
        "properties": properties(reps),
        "error_rate": len(failed) / len(reps),
        "stats": stats,
        "unadjusted": {
            metric: summarize(values) for metric, values in end_to_end_samples(reps, adjusted=False).items()
        },
        "problems": [p for r in failed for p in r.problems],
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {m: {"value": s["median"], "unit": s["unit"]} for m, s in stats.items()},
    }
    (OUT_DIR / f"result-{name}-n{n}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8"
    )
    return result


def print_table(result: dict) -> None:
    print(f"== {result['workload']} seed {result['seed']} n {result['n_sessions']} config {result['config']}")
    print(f"environment {json.dumps(result['environment'])}")
    print(f"properties {json.dumps(result['properties'])}")
    facts = result["properties"]
    print(f"{'error_rate':48s} {result['error_rate']:14.6g} {'ratio':10s} "
          f"{result['failed']} failed of {result['attempted']} worker runs")
    for metric, unit in (("hit_rate", "ratio"), ("strategy_return", "sum_return")):
        print(f"{metric:48s} {facts.get(metric)!s:>14} {unit:10s} from the backtest summary")
    unadjusted = result["unadjusted"]
    print(f"{'calibration_s':48s} {unadjusted['calibration_s']['median']:14.6g} {'s':10s} "
          f"host speed check, reference {CALIBRATION_REFERENCE_S} s")
    for metric, s in result["stats"].items():
        tail = " ".join(f"{k} {v:.6g}" for k, v in s.items() if re.fullmatch(r"p\d+", k))
        if s["unit"] == "s" and metric in unadjusted:
            tail += f" (unadjusted median {unadjusted[metric]['median']:.6g})"
        print(f"{metric:48s} {s['median']:14.6g} {s['unit']:10s} median of n={s['n']} {tail}".rstrip())


def smoke_problems(metrics: dict, trace: bool) -> list[str]:
    """Every metric BENCHMARK.json names must be printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for entry in spec["per_layer" if trace else "end_to_end"]:
        got = metrics.get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            problems.append(f"metric {entry['name']} [{entry['unit']}] printed as {got}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny series; check metric names and units")
    parser.add_argument("--record", action="store_true", help="store this seed's output digests as the reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sentrade" / "cli.py").is_file():
        print(f"error: no sentrade sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke, args.record)
        print_table(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v for r in results for m, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    if args.smoke:
        for result in results:
            for problem in smoke_problems(result["metrics"], bool(args.trace)):
                print(f"{result['workload']}: {problem}", file=sys.stderr)
                correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
