"""Acceptance gate: nine system-level criteria, one printed verdict line each.

Each test prints a single ``criterion N: PASS/FAIL`` line through
``capfd.disabled()`` so the verdicts always reach the terminal, then
asserts the same conditions, so a red criterion is visible both ways.
"""

from __future__ import annotations

import itertools
import time
from functools import partial

import numpy as np

from sentrade.adaptive import PipelineParams
from sentrade.backtest import evaluate, simulate
from sentrade.cli import main
from sentrade.errors import DataError
from sentrade.model_space import CANDIDATES, ModelClass, Variable, enumerate_candidates
from sentrade.reference import (
    FittedModel,
    TfwEngine,
    fit_window,
    run_pipeline,
    select_class,
    votes,
)
from sentrade.regression import DesignMatrix, fit_ols
from sentrade.synth import SyntheticScenario, generate

from oracles import ols_oracle, replay_engine

FIXED_PARAMS = PipelineParams(beta=0.4, gamma=0.0)

FINANCIAL_CAND = next(c for c in CANDIDATES if c.model_class is ModelClass.FINANCIAL)
SENTIMENT_CAND = next(c for c in CANDIDATES if c.variables == (Variable.P1,))


def report(capfd, number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    with capfd.disabled():
        print(f"\ncriterion {number}: {verdict} - {detail}", flush=True)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / (1.0 + abs(want))


def test_criterion_1_regression_matches_highprec_oracle(capfd):
    started = time.perf_counter()
    rng = np.random.default_rng(20120305)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 3, 13))
        X = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        fit = fit_ols(DesignMatrix(X, y))
        assert fit.rank_ok
        ref = ols_oracle(X.tolist(), y.tolist())
        worst = max(worst, rel_err(fit.intercept, ref["intercept"]))
        for i in range(k):
            worst = max(
                worst,
                rel_err(fit.coefficients[i], ref["coefficients"][i]),
                rel_err(fit.std_errors[i], ref["std_errors"][i]),
                rel_err(fit.p_values[i], ref["p_values"][i]),
            )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-7 and elapsed < 10.0
    report(
        capfd, 1, ok,
        f"100 designs, max rel err {worst:.2e} (tol 1e-07), {elapsed:.1f}s (limit 10s)",
    )
    assert worst <= 1e-7
    assert elapsed < 10.0


def test_criterion_2_candidate_enumeration(capfd):
    sentiment_vars = {Variable.P1, Variable.N1, Variable.Z1}
    expected = set()
    for size in range(1, 6):
        for combo in itertools.combinations(Variable, size):
            chosen = set(combo)
            if chosen & sentiment_vars or chosen == {Variable.R1, Variable.R2}:
                expected.add(frozenset(chosen))
    got = {frozenset(c.variables) for c in enumerate_candidates()}
    financial = [c for c in enumerate_candidates() if c.model_class is ModelClass.FINANCIAL]
    ok = (
        got == expected
        and len(got) == 29
        and len(financial) == 1
        and set(financial[0].variables) == {Variable.R1, Variable.R2}
    )
    report(capfd, 2, ok, f"{len(got)} candidates match exhaustive subsets, one financial pair")
    assert got == expected
    assert len(got) == 29
    assert len(financial) == 1
    assert set(financial[0].variables) == {Variable.R1, Variable.R2}


def _stub(candidate, predicted, passed) -> FittedModel:
    return FittedModel(candidate, fit=None, predicted_next=predicted, passed_filter=passed)


def _random_history(rng) -> TfwEngine:
    beta = float(rng.integers(0, 11)) / 10.0
    gamma = float(rng.integers(0, 11)) / 10.0
    engine = TfwEngine(w=int(rng.integers(20, 41)), beta=beta, gamma=gamma)
    for t in range(42, 42 + 40):
        if rng.random() < 0.1:
            engine.propose(t, None)
        else:
            models = []
            if rng.random() < 0.7:
                models.append(
                    _stub(FINANCIAL_CAND, float(rng.normal(0, 0.01)), rng.random() < 0.8)
                )
            for _ in range(int(rng.integers(0, 5))):
                models.append(
                    _stub(SENTIMENT_CAND, float(rng.normal(0, 0.01)), rng.random() < 0.7)
                )
            engine.propose(t, votes(models))
        realized = 0.0 if rng.random() < 0.1 else float(rng.normal(0, 0.01))
        engine.resolve(realized)
    return engine


def test_criterion_3_recursion_replay(capfd):
    rng = np.random.default_rng(424242)
    worst = 0.0
    silent_steps = 0
    for _ in range(50):
        engine = _random_history(rng)
        spreads, qualities = replay_engine(engine.history, engine.beta, engine.gamma)
        for step, s_ref, q_ref in zip(engine.history, spreads, qualities):
            worst = max(worst, abs(step.spread_after - s_ref), abs(step.quality_after - q_ref))
            if step.emitted is None:
                silent_steps += 1
    ok = worst <= 1e-12 and silent_steps > 0
    report(
        capfd,
        3,
        ok,
        f"50 histories replayed, max dev {worst:.2e} (tol 1e-12), "
        f"{silent_steps} decay-only steps covered",
    )
    assert worst <= 1e-12
    assert silent_steps > 0


def test_criterion_4_planted_autoregressive_regime(capfd):
    started = time.perf_counter()
    series = generate(
        SyntheticScenario("A", 300, signal_strength=1.0, ar2=-0.8, noise_sigma=0.004, seed=3)
    )
    result = run_pipeline(series, FIXED_PARAMS)
    min_frac_positive = min(
        np.mean([step.spread_after > 0 for step in engine.history])
        for engine in result.engines
    )
    all_financial = all(
        step.chosen_class is ModelClass.FINANCIAL
        for engine in result.engines
        for step in engine.history
        if step.emitted is not None
    )
    scored = [r.correct for r in result.records if r.correct is not None]
    hit_rate = sum(scored) / len(scored)
    elapsed = time.perf_counter() - started
    ok = min_frac_positive >= 0.95 and all_financial and hit_rate >= 0.75 and elapsed < 60.0
    report(
        capfd,
        4,
        ok,
        f"spread positive {min_frac_positive:.1%} (need 95%), financial-only {all_financial}, "
        f"hit rate {hit_rate:.3f} (need 0.75), {elapsed:.1f}s (limit 60s)",
    )
    assert min_frac_positive >= 0.95
    assert all_financial
    assert hit_rate >= 0.75
    assert elapsed < 60.0


def test_criterion_5_planted_sentiment_regime(capfd):
    started = time.perf_counter()
    series = generate(SyntheticScenario("B", 200, seed=7))
    pipeline = run_pipeline(series, FIXED_PARAMS)
    worst_switch = 0
    for engine in pipeline.engines:
        emitting = 0
        for step in engine.history:
            if step.emitted is not None:
                emitting += 1
            if step.spread_after < 0:
                break
        else:
            emitting = len(engine.history) + 10
        worst_switch = max(worst_switch, emitting)
    evaluation = evaluate(series, FIXED_PARAMS)
    hit_rate = evaluation.ledger.hit_rate
    strategy = evaluation.ledger.final_strategy
    optimal = evaluation.ledger.final_optimal
    elapsed = time.perf_counter() - started
    ok = (
        worst_switch <= 10
        and hit_rate >= 0.80
        and strategy >= 0.7 * optimal
        and elapsed < 60.0
    )
    report(
        capfd,
        5,
        ok,
        f"spread negative within {worst_switch} emitting sessions (limit 10), "
        f"hit rate {hit_rate:.3f} (need 0.80), strategy/optimal "
        f"{strategy / optimal:.3f} (need 0.70), {elapsed:.1f}s (limit 60s)",
    )
    assert worst_switch <= 10
    assert hit_rate >= 0.80
    assert strategy >= 0.7 * optimal
    assert elapsed < 60.0


def _reference_models(series, params):
    """The reference ``fit_window`` over ``series`` with the run's fit settings."""
    return partial(
        fit_window, series, p_threshold=params.p_threshold, normalize=params.normalize_sentiment
    )


def reference_fits(series, params):
    """The reference ``fit_window``, reduced to vote counts, as a ``fit_fn`` for ``series``."""
    fit = _reference_models(series, params)
    return lambda t, w: votes(fit(t, w))


class _RecordingFits:
    """Reference fit function tallying pass-rate per candidate label."""

    def __init__(self, series, params, tally):
        self._fit = _reference_models(series, params)
        self._tally = tally

    def __call__(self, t, w):
        models = self._fit(t, w)
        for model in models:
            entry = self._tally.setdefault(model.candidate.label, [0, 0])
            entry[0] += int(model.passed_filter)
            entry[1] += 1
        return votes(models)


def test_criterion_6_noise_regime(capfd):
    started = time.perf_counter()
    finals = []
    tally: dict[str, list[int]] = {}
    for seed in range(100, 120):
        series = generate(SyntheticScenario("C", 120, seed=seed))
        recorder = _RecordingFits(series, FIXED_PARAMS, tally)
        result = evaluate(series, FIXED_PARAMS, fit_fn=recorder)
        finals.append(result.ledger.final_strategy)
    mean = float(np.mean(finals))
    se = float(np.std(finals, ddof=1)) / np.sqrt(len(finals))
    rates = {label: passed / total for label, (passed, total) in tally.items()}
    worst_label, worst_rate = max(rates.items(), key=lambda item: item[1])
    elapsed = time.perf_counter() - started
    ok = abs(mean) <= 2 * se and worst_rate < 0.15 and elapsed < 300.0
    report(
        capfd,
        6,
        ok,
        f"20 seeds, mean P&L {mean:+.4f} within 2·SE {2 * se:.4f}, worst pass rate "
        f"{worst_rate:.3f} ({worst_label}, limit 0.15), {elapsed:.0f}s (limit 300s)",
    )
    assert abs(mean) <= 2 * se
    assert worst_rate < 0.15
    assert elapsed < 300.0


def _random_trades(rng):
    from sentrade.adaptive import PredictionRecord

    length = int(rng.integers(1, 41))
    returns = []
    records = []
    for i in range(length):
        r = 0.0 if rng.random() < 0.1 else float(rng.uniform(-0.05, 0.05))
        choice = int(rng.integers(0, 3))
        sign = (1, -1, None)[choice]
        if sign is None:
            records.append(PredictionRecord(i, None, None, None, r, None))
        else:
            correct = None if r == 0 else (sign > 0) == (r > 0)
            records.append(
                PredictionRecord(i, 20, ModelClass.FINANCIAL, sign, r, correct)
            )
        returns.append(r)
    return records, returns


def test_criterion_7_ledger_algebra(capfd):
    rng = np.random.default_rng(777)
    for _ in range(1000):
        records, returns = _random_trades(rng)
        ledger = simulate(records, returns)
        for i in range(len(returns)):
            assert ledger.cum_optimal[i] >= ledger.cum_strategy[i] - 1e-12
            assert ledger.cum_optimal[i] >= ledger.cum_benchmark[i] - 1e-12
        flipped = [
            r
            if r.predicted_sign is None
            else r.__class__(
                r.index,
                r.chosen_tfw,
                r.chosen_class,
                -r.predicted_sign,
                r.realized_return,
                None if r.correct is None else not r.correct,
            )
            for r in records
        ]
        mirror = simulate(flipped, returns)
        for a, b in zip(ledger.step_pnl, mirror.step_pnl):
            assert a == -b or (a == 0.0 and b == 0.0)
        cut = int(rng.integers(0, len(returns) + 1))
        prefix = simulate(records[:cut], returns[:cut])
        assert prefix.step_pnl == ledger.step_pnl[:cut]
        assert prefix.decisions == ledger.decisions[:cut]
    report(capfd, 7, True, "dominance, antisymmetry, prefix consistency on 1000 random series")


def test_criterion_8_pipeline_determinism(tmp_path, capfd):
    sessions = tmp_path / "b_sessions.csv"
    assert main(["synth", "--kind", "B", "--n", "200", "--seed", "7",
                 "--out", str(tmp_path / "b_")]) == 0
    config = tmp_path / "run.cfg"
    config.write_text("tfw_min = 20\ntfw_max = 40\n", encoding="utf-8")

    def run(tag: str, threads: int) -> dict[str, bytes]:
        prefix = tmp_path / f"{tag}_"
        assert main(["train", "--sessions", str(sessions), "--config", str(config),
                     "--threads", str(threads), "--out", str(prefix)]) == 0
        assert main(["backtest", "--sessions", str(sessions), "--config", str(config),
                     "--params", f"{prefix}params.txt",
                     "--threads", str(threads), "--out", str(prefix)]) == 0
        return {
            name: (tmp_path / f"{tag}_{name}").read_bytes()
            for name in ("training.csv", "params.txt", "predictions.csv", "report.csv")
        }

    baseline = run("t1a", 1)
    repeat = run("t1b", 1)
    four = run("t4", 4)
    sixteen = run("t16", 16)
    ok = baseline == repeat == four == sixteen
    report(capfd, 8, ok, "train+backtest byte-identical across reruns and threads 1/4/16")
    assert baseline == repeat
    assert baseline == four
    assert baseline == sixteen


def test_criterion_9_fixed_parameter_smoke(capfd):
    scenarios = {
        "A": generate(
            SyntheticScenario("A", 300, signal_strength=1.0, ar2=-0.8, noise_sigma=0.004, seed=3)
        ),
        "B": generate(SyntheticScenario("B", 200, seed=7)),
        "C": generate(SyntheticScenario("C", 120, seed=100)),
    }
    completed = []
    for kind, series in scenarios.items():
        result = evaluate(series, FIXED_PARAMS)
        assert result.records
        completed.append(kind)

    series_b = scenarios["B"]
    reference = reference_fits(series_b, FIXED_PARAMS)
    pipeline = run_pipeline(series_b, FIXED_PARAMS, start=60, end=200, fit_fn=reference)
    checked = 0
    for engine in pipeline.engines:
        for position in (3, 25, 60, 110):
            step = engine.history[position]
            corrupted = TfwEngine(engine.w, engine.beta, engine.gamma, initial_spread=-999.0)
            corrupted.quality = 123.0
            corrupted.propose(step.index - 1, reference(step.index - 1, engine.w))
            corrupted.resolve(series_b.returns[step.index - 1])
            assert select_class(corrupted.spread) is step.chosen_class
            checked += 1
    ok = completed == ["A", "B", "C"] and checked == 4 * len(pipeline.engines)
    report(
        capfd,
        9,
        ok,
        f"completed scenarios {'/'.join(completed)} at fixed parameters; "
        f"{checked} single-session replays reproduce every class choice",
    )
    assert completed == ["A", "B", "C"]
    assert checked == 4 * len(pipeline.engines)
