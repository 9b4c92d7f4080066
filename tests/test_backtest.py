"""Trading simulation, parameter search, and evaluation tests."""

from __future__ import annotations

import io
import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from conftest import make_series, plant_returns
from sentrade.adaptive import (
    PipelineParams,
    PredictionRecord,
    first_session,
    replay_grid,
    run_pipeline,
)
from sentrade.backtest import (
    GRID_VALUES,
    REPORT_HEADER,
    TRAINING_HEADER,
    Action,
    evaluate,
    simulate,
    split_point,
    train_params,
    write_report_csv,
    write_training_csv,
)
from sentrade.errors import ConfigError, DataError
from sentrade.model_space import FitTable, ModelClass, fit_window, votes
from sentrade.synth import SyntheticScenario, generate


def rec(index: int, sign: int | None, realized: float) -> PredictionRecord:
    if sign is None:
        return PredictionRecord(index, None, None, None, realized, None)
    correct = None if realized == 0 else (sign > 0) == (realized > 0)
    return PredictionRecord(index, 20, ModelClass.FINANCIAL, sign, realized, correct)


returns_strategy = st.lists(
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False), min_size=1, max_size=30
)


class TestSimulate:
    def test_three_session_example(self):
        returns = [0.01, -0.02, 0.03]
        records = [rec(5, 1, 0.01), rec(6, -1, -0.02), rec(7, None, 0.03)]
        ledger = simulate(records, returns)
        assert ledger.step_pnl == (0.01, 0.02, 0.0)
        assert ledger.final_strategy == pytest.approx(0.03)
        assert ledger.final_benchmark == pytest.approx(0.02)
        assert ledger.final_optimal == pytest.approx(0.06)
        assert ledger.cum_benchmark_compounded[-1] == pytest.approx(
            1.01 * 0.98 * 1.03 - 1.0
        )
        assert ledger.hit_rate == 1.0
        assert ledger.n_trades == 2
        assert [d.action for d in ledger.decisions] == [
            Action.LONG,
            Action.SHORT,
            Action.NOOP,
        ]

    def test_abstaining_strategy_is_flat(self):
        returns = [0.04, -0.03, 0.02]
        records = [rec(i, None, r) for i, r in enumerate(returns)]
        ledger = simulate(records, returns)
        for step in ledger.step_pnl:
            assert step == 0.0
            assert math.copysign(1.0, step) == 1.0  # never -0.0
        assert ledger.hit_rate is None
        assert ledger.n_trades == 0

    def test_perfect_foresight_attains_optimal(self):
        returns = [0.013, -0.004, 0.0, 0.021, -0.009]
        records = [
            rec(i, 1 if r > 0 else -1 if r < 0 else None, r)
            for i, r in enumerate(returns)
        ]
        ledger = simulate(records, returns)
        assert ledger.cum_strategy == ledger.cum_optimal

    def test_always_wrong_hit_rate(self):
        returns = [0.01, -0.02]
        records = [rec(0, -1, 0.01), rec(1, 1, -0.02)]
        ledger = simulate(records, returns)
        assert ledger.hit_rate == 0.0
        assert ledger.final_strategy == pytest.approx(-0.03)

    def test_trade_on_zero_return_counts_no_hit(self):
        ledger = simulate([rec(0, 1, 0.0)], [0.0])
        assert ledger.n_trades == 1
        assert ledger.hit_rate is None
        assert ledger.step_pnl == (0.0,)

    def test_cost_charged_per_trade_only(self):
        records = [rec(0, 1, 0.01), rec(1, None, 0.02)]
        ledger = simulate(records, [0.01, 0.02], cost_per_trade=0.001)
        assert ledger.step_pnl[0] == pytest.approx(0.009)
        assert ledger.step_pnl[1] == 0.0
        assert ledger.n_trades == 1

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError):
            simulate([], [], cost_per_trade=-0.1)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="1 records but 2 returns"):
            simulate([rec(0, 1, 0.01)], [0.01, 0.02])

    def test_empty_input(self):
        ledger = simulate([], [])
        assert ledger.final_strategy == 0.0
        assert ledger.final_benchmark == 0.0
        assert ledger.final_optimal == 0.0
        assert ledger.hit_rate is None

    def test_benchmark_is_plain_running_sum(self):
        returns = [0.011, -0.007, 0.003, 0.0, -0.019]
        records = [rec(i, None, r) for i, r in enumerate(returns)]
        ledger = simulate(records, returns)
        acc = 0.0
        for r, cum in zip(returns, ledger.cum_benchmark):
            acc += r
            assert cum == acc

    @given(
        returns_strategy,
        st.lists(st.sampled_from([1, -1, None]), min_size=30, max_size=30),
    )
    def test_no_strategy_beats_optimal(self, returns, signs):
        records = [rec(i, s, r) for i, (s, r) in enumerate(zip(signs, returns))]
        ledger = simulate(records, returns)
        for step, r in zip(ledger.step_pnl, returns):
            assert abs(step) <= abs(r)
        assert ledger.final_strategy <= ledger.final_optimal + 1e-12

    @given(
        returns_strategy,
        st.lists(st.sampled_from([1, -1, None]), min_size=30, max_size=30),
    )
    def test_flipping_signs_negates_pnl(self, returns, signs):
        records = [rec(i, s, r) for i, (s, r) in enumerate(zip(signs, returns))]
        flipped = [
            rec(i, None if s is None else -s, r)
            for i, (s, r) in enumerate(zip(signs, returns))
        ]
        forward = simulate(records, returns)
        backward = simulate(flipped, returns)
        for a, b in zip(forward.step_pnl, backward.step_pnl):
            assert a == -b or (a == 0.0 and b == 0.0)


class TestSplitPoint:
    @pytest.mark.parametrize("n,fraction,expected", [(200, 0.30, 60), (10, 0.35, 3), (7, 0.5, 3)])
    def test_floor(self, n, fraction, expected):
        assert split_point(n, fraction) == expected

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(ConfigError):
            split_point(100, fraction)


def abstain_fit(t: int, w: int) -> tuple:
    return (0, 0, 0), (0, 0, 0)


BASE = PipelineParams(beta=0.0, gamma=0.0, tfw_min=20, tfw_max=24)


class TestTrainParams:
    def test_split_too_short_names_minimum(self):
        series = make_series([0.01, -0.01] * 50)
        params = PipelineParams(beta=0.0, gamma=0.0, tfw_min=20, tfw_max=40)
        with pytest.raises(DataError, match="at least 43"):
            train_params(series, params)

    def test_tie_takes_first_grid_point(self):
        series = make_series([0.01, -0.01] * 60)
        grid = [(0.2, 0.1), (0.2, 0.9), (0.8, 0.3)]
        result = train_params(series, BASE, grid=grid, fit_fn=abstain_fit)
        assert (result.beta, result.gamma) == (0.2, 0.1)
        assert result.train_return == 0.0
        assert result.grid == ((0.2, 0.1, 0.0), (0.2, 0.9, 0.0), (0.8, 0.3, 0.0))

    def test_singleton_grid(self):
        series = make_series([0.01, -0.01] * 60)
        result = train_params(series, BASE, grid=[(0.4, 0.0)], fit_fn=abstain_fit)
        assert (result.beta, result.gamma) == (0.4, 0.0)
        assert result.split_index == 36

    def test_empty_grid_rejected(self):
        series = make_series([0.01, -0.01] * 60)
        with pytest.raises(ConfigError):
            train_params(series, BASE, grid=[], fit_fn=abstain_fit)

    def test_default_grid_is_full_cross(self):
        series = make_series([0.01, -0.01] * 60)
        result = train_params(series, BASE, fit_fn=abstain_fit)
        assert len(result.grid) == 121
        assert result.grid[0][:2] == (0.0, 0.0)
        assert result.grid[-1][:2] == (1.0, 1.0)
        betas = [row[0] for row in result.grid]
        assert betas == sorted(betas)
        assert set(betas) == set(GRID_VALUES)

    @pytest.mark.parametrize(
        "grid, cost",
        [
            ([(0.1, 0.1), (1.5, 0.0)], 0.0),
            ([(0.1, 0.1), (0.2, math.nan)], 0.0),
            (None, math.nan),
        ],
        ids=["beta-out-of-range", "nan-gamma", "nan-cost"],
    )
    def test_rejects_bad_settings_before_any_fit(self, grid, cost):
        def refuse(t, w):
            raise AssertionError(f"fit ran for session {t}, window {w}")

        series = make_series([0.01, -0.01] * 60)
        with pytest.raises(ConfigError):
            train_params(series, BASE, grid=grid, cost_per_trade=cost, fit_fn=refuse)

    def test_winner_replays_to_same_return(self, series_b):
        grid = [(0.4, 0.0), (0.8, 0.5)]
        result = train_params(series_b, BASE, grid=grid)
        winner = replace(BASE, beta=result.beta, gamma=result.gamma)
        rerun = run_pipeline(series_b, winner, start=0, end=result.split_index)
        ledger = simulate(
            rerun.records, series_b.returns[rerun.start : result.split_index]
        )
        assert ledger.final_strategy == result.train_return


def engine_grid(series, base, points, split, cost, fit_fn):
    """Per-point reference: one engine replay and one ledger per grid point."""
    rows = []
    for beta, gamma in points:
        result = run_pipeline(series, replace(base, beta=beta, gamma=gamma), end=split, fit_fn=fit_fn)
        ledger = simulate(result.records, series.returns[result.start : split], cost)
        rows.append((beta, gamma, ledger.final_strategy))
    return tuple(rows)


A300 = SyntheticScenario("A", 300, signal_strength=1.0, ar2=-0.8, seed=3)
B200 = SyntheticScenario("B", 200, seed=7)
C120 = SyntheticScenario("C", 120, seed=100)
FULL = [(b, g) for b in GRID_VALUES for g in GRID_VALUES]
GLOBAL = {"spread_scope": "global", "normalize_sentiment": True}


def with_flat_sessions(series, every=4):
    """The series with every ``every``-th return set to exactly zero."""
    returns = tuple(0.0 if t % every == 0 else r for t, r in enumerate(series.returns))
    return plant_returns(series, returns)


# (scenario, train fraction, settings, cost, grid points, flat sessions) of the
# differentials between the array replay and the engine replay.
REPLAY_CASES = [
    pytest.param(A300, 0.3, {}, 0.0, None, False, id="A300"),
    pytest.param(B200, 0.3, {}, 0.0, None, False, id="B200"),
    pytest.param(C120, 0.5, {}, 0.0, None, False, id="C120"),
    pytest.param(C120, 0.5, GLOBAL, 0.0, None, False, id="C120-global-normalized"),
    pytest.param(B200, 0.3, {"initial_spread": -2.0}, 0.001, None, False,
                 id="B200-cost-negative-spread"),
    pytest.param(A300, 0.3, {}, 0.0005,
                 [(0.7, 0.3), (0.1, 0.9), (0.7, 0.3), (1.0, 0.0), (0.0, 1.0)], False,
                 id="A300-custom-grid"),
    pytest.param(B200, 0.4, {}, 0.0, None, True, id="B200-flat-sessions"),
    pytest.param(B200, 0.4, GLOBAL, 0.0, None, True, id="B200-flat-sessions-global"),
]


def case_series(scenario, flat):
    series = generate(scenario)
    return with_flat_sessions(series) if flat else series


class TestGridMatchesEngine:
    """``train_params`` scores every point as the per-point engine replay does, by repr."""

    @pytest.mark.parametrize("scenario, fraction, settings, cost, points, flat", REPLAY_CASES)
    def test_every_point(self, scenario, fraction, settings, cost, points, flat):
        series = case_series(scenario, flat)
        base = PipelineParams(beta=0.0, gamma=0.0, **settings)
        trained = train_params(series, base, grid=points, train_fraction=fraction,
                               cost_per_trade=cost)
        t0, split = first_session(base), trained.split_index
        table = FitTable(series, range(t0, split), base.windows, base.p_threshold,
                         normalize=base.normalize_sentiment)
        want = engine_grid(series, base, points or FULL, split, cost, table)
        assert repr(trained.grid) == repr(want)
        assert trained.scored_sessions == split - t0
        if flat:
            assert 0.0 in series.returns[t0:split]

    def test_reference_fit_fn(self):
        series = with_flat_sessions(generate(B200))
        base = PipelineParams(beta=0.0, gamma=0.0, tfw_min=20, tfw_max=24)
        points = [(0.0, 0.0), (0.5, 0.1), (1.0, 1.0), (0.2, 0.9)]

        def reference(t, w):
            return votes(fit_window(series, t, w, base.p_threshold))

        trained = train_params(series, base, grid=points, train_fraction=0.2, fit_fn=reference)
        table = FitTable(series, range(first_session(base), trained.split_index), base.windows,
                         base.p_threshold)
        want = engine_grid(series, base, points, trained.split_index, 0.0, table)
        assert repr(trained.grid) == repr(want)


class TestEvaluateMatchesEngine:
    """``evaluate`` trades what the reference ``run_pipeline`` predicts, by repr."""

    @pytest.mark.parametrize("scenario, fraction, settings, cost, points, flat", REPLAY_CASES)
    def test_records_and_ledger(self, scenario, fraction, settings, cost, points, flat):
        series = case_series(scenario, flat)
        beta, gamma = (points or [(0.2, 1.0)])[0]  # gamma 1 keeps windows' spreads apart
        params = PipelineParams(beta=beta, gamma=gamma, **settings)
        result = evaluate(series, params, fraction, cost_per_trade=cost)
        split = split_point(len(series), fraction)
        t0 = first_session(params, split)
        table = FitTable(series, range(t0, len(series)), params.windows, params.p_threshold,
                         normalize=params.normalize_sentiment)
        reference = run_pipeline(series, params, start=split, fit_fn=table)
        ledger = simulate(reference.records, series.returns[t0:], cost)
        assert result.start == reference.start == t0
        assert repr(result.records) == repr(reference.records)
        assert repr(result.ledger) == repr(ledger)
        replay = replay_grid(table.vote_counts, series.returns[t0:], [(beta, gamma)], params, cost)
        assert repr(replay.strategy.tolist()[0]) == repr(ledger.final_strategy)
        assert any(r.predicted_sign is not None for r in result.records)


class TestEvaluate:
    def test_default_span_follows_split(self, series_b):
        result = evaluate(series_b, BASE)
        assert result.start == 60
        assert [r.index for r in result.records] == list(range(60, 200))
        assert len(result.ledger.step_pnl) == 140
        total = 0.0
        for r in series_b.returns[60:]:
            total += r
        assert result.ledger.final_benchmark == total

    def test_explicit_span(self, series_b):
        result = run_pipeline(series_b, BASE, start=40, end=80)
        assert result.start == 40
        assert [r.index for r in result.records] == list(range(40, 80))

    def test_rejects_bad_cost_before_any_fit(self):
        def refuse(t, w):
            raise AssertionError(f"fit ran for session {t}, window {w}")

        series = make_series([0.01, -0.01] * 60)
        with pytest.raises(ConfigError, match="cost_per_trade"):
            evaluate(series, BASE, cost_per_trade=math.nan, fit_fn=refuse)

    def test_empty_span_rejected(self):
        # 26 sessions end exactly where the tfw_max=24 warm-up does
        series = make_series([0.01, -0.01] * 13)
        with pytest.raises(DataError, match="no sessions to evaluate"):
            evaluate(series, BASE)

    def test_no_lookahead_in_predictions(self, series_b):
        short = run_pipeline(series_b, BASE, start=40, end=80)
        longer = run_pipeline(series_b, BASE, start=40, end=120)
        assert longer.records[:40] == short.records


class TestCsvWriters:
    def test_report_round_trip(self):
        returns = [0.01, -0.02, 0.03]
        records = [rec(5, 1, 0.01), rec(6, -1, -0.02), rec(7, None, 0.03)]
        ledger = simulate(records, returns)
        buffer = io.StringIO()
        write_report_csv(ledger, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == ",".join(REPORT_HEADER)
        assert lines[1].startswith("5,long,0.01,0.01,0.01,")
        assert len(lines) == 4
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == ledger.decisions[i].index
            assert fields[1] == ledger.decisions[i].action.value
            assert float(fields[2]) == ledger.step_pnl[i]
            assert float(fields[3]) == ledger.cum_strategy[i]
            assert float(fields[4]) == ledger.cum_benchmark[i]
            assert float(fields[5]) == ledger.cum_benchmark_compounded[i]
            assert float(fields[6]) == ledger.cum_optimal[i]

    def test_training_round_trip(self):
        series = make_series([0.01, -0.01] * 60)
        result = train_params(
            series, BASE, grid=[(0.2, 0.1), (0.8, 0.3)], fit_fn=abstain_fit
        )
        buffer = io.StringIO()
        write_training_csv(result, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == ",".join(TRAINING_HEADER)
        parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert tuple(parsed) == result.grid
