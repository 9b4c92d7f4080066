"""Differential tests: the batched FitTable against the reference fit_window."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import make_series
from sentrade import model_space
from sentrade.adaptive import PipelineParams
from sentrade.errors import DataError
from sentrade.model_space import (
    CANDIDATES,
    MIN_RESIDUAL_DF,
    FitTable,
    ModelClass,
    _block_sessions,
    _fit_cells,
    _regressors,
    build_design,
    fit_window,
    votes,
)
from sentrade.regression import CONDITION_LIMIT
from sentrade.synth import SyntheticScenario, generate

WINDOWS = range(20, 41)


def block_outputs(series, sessions, windows, p_threshold, normalize):
    """_fit_cells's passed, predicted_next and unsure arrays over the span,
    computed in the same session blocks as FitTable."""
    L = _regressors(series, normalize)
    ts, ws = np.asarray(sessions), np.asarray(windows)
    step = _block_sessions(windows)
    blocks = [
        _fit_cells(L, series.returns_array, ts[first : first + step], ws, p_threshold)
        for first in range(0, len(ts), step)
    ]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def assert_matches_reference(series, sessions, windows, p_threshold=0.10, normalize=False):
    """Check the table and its block verdicts against fit_window on every cell.

    Outside the fallback cells, each candidate's rank verdict, filter
    verdict and predicted sign from ``_fit_cells`` must equal fit_window's;
    on every cell the table must serve ``votes`` of fit_window's models.
    Returns the table and fit_window's (sessions, windows, candidates)
    rank_ok and passed arrays.
    """
    table = FitTable(series, sessions, windows, p_threshold, normalize=normalize)
    passed, predicted, unsure = block_outputs(series, sessions, windows, p_threshold, normalize)
    assert table.fallback_cells == tuple(
        (sessions[i], windows[j]) for i, j in zip(*np.nonzero(unsure))
    )
    shape = (len(sessions), len(windows), len(CANDIDATES))
    rank_ok, reference_passed = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    for i, t in enumerate(sessions):
        for j, w in enumerate(windows):
            models = fit_window(series, t, w, p_threshold, normalize=normalize)
            want = []
            for c, model in enumerate(models):
                rank_ok[i, j, c] = model.fit is not None and model.fit.rank_ok
                reference_passed[i, j, c] = model.passed_filter
                sign = int(np.sign(model.predicted_next)) if rank_ok[i, j, c] else None
                want.append((bool(rank_ok[i, j, c]), model.passed_filter, sign))
            if not unsure[i, j]:
                got = [
                    (not math.isnan(p), bool(ok), None if math.isnan(p) else int(np.sign(p)))
                    for ok, p in zip(passed[i, j], predicted[i, j])
                ]
                assert got == want, f"session {t}, window {w}"
            assert table(t, w) == votes(models), f"session {t}, window {w}"
    return table, rank_ok, reference_passed


@pytest.mark.parametrize(
    "scenario, normalize",
    [
        (SyntheticScenario("A", 300, signal_strength=1.0, ar2=-0.8, seed=3), False),
        (SyntheticScenario("B", 200, seed=7), False),
        (SyntheticScenario("C", 120, seed=100), False),
        (SyntheticScenario("C", 120, seed=100), True),
    ],
    ids=["A300", "B200", "C120", "C120-normalized"],
)
def test_every_cell_matches_reference(scenario, normalize):
    series = generate(scenario)
    sessions = range(WINDOWS[-1] + 2, len(series) + 1)
    assert_matches_reference(series, sessions, WINDOWS, normalize=normalize)


def test_block_size_follows_window_span():
    assert _block_sessions(PipelineParams(beta=0.4, gamma=0.0).windows) == 64
    assert _block_sessions(range(3, 61)) == 15
    assert _block_sessions(range(3, 121)) == 3
    assert _block_sessions(range(1, 2001)) == 1


def test_wide_windows_match_reference():
    """Windows 3-60 split 39 sessions into blocks of 15, 15 and 9."""
    series = generate(SyntheticScenario("B", 100, seed=7))
    assert_matches_reference(series, range(62, 101), range(3, 61))


def near_collinear_series(base, n=70, seed=0):
    """Counts where neu repeats pos but for an occasional extra message.

    Around a large ``base`` the counts are also nearly proportional to the
    intercept, so many fits sit just inside the condition limit.
    """
    rng = np.random.default_rng(seed)
    pos = base + rng.poisson(30, n)
    neu = pos + (rng.random(n) < 0.1)
    neg = base + rng.poisson(30, n)
    returns = 2e-5 * (pos - base - 30) + rng.normal(0, 0.01, n)
    return make_series(returns.tolist(), pos=pos.tolist(), neg=neg.tolist(), neu=neu.tolist())


@pytest.mark.parametrize("base, normalize", [(400, False), (1000, True)], ids=["raw", "shares"])
def test_near_collinear_counts_match_reference(base, normalize):
    series = near_collinear_series(base)
    sessions = range(WINDOWS[-1] + 2, len(series) + 1)
    _, rank_ok, _ = assert_matches_reference(series, sessions, WINDOWS, normalize=normalize)
    worst = 0.0
    for i, j, c in zip(*np.nonzero(rank_ok)):
        design, _ = build_design(
            series, CANDIDATES[c].variables, sessions[i], WINDOWS[j], normalize
        )
        A = np.column_stack([np.ones(design.n), design.X])
        worst = max(worst, np.linalg.cond(A) ** 2)
    assert 1e9 < worst <= CONDITION_LIMIT


def test_flat_counts_are_rank_deficient():
    rng = np.random.default_rng(5)
    flat = [50] * 60
    series = make_series(rng.normal(0, 0.01, 60).tolist(), pos=flat, neg=flat, neu=flat)
    _, rank_ok, _ = assert_matches_reference(series, range(26, 61), range(20, 25))
    sentiment = [c for c, cand in enumerate(CANDIDATES) if cand.model_class is ModelClass.SENTIMENT]
    assert not rank_ok[:, :, sentiment].any()
    assert rank_ok[:, :, 0].all()


def test_all_zero_returns_fall_back_everywhere():
    series = make_series([0.0] * 40)
    table, _, passed = assert_matches_reference(series, range(26, 41), range(20, 25))
    assert len(table.fallback_cells) == 15 * 5
    assert not passed.any()
    assert not table.vote_counts.any()


def test_small_windows_skip_large_candidates():
    series = generate(SyntheticScenario("B", 60, seed=7))
    _, rank_ok, _ = assert_matches_reference(series, range(10, 61), range(6, 9))
    sizes = np.array([len(c.variables) for c in CANDIDATES])
    for j, w in enumerate(range(6, 9)):
        skipped = w - sizes - 1 < MIN_RESIDUAL_DF
        assert skipped.any() and not skipped.all()
        assert not rank_ok[:, j, skipped].any()


def test_threshold_at_a_reference_p_value_falls_back(series_b):
    t, w = 60, 25
    models = fit_window(series_b, t, w)
    c, target = next((c, m) for c, m in enumerate(models) if m.passed_filter)
    exact = float(target.fit.max_p_value)
    table = FitTable(series_b, range(t, t + 1), range(w, w + 1), p_threshold=exact)
    assert table.fallback_cells == ((t, w),)
    at_threshold = fit_window(series_b, t, w, p_threshold=exact)
    assert not at_threshold[c].passed_filter
    assert table(t, w) == votes(at_threshold)
    # Below P_BAND the band of |t| near the threshold reaches infinity, so a
    # candidate passing with a p-value far below the threshold still falls back.
    tiny = model_space.P_BAND / 2
    assert any(m.passed_filter and m.fit.max_p_value < tiny for m in models)
    table = FitTable(series_b, range(t, t + 1), range(w, w + 1), p_threshold=tiny)
    assert table.fallback_cells == ((t, w),)
    assert table(t, w) == votes(fit_window(series_b, t, w, p_threshold=tiny))


def test_cells_are_fitted_without_p_values(series_b, monkeypatch):
    """The table decides the filter on t statistics alone."""
    def refuse(*args):
        raise AssertionError("the table computed a p-value")

    monkeypatch.setattr("sentrade.regression.two_sided_t_pvalue", refuse)
    monkeypatch.setattr("sentrade.model_space.two_sided_t_pvalue", refuse, raising=False)
    passed, predicted, _ = block_outputs(series_b, range(42, 200), WINDOWS, 0.10, False)
    assert passed.any() and np.isfinite(predicted[passed]).all()


def test_fallback_cells_are_exposed_and_served(monkeypatch):
    def garbled(*args):
        """_fit_cells with every candidate of an unsure cell passing and voting up."""
        passed, predicted, unsure = _fit_cells(*args)
        passed[unsure], predicted[unsure] = True, 1.0
        return passed, predicted, unsure

    monkeypatch.setattr(model_space, "_fit_cells", garbled)
    series = make_series([0.0] * 30 + [0.01, -0.02] * 5)
    table = FitTable(series, range(26, 41), range(20, 25))
    assert table.fallback_cells
    for t, w in table.fallback_cells:
        assert 26 <= t < 41 and 20 <= w < 25
        assert table(t, w) == votes(fit_window(series, t, w))


def test_call_serves_vote_counts(series_b):
    table = FitTable(series_b, range(42, 50), WINDOWS)
    served = table(45, 30)
    assert served == tuple(map(tuple, table.vote_counts[45 - 42, 30 - 20].tolist()))
    assert all(type(count) is int for counts in served for count in counts)
    passed = sum(model.passed_filter for model in fit_window(series_b, 45, 30))
    assert sum(n_models for n_models, _, _ in served) == passed > 0
    with pytest.raises(DataError):
        table(50, 30)


def test_history_before_first_window_required(series_b):
    with pytest.raises(DataError, match="history"):
        FitTable(series_b, range(41, 50), WINDOWS)


def test_table_keeps_only_vote_counts(series_b):
    table = FitTable(series_b, range(42, 50), WINDOWS)
    arrays = [name for name, value in vars(table).items() if isinstance(value, np.ndarray)]
    assert arrays == ["vote_counts"]
