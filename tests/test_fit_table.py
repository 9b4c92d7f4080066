"""Differential tests: the batched FitTable against the reference fit_window."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import make_series
from sentrade.adaptive import PipelineParams, run_pipeline
from sentrade.errors import DataError
from sentrade.model_space import (
    CANDIDATES,
    MIN_RESIDUAL_DF,
    FitTable,
    ModelClass,
    build_design,
    fit_window,
    votes,
)
from sentrade.regression import CONDITION_LIMIT
from sentrade.synth import SyntheticScenario, generate

WINDOWS = range(20, 41)


def reference_cell(series, t, w, p_threshold, normalize):
    """(rank_ok, passed, predicted sign) of every candidate from fit_window,
    and the cell's vote counts."""
    cell = []
    models = fit_window(series, t, w, p_threshold, normalize=normalize)
    for model in models:
        rank_ok = model.fit is not None and model.fit.rank_ok
        sign = int(np.sign(model.predicted_next)) if rank_ok else None
        cell.append((rank_ok, model.passed_filter, sign))
    return cell, votes(models)


def assert_matches_reference(series, sessions, windows, p_threshold=0.10, normalize=False):
    table = FitTable(series, sessions, windows, p_threshold, normalize=normalize)
    for i, t in enumerate(sessions):
        for j, w in enumerate(windows):
            got = [
                (
                    bool(table.rank_ok[i, j, c]),
                    bool(table.passed[i, j, c]),
                    int(np.sign(table.predicted_next[i, j, c])) if table.rank_ok[i, j, c] else None,
                )
                for c in range(len(CANDIDATES))
            ]
            want, want_votes = reference_cell(series, t, w, p_threshold, normalize)
            assert got == want, f"session {t}, window {w}"
            assert table(t, w) == want_votes, f"session {t}, window {w}"
            for c in range(len(CANDIDATES)):
                assert math.isnan(table.p_max[i, j, c]) != bool(table.rank_ok[i, j, c])
    return table


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
    table = assert_matches_reference(series, sessions, WINDOWS, normalize=normalize)
    worst = 0.0
    for i, j, c in zip(*np.nonzero(table.rank_ok)):
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
    table = assert_matches_reference(series, range(26, 61), range(20, 25))
    sentiment = [c for c, cand in enumerate(CANDIDATES) if cand.model_class is ModelClass.SENTIMENT]
    assert not table.rank_ok[:, :, sentiment].any()
    assert table.rank_ok[:, :, 0].all()


def test_all_zero_returns_fall_back_everywhere():
    series = make_series([0.0] * 40)
    table = assert_matches_reference(series, range(26, 41), range(20, 25))
    assert len(table.fallback_cells) == 15 * 5
    assert not table.passed.any()


def test_small_windows_skip_large_candidates():
    series = generate(SyntheticScenario("B", 60, seed=7))
    table = assert_matches_reference(series, range(10, 61), range(6, 9))
    sizes = np.array([len(c.variables) for c in CANDIDATES])
    for j, w in enumerate(range(6, 9)):
        skipped = w - sizes - 1 < MIN_RESIDUAL_DF
        assert skipped.any() and not skipped.all()
        assert not table.rank_ok[:, j, skipped].any()


def test_threshold_at_a_reference_p_value_falls_back(series_b):
    t, w = 60, 25
    models = fit_window(series_b, t, w)
    c, target = next((c, m) for c, m in enumerate(models) if m.passed_filter)
    exact = float(target.fit.max_p_value)
    table = FitTable(series_b, range(t, t + 1), range(w, w + 1), p_threshold=exact)
    assert table.fallback_cells == ((t, w),)
    assert not table.passed[0, 0, c]
    assert table.p_max[0, 0, c] == exact


def test_fallback_cells_are_exposed_and_served():
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
    assert sum(n_models for n_models, _, _ in served) == table.passed[45 - 42, 30 - 20].sum() > 0
    with pytest.raises(DataError):
        table(50, 30)


def test_non_finite_returns_rejected():
    returns = [0.01, -0.01] * 30
    returns[33] = math.inf
    series = make_series(returns)
    with pytest.raises(DataError, match="finite"):
        FitTable(series, range(30, 61), range(20, 25))
    with pytest.raises(DataError, match="finite"):
        run_pipeline(series, PipelineParams(beta=0.4, gamma=0.0, tfw_min=20, tfw_max=24))


def test_history_before_first_window_required(series_b):
    with pytest.raises(DataError, match="history"):
        FitTable(series_b, range(41, 50), WINDOWS)
