"""Differential tests: the batched FitTable against the reference fit_window."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import design_rows, make_series
from sentrade import model_space
from sentrade.adaptive import PipelineParams, first_session
from sentrade.errors import DataError
from sentrade.model_space import (
    CANDIDATES,
    MIN_RESIDUAL_DF,
    P_THRESHOLD,
    FitTable,
    ModelClass,
    Variable,
    _POSITION,
    _cross_products,
    _fit_cells,
    _swept_fits,
)
from sentrade.reference import fit_window, votes
from sentrade.regression import CONDITION_LIMIT, DesignMatrix, fit_ols
from sentrade.synth import SyntheticScenario, generate

WINDOWS = range(20, 41)


def chunks(sessions, windows):
    """The (session, window) cells of the span in row-major order, as
    FitTable's chunks of per-cell session and window arrays."""
    i, j = np.divmod(np.arange(len(sessions) * len(windows)), len(windows))
    step = max(1, min(model_space._BLOCK_CELLS, model_space._BLOCK_ROWS // windows[-1]))
    for first in range(0, len(i), step):
        yield sessions.start + i[first : first + step], windows.start + j[first : first + step]


def block_outputs(series, sessions, windows, p_threshold, normalize):
    """_fit_cells's passed, predicted_next and unsure arrays over the span,
    computed in the same chunks as FitTable and shaped (sessions, windows, ...)."""
    L = design_rows(series, normalize)
    parts = zip(*(
        _fit_cells(L, series.returns, t_cell, w_cell, p_threshold)[:3]
        for t_cell, w_cell in chunks(sessions, windows)
    ))
    return tuple(
        np.concatenate(part).reshape(len(sessions), len(windows), *part[0].shape[1:])
        for part in parts
    )


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


def test_block_size_follows_window_span(monkeypatch):
    """FitTable hands _fit_cells chunks of _BLOCK_ROWS // max(windows) cells,
    at least one and at most _BLOCK_CELLS, and the rest of the span last."""
    sizes = []

    def recording(L, r, t_cell, w_cell, p_threshold):
        sizes.append(len(t_cell))
        none = np.zeros((len(t_cell), len(CANDIDATES)), dtype=bool)
        return none, np.full(none.shape, np.nan), np.zeros(len(t_cell), dtype=bool), 0, 0

    monkeypatch.setattr(model_space, "_fit_cells", recording)
    spans = [
        (PipelineParams(beta=0.4, gamma=0.0).windows, 17, 336),
        (range(3, 6), 150, 336),
        (range(20, 21), 400, 336),
        (range(3, 61), 4, 224),
        (range(3, 121), 1, 112),
        (range(1, 2001), 1, 6),
    ]
    for windows, sessions, per_chunk in spans:
        series = generate(SyntheticScenario("B", windows[-1] + 1 + sessions, seed=7))
        sizes.clear()
        FitTable(series, range(windows[-1] + 2, len(series) + 1), windows)
        cells = sessions * len(windows)
        assert sizes == [per_chunk] * (cells // per_chunk) + [cells % per_chunk], windows


@pytest.mark.parametrize(
    "series, normalize",
    [
        (generate(SyntheticScenario("B", 200, seed=7)), False),
        (generate(SyntheticScenario("C", 120, seed=100)), True),
    ],
    ids=["B200", "C120-normalized"],
)
def test_tables_do_not_depend_on_chunk_size(series, normalize, monkeypatch):
    """Chunks of one cell, of five that straddle sessions at 21 windows, and
    of 1,000, above the cap, give the default build's vote counts and
    fallback cells."""
    sessions = range(WINDOWS[-1] + 2, len(series) + 1)
    default = FitTable(series, sessions, WINDOWS, normalize=normalize)
    for per_chunk in (1, 5, 1000):
        monkeypatch.setattr(model_space, "_BLOCK_ROWS", per_chunk * WINDOWS[-1])
        monkeypatch.setattr(model_space, "_BLOCK_CELLS", per_chunk)
        table = FitTable(series, sessions, WINDOWS, normalize=normalize)
        np.testing.assert_array_equal(table.vote_counts, default.vote_counts)
        assert table.fallback_cells == default.fallback_cells


def test_wide_windows_match_reference():
    """Windows 3-60 fit 39 sessions of 58 cells in chunks of 224 cells."""
    series = generate(SyntheticScenario("B", 100, seed=7))
    assert_matches_reference(series, range(62, 101), range(3, 61))


def design_cond2(L: np.ndarray, t: int, w: int, candidate: int) -> float:
    """cond([1 | candidate's columns])^2 of one window, from the SVD."""
    columns = [0, *(_POSITION[v] for v in CANDIDATES[candidate].variables)]
    return np.linalg.cond(L[t - w : t][:, columns]) ** 2


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
    L = design_rows(series, normalize)
    for i, j, c in zip(*np.nonzero(rank_ok)):
        worst = max(worst, design_cond2(L, sessions[i], WINDOWS[j], c))
    assert 1e9 < worst <= CONDITION_LIMIT


@pytest.mark.parametrize(
    "series, normalize",
    [
        (near_collinear_series(400), False),
        (near_collinear_series(1000), True),
        (generate(SyntheticScenario("B", 200, seed=7)), False),
    ],
    ids=["raw", "shares", "B200"],
)
def test_error_bounds_hold(series, normalize):
    """Outside the fallback cells, every rank-ok candidate's |t| statistics
    and prediction from the sweep tree lie within their computed error
    bounds of fit_ols's."""
    L, r = design_rows(series, normalize), series.returns
    checked = 0
    for t_cell, w_cell in chunks(range(WINDOWS[-1] + 2, len(series) + 1), WINDOWS):
        cross, x_next = _cross_products(L, r, t_cell, w_cell)
        sure = ~_fit_cells(L, r, t_cell, w_cell, P_THRESHOLD)[2]
        models = {}
        fits = _swept_fits(cross, x_next, w_cell, lambda fit: True)
        for members, (rank_ok, *_), (t_abs, predicted, _, _, t_error, prediction_error) in fits:
            for k, cell in zip(*np.nonzero(rank_ok & sure)):
                t, w = int(t_cell[cell]), int(w_cell[cell])
                if (t, w) not in models:
                    models[t, w] = fit_window(series, t, w, normalize=normalize)
                model = models[t, w][members[k]]
                t_gap = np.abs(t_abs[k, :, cell] - np.abs(model.fit.t_stats))
                assert (t_gap <= t_error[k, :, cell]).all(), (t, w, members[k])
                prediction_gap = abs(predicted[k, cell] - model.predicted_next)
                assert prediction_gap <= prediction_error[k, cell], (t, w, members[k])
                checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "windows", [WINDOWS, range(3, 6), range(10, 15)], ids=["20-40", "3-5", "10-14"]
)
@pytest.mark.parametrize(
    "series, normalize",
    [
        (near_collinear_series(400), False),
        (near_collinear_series(1000), True),
        (generate(SyntheticScenario("B", 200, seed=7)), False),
    ],
    ids=["raw", "shares", "B200"],
)
def test_trace_screen_never_undercuts_the_exact_bounds(series, normalize, windows, monkeypatch):
    """On every chunk, each rank-ok candidate's screened |t| and prediction
    bounds are at least the exact ones, so the unsure mask that
    _fit_cells takes through the screen is the one the exact bounds give."""
    L, r = design_rows(series, normalize), series.returns
    sessions = range(windows[-1] + 2, len(series) + 1)
    spans = list(chunks(sessions, windows))
    screened = [_fit_cells(L, r, t_cell, w_cell, P_THRESHOLD)[2] for t_cell, w_cell in spans]
    checked = 0
    for t_cell, w_cell in spans:
        cross, x_next = _cross_products(L, r, t_cell, w_cell)
        screens = []

        def everywhere(fit):  # keeps each level's screened bounds, and forms the exact ones
            screens.append([bound.copy() for bound in fit[4:]])
            return True

        levels = list(_swept_fits(cross, x_next, w_cell, everywhere))
        for (_, (rank_ok, *_), fit), screen in zip(levels, screens, strict=True):
            for bound, exact in zip(screen, fit[4:]):
                holds = np.moveaxis(bound >= exact, -1, 1)[rank_ok]  # (members, cells) first
                assert holds.all()
                checked += holds.size
    assert checked > 0
    swept = model_space._swept_fits  # without the screen, every cell's exact bounds are formed
    monkeypatch.setattr(model_space, "_swept_fits",
                        lambda cross, x, w, _: swept(cross, x, w, lambda fit: True))
    for (t_cell, w_cell), unsure in zip(spans, screened):
        np.testing.assert_array_equal(unsure, _fit_cells(L, r, t_cell, w_cell, P_THRESHOLD)[2])


def flat_counts_series():
    rng = np.random.default_rng(5)
    flat = [50] * 60
    return make_series(rng.normal(0, 0.01, 60).tolist(), pos=flat, neg=flat, neu=flat)


def test_flat_counts_are_rank_deficient():
    series = flat_counts_series()
    _, rank_ok, _ = assert_matches_reference(series, range(26, 61), range(20, 25))
    sentiment = [c for c, cand in enumerate(CANDIDATES) if cand.model_class is ModelClass.SENTIMENT]
    assert not rank_ok[:, :, sentiment].any()
    assert rank_ok[:, :, 0].all()


def flat_pos_series(flat=60, seed=11):
    """Random counts, but for pos, flat at 50 over the first ``flat`` sessions."""
    rng = np.random.default_rng(seed)
    return make_series(
        rng.normal(0, 0.01, 60).tolist(),
        pos=[50] * flat + rng.integers(20, 80, 60 - flat).tolist(),
        neg=rng.integers(20, 80, 60).tolist(),
        neu=rng.integers(10, 40, 60).tolist(),
    )


def test_flat_pos_makes_its_supersets_rank_deficient():
    """A flat pos count is collinear with the intercept, so every candidate
    containing P1 is rank-deficient (its pivot on P1 is rounding noise, so
    the pivot floor settles it) and every other candidate is fitted."""
    series = flat_pos_series()
    _, rank_ok, _ = assert_matches_reference(series, range(26, 61), range(20, 25))
    has_pos = np.array([Variable.P1 in c.variables for c in CANDIDATES])
    assert not rank_ok[:, :, has_pos].any()
    assert rank_ok[:, :, ~has_pos].all()
    # The intercept's node already holds P1's pivot, which settles P1 in every
    # cell, so no node containing it is swept, P1 alone included.
    L = design_rows(series, False)
    for t_cell, w_cell in chunks(range(26, 61), range(20, 25)):
        cross, x_next = _cross_products(L, series.returns, t_cell, w_cell)
        levels = _swept_fits(cross, x_next, w_cell, lambda fit: True)
        swept = np.concatenate([members for members, _, _ in levels])
        assert not has_pos[swept].any()


def count_eigensolves(monkeypatch) -> list[int]:
    """Record how many matrices each np.linalg.eigvalsh call solves."""
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        solved.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return solved


@pytest.mark.parametrize(
    "series, sessions, windows, normalize",
    [
        (generate(SyntheticScenario("B", 200, seed=7)), range(42, 201), WINDOWS, False),
        (flat_counts_series(), range(26, 61), range(20, 25), False),
        (flat_pos_series(flat=40), range(26, 61), range(20, 25), False),
        (generate(SyntheticScenario("C", 120, seed=100)), range(42, 121), WINDOWS, True),
    ],
    ids=["B200", "flat-counts", "partly-flat-pos", "shares"],
)
def test_settled_verdicts_take_no_eigensolve(series, sessions, windows, normalize, monkeypatch):
    """Full-rank candidates clear the limit by their trace sandwich, and flat
    counts and the share triple leave a pivot floor at rounding level, so no
    rank verdict takes an eigensolve.  Where pos is flat in some windows only,
    its supersets are swept, and the floor, the least pivot on a node's path,
    still settles them once the pivots after P1's are rounding noise."""
    solved = count_eigensolves(monkeypatch)
    table = FitTable(series, sessions, windows, normalize=normalize)
    assert solved == [] and table.eigensolved == 0


def swept_verdicts(series, sessions, windows, normalize):
    """Each fitted candidate's verdict, bounds, SVD cond^2 and column count, from
    _swept_fits over FitTable's chunks: (rank_ok, eigensolved, lower, upper,
    cond2, m) rows."""
    L, r = design_rows(series, normalize), series.returns
    rows = []
    for t_cell, w_cell in chunks(sessions, windows):
        cross, x_next = _cross_products(L, r, t_cell, w_cell)
        levels = _swept_fits(cross, x_next, w_cell, lambda fit: True)
        for members, (rank_ok, solved, _, lower, upper, _), _ in levels:
            m = len(CANDIDATES[members[0]].variables) + 1
            fitted = (w_cell - m >= MIN_RESIDUAL_DF) & np.ones_like(rank_ok)
            for k, cell in zip(*np.nonzero(fitted)):
                t, w = int(t_cell[cell]), int(w_cell[cell])
                rows.append((rank_ok[k, cell], solved[k, cell], lower[k, cell], upper[k, cell],
                             design_cond2(L, t, w, members[k]), m))
    return np.array(rows, dtype=float).T


def test_only_candidates_near_the_limit_take_an_eigensolve():
    """On the near-collinear raw series, the candidates whose verdict takes an
    eigensolve are those the bounds cannot place: their cond^2 lies within a
    factor m^2 of CONDITION_LIMIT, the trace sandwich's own spread, for m
    columns."""
    series = near_collinear_series(400)
    sessions = range(WINDOWS[-1] + 2, len(series) + 1)
    _, solved, _, _, cond2, m = swept_verdicts(series, sessions, WINDOWS, False)
    eigensolved, spread = cond2[solved == 1], m[solved == 1] ** 2
    assert FitTable(series, sessions, WINDOWS).eigensolved == len(eigensolved) > 0
    assert (CONDITION_LIMIT / spread <= eigensolved).all()
    assert (eigensolved <= CONDITION_LIMIT * spread).all()


@pytest.mark.parametrize(
    "series, sessions, windows, normalize",
    [
        (near_collinear_series(400), range(42, 71), WINDOWS, False),
        (near_collinear_series(1000), range(42, 71), WINDOWS, True),
        (flat_pos_series(), range(26, 61), range(20, 25), False),
        (generate(SyntheticScenario("B", 200, seed=7)), range(42, 201), WINDOWS, False),
    ],
    ids=["raw", "shares", "flat-pos", "B200"],
)
def test_rank_bounds_hold(series, sessions, windows, normalize):
    """Every fitted candidate's lower and upper bounds on cond^2 enclose the
    SVD's cond^2 (up to its own rounding, well below 1e-6), and every
    candidate settled rank-deficient lies above CONDITION_LIMIT."""
    rank_ok, solved, lower, upper, cond2, _ = swept_verdicts(series, sessions, windows, normalize)
    assert (lower <= cond2 * (1 + 1e-6)).all()
    assert (upper >= cond2 * (1 - 1e-6)).all()
    deficient = (rank_ok == 0) & (solved == 0)
    assert (cond2[deficient] > CONDITION_LIMIT).all()
    assert (cond2[(rank_ok == 1) & (solved == 0)] < CONDITION_LIMIT).all()


def test_rank_bounds_follow_their_derivation():
    """On hand-built inputs whose eta is at least 1e-2, the lower and upper
    bounds on cond^2 from ``_rank_bounds`` equal the expressions derived above it:
    the pivot bound 1 / (m (max(f, 0) + 2 m delta)), the sandwich widened by
    (1 - 2 eta) and (1 + eta)^2, and the pivot bound alone, with no upper
    bound, where f <= 0 or m tau delta >= 1.  The cells are one where the
    pivot bound is the lower bound (f near zero), one where the sandwich is,
    and one of each untrusted kind."""
    m, w, eps = 3, 40, np.finfo(float).eps
    delta = (w + 3 + 16 * m) * eps
    tau = 0.02 / (m * delta)  # m tau delta = 0.02, so eta is about 0.0204
    cells = [  # (floor, S^-1 diagonal, scales)
        (1e-15, [1.0, 1.0, tau - 2.0], [1.0, 1.0, 1.0]),
        (1e-12, [1.0, 1.0, tau - 2.0], [1.0, 0.5, 2.0]),
        (-1e-13, [1.0, 1.0, 1e6], [1.0, 0.5, 2.0]),
        (1e-12, [1.0, 1.0, 75.0 * tau], [1.0, 0.5, 2.0]),  # m tau delta = 1.5
    ]
    expected, pivot_wins = [], []
    for floor, diagonal, scales in cells:
        growth = m * sum(diagonal) * delta
        pivot = 1.0 / (m * (max(floor, 0.0) + 2 * m * delta))
        if floor > 0 and growth < 1:
            eta = growth / (1.0 - growth)
            assert eta >= 1e-2
            gram = [s**-2 for s in scales]
            inverse = [g * s**2 for g, s in zip(diagonal, scales)]
            sandwich = max(gram) * max(inverse) * (1.0 - 2.0 * eta)
            expected.append((max(pivot, sandwich), sum(gram) * sum(inverse) * (1.0 + eta) ** 2))
            pivot_wins.append(pivot > sandwich)
        else:
            expected.append((pivot, math.inf))
    assert pivot_wins == [True, False]

    def stacked(values):  # (members = 1, ..., cells)
        return np.moveaxis(np.asarray(values, dtype=float), 0, -1)[None]

    floor, diagonal, scales = (stacked(part) for part in zip(*cells))
    with np.errstate(all="ignore"):
        lower, upper = model_space._rank_bounds(
            diagonal.sum(axis=1), diagonal, np.full(len(cells), w), scales, floor
        )
    np.testing.assert_allclose(lower[0], [low for low, _ in expected], rtol=1e-13)
    np.testing.assert_allclose(upper[0], [high for _, high in expected], rtol=1e-13)


def exact_cross_products(L, r, t_cell, w_cell):
    """Each cell's cross-product of its rows [L | r], as exact Fractions of the
    float rows, from running totals over the rows the cells span."""
    lo, hi = int((t_cell - w_cell).min()), int(t_cell.max())
    rows = np.array([[Fraction(x) for x in (*L[k], r[k])] for k in range(lo, hi)], dtype=object)
    outer = rows[:, :, None] * rows[:, None, :]
    totals = np.concatenate([np.zeros((1, *outer.shape[1:]), dtype=object), outer]).cumsum(0)
    return totals[t_cell - lo] - totals[t_cell - w_cell - lo]


def collinear_pos_neg_series(n=60, seed=2):
    """neg repeats pos but for an occasional extra message."""
    rng = np.random.default_rng(seed)
    pos = 300 + rng.poisson(30, n)
    neg = pos + (rng.random(n) < 0.1)
    return make_series(rng.normal(0, 0.01, n).tolist(), pos=pos.tolist(), neg=neg.tolist())


def huge_counts_series(n=60, seed=3):
    """Counts near 1e13, whose products round, and returns near 1e-9."""
    rng = np.random.default_rng(seed)
    pos, neg, neu = (10**13 + rng.integers(0, 10**6, n) for _ in range(3))
    return make_series(rng.normal(0, 1e-9, n).tolist(), pos.tolist(), neg.tolist(), neu.tolist())


@pytest.mark.parametrize(
    "series, sessions, windows, per_chunk, checked_from",
    [
        (generate(SyntheticScenario("B", 60, seed=7)), range(48, 61), range(3, 41), 5, 0),
        (flat_counts_series(), range(55, 61), range(3, 41), None, 0),
        (collinear_pos_neg_series(), range(55, 61), range(3, 41), None, 0),
        (huge_counts_series(), range(56, 61), range(3, 41), None, 0),
        (generate(SyntheticScenario("B", 1500, seed=7)), range(7, 1501), range(3, 6), None, 1400),
    ],
    ids=["B60-split-sessions", "flat", "collinear-pos-neg", "huge-counts", "B1500-late-sessions"],
)
def test_cross_products_keep_the_forming_bound(
    series, sessions, windows, per_chunk, checked_from, monkeypatch
):
    """Every entry of every cell's cross-product lies within (w + 3) eps
    sqrt(G_ii G_jj) of the exact one, the forming error _t_bounds and
    _condition_band assume, however late the session lies in a long span."""
    calls = []

    def recording(L, r, t_cell, w_cell):
        cross, x_next = _cross_products(L, r, t_cell, w_cell)
        calls.append((L, r, t_cell, w_cell, cross))
        return cross, x_next

    monkeypatch.setattr(model_space, "_cross_products", recording)
    if per_chunk is not None:
        monkeypatch.setattr(model_space, "_BLOCK_ROWS", per_chunk * windows[-1])
    FitTable(series, sessions, windows)
    if per_chunk is not None:
        assert any(w_cell[0] != windows.start for _, _, _, w_cell, _ in calls)  # a split session
    L, r = calls[0][:2]
    t_cell, w_cell, cross = (np.concatenate(part) for part in list(zip(*calls))[2:])
    late = t_cell >= checked_from - (sessions.start - windows[-1])
    t_cell, w_cell, cross = t_cell[late], w_cell[late], cross[late]
    assert len(t_cell) > 0
    exact = exact_cross_products(L, r, t_cell, w_cell)
    error = np.abs(np.frompyfunc(Fraction, 1, 1)(cross) - exact).astype(float)
    norms = np.sqrt(np.diagonal(exact, axis1=1, axis2=2).astype(float))
    bound = (w_cell + 3)[:, None, None] * model_space._EPS * norms[:, :, None] * norms[:, None, :]
    assert (error <= bound).all()


def test_table_build_memory_stays_bounded():
    """A B1000 build at the default windows, a four-session B406 build at
    windows 3-400, where one session alone pads more rows than a block holds,
    and B1500 builds at windows 3-5 and 20-20, whose chunks _BLOCK_CELLS
    caps, each peak under 8 MB of traced allocations, so batching cannot
    quietly regrow per-block memory."""
    builds = [
        (1000, range(WINDOWS[-1] + 2, 1001), WINDOWS),
        (406, range(403, 407), range(3, 401)),
        (1500, range(7, 1501), range(3, 6)),
        (1500, range(22, 1501), range(20, 21)),
    ]
    for n, sessions, windows in builds:
        series = generate(SyntheticScenario("B", n, seed=7))
        tracemalloc.start()
        try:
            FitTable(series, sessions, windows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, windows


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


@pytest.mark.parametrize("p_threshold", [P_THRESHOLD, 0.05])
def test_p_values_planted_at_the_threshold_fall_back(p_threshold):
    """A constructive boundary generator: returns c * pos[t-1] / max(pos)
    plus fixed noise, with c bisected until fit_window's p-value of
    candidate P1 on one cell is the threshold times 1 +- 10**-j, j = 3..9.
    The table serves fit_window's votes on every such cell, each one
    within P_BAND of the threshold falls back, and no warning is raised."""
    n, t, w = 40, 30, 20
    noise = np.random.default_rng(3).normal(0.0, 0.01, n)
    pos = np.array([40 + (i * 7) % 25 for i in range(n)])
    planted = np.zeros(n)
    planted[1:] = pos[:-1] / pos.max()
    p1 = CANDIDATES.index(model_space.Candidate((Variable.P1,)))
    # fit_window's own P1 fit: c leaves the window's pos column alone.
    rows = design_rows(make_series(noise, pos))[t - w : t]
    x = np.ascontiguousarray(rows[:, [_POSITION[Variable.P1]]])

    def p_value(c):
        return fit_ols(DesignMatrix(x, (noise + c * planted)[t - w : t])).max_p_value

    for j in range(3, 10):
        for side in (-1, 1):
            target = p_threshold * (1 + side * 10.0**-j)
            lo, hi = 0.0, 1.0  # the p-value lies above the target at lo, below it at hi
            assert p_value(lo) > target > p_value(hi)
            while lo < (mid := (lo + hi) / 2) < hi:
                lo, hi = (mid, hi) if p_value(mid) > target else (lo, mid)
            c = min((lo, hi), key=lambda c: abs(p_value(c) - target))
            series = make_series(noise + c * planted, pos)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                models = fit_window(series, t, w, p_threshold)
                table = FitTable(series, range(t, t + 1), range(w, w + 1), p_threshold)
            p = models[p1].fit.max_p_value
            assert p == p_value(c)
            assert abs(p - target) < 0.01 * abs(target - p_threshold), (j, side)
            assert models[p1].passed_filter == (side < 0)
            assert table(t, w) == votes(models), (j, side)
            if abs(p - p_threshold) < model_space.P_BAND:
                assert table.fallback_cells == ((t, w),), (j, side)
            elif j == 3:  # the table itself settles a p-value 100 bands off
                assert table.fallback_cells == (), (j, side)


def test_exact_rank_deficient_fit_below_p_band_warns_nothing():
    """With a threshold below P_BAND (an infinite |t| band), a rank-deficient
    member whose rss~ rounds to 0 gets a t error bound of -inf; the build
    raises no warning (the suite turns warnings into errors) and serves the
    reference votes.  Flat pos with four +1 steps and returns linear in the
    lagged pos make those members."""
    rng = np.random.default_rng(5)
    n = 56
    pos = np.full(n, 50)
    pos[rng.choice(n, 4, replace=False)] += 1
    neg, neu = rng.integers(0, 50, n), rng.integers(0, 50, n)
    r = np.zeros(n)
    r[1:] = 1e-4 * pos[:-1] / pos.max()
    r += rng.normal(0, 1e-12, n)
    series = make_series(r.tolist(), pos.tolist(), neg.tolist(), neu.tolist())
    assert_matches_reference(series, range(15, 56), range(8, 14), p_threshold=1e-7)


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
        passed, predicted, unsure, *counts = _fit_cells(*args)
        passed[unsure], predicted[unsure] = True, 1.0
        return passed, predicted, unsure, *counts

    monkeypatch.setattr(model_space, "_fit_cells", garbled)
    series = make_series([0.0] * 30 + [0.01, -0.02] * 5)
    table = FitTable(series, range(26, 41), range(20, 25))
    assert table.fallback_cells
    for t, w in table.fallback_cells:
        assert 26 <= t < 41 and 20 <= w < 25
        assert table(t, w) == votes(fit_window(series, t, w))


# A fresh interpreter whose import of sentrade.reference takes 0.3 s longer builds
# a table with one forced fallback cell, garbled as above, and reports it.
_SLOW_REFERENCE = """\
import json, sys, time
sys.path.insert(0, {src!r})

class SlowReference:
    def find_spec(self, name, path=None, target=None):
        if name == "sentrade.reference":
            time.sleep(0.3)
        return None

sys.meta_path.insert(0, SlowReference())
from sentrade import model_space
from sentrade.synth import SyntheticScenario, generate

fit_cells = model_space._fit_cells

def first_cell_unsure(*args):
    passed, predicted, unsure, *counts = fit_cells(*args)
    unsure[:] = False
    unsure[0] = passed[0] = True
    predicted[0] = 1.0
    return passed, predicted, unsure, *counts

model_space._fit_cells = first_cell_unsure
series = generate(SyntheticScenario("B", 60, seed=7))
loaded = "sentrade.reference" in sys.modules
began = time.perf_counter()
table = model_space.FitTable(series, range(30, 40), range(20, 25))
wall = time.perf_counter() - began
from sentrade.reference import fit_window, votes

print(json.dumps({{
    "loaded before": loaded, "wall": wall, "build": table.build_seconds,
    "fallback": table.fallback_cells, "served": table(30, 20),
    "reference": votes(fit_window(series, 30, 20)),
}}))
"""


def test_build_seconds_leave_out_the_reference_import():
    """The table loads the reference for its first fallback cell outside the
    span ``build_seconds`` times, and serves that cell the reference's counts."""
    src = os.path.dirname(os.path.dirname(model_space.__file__))
    result = subprocess.run([sys.executable, "-c", _SLOW_REFERENCE.format(src=src)],
                            capture_output=True, text=True, check=True)
    report = json.loads(result.stdout)
    assert not report["loaded before"] and report["fallback"] == [[30, 20]]
    assert report["wall"] >= 0.3 > report["build"]
    assert report["served"] == report["reference"]


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


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "shares"])
def test_table_over_every_window_builds_from_first_session(series_b, normalize):
    """first_session is the first session whose longest window has its two
    sessions of history: a table over every window builds from it and serves
    fit_window's votes there, and one session earlier fit_window refuses."""
    params = PipelineParams(normalize_sentiment=normalize)
    t0, w = first_session(params), params.tfw_max
    table = FitTable(series_b, range(t0, t0 + 3), params.windows, normalize=normalize)
    assert table(t0, w) == votes(fit_window(series_b, t0, w, normalize=normalize))
    with pytest.raises(DataError, match="two sessions of history"):
        fit_window(series_b, t0 - 1, w, normalize=normalize)


def test_table_keeps_only_vote_counts(series_b):
    table = FitTable(series_b, range(42, 50), WINDOWS)
    arrays = [name for name, value in vars(table).items() if isinstance(value, np.ndarray)]
    assert arrays == ["vote_counts"]
