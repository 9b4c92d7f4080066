"""Candidate model enumeration and per-window fitting.

The explanatory universe holds five lagged variables: the one- and
two-session-lagged returns plus the one-session-lagged positive, negative,
and neutral sentiment counts.  Candidates are every non-empty subset that
contains at least one sentiment variable, plus the single financial pair
made of both lagged returns.  A candidate survives a window only when every
one of its regressors is individually significant below the p threshold.

``fit_window`` fits one (session, window) cell through the SVD reference
``fit_ols``.  ``FitTable`` fits every cell of a span in one batched pass
over cross-product matrices, hands the few cells it cannot decide with
certainty back to ``fit_window``, and keeps only each cell's per-class
vote counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.special import stdtrit

from .errors import DataError
from .regression import CONDITION_LIMIT, DesignMatrix, FitResult, fit_ols
from .sessions import SessionSeries

P_THRESHOLD = 0.10
MIN_RESIDUAL_DF = 3


class Variable(Enum):
    R1 = "r_lag1"
    R2 = "r_lag2"
    P1 = "pos_lag1"
    N1 = "neg_lag1"
    Z1 = "neu_lag1"

    @property
    def is_sentiment(self) -> bool:
        return self in (Variable.P1, Variable.N1, Variable.Z1)


class ModelClass(str, Enum):
    FINANCIAL = "financial"
    SENTIMENT = "sentiment"


@dataclass(frozen=True)
class Candidate:
    variables: tuple[Variable, ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("candidate needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("candidate variables must be distinct")

    @cached_property
    def model_class(self) -> ModelClass:
        if any(v.is_sentiment for v in self.variables):
            return ModelClass.SENTIMENT
        return ModelClass.FINANCIAL

    @property
    def label(self) -> str:
        return "+".join(v.name for v in self.variables)


def enumerate_candidates() -> tuple[Candidate, ...]:
    """All 29 candidate models, the financial pair first.

    Subsets are ordered by their bitmask over the variable declaration
    order, so the sequence is deterministic.
    """
    universe = tuple(Variable)
    financial = []
    sentiment = []
    for mask in range(1, 1 << len(universe)):
        variables = tuple(v for i, v in enumerate(universe) if mask >> i & 1)
        candidate = Candidate(variables)
        if candidate.model_class is ModelClass.SENTIMENT:
            sentiment.append(candidate)
        elif set(variables) == {Variable.R1, Variable.R2}:
            financial.append(candidate)
    return tuple(financial + sentiment)


CANDIDATES = enumerate_candidates()
_SENTIMENT = np.array([c.model_class is ModelClass.SENTIMENT for c in CANDIDATES])


@dataclass(frozen=True)
class FittedModel:
    """One candidate's outcome on one window."""

    candidate: Candidate
    fit: FitResult | None
    predicted_next: float | None
    passed_filter: bool


def _regressors(series: SessionSeries, normalize: bool) -> np.ndarray:
    """The series' [1 | R1 R2 P1 N1 Z1] rows, with count shares if ``normalize``."""
    return series.lagged_share_regressors if normalize else series.lagged_regressors


# Column of each variable in a row of _regressors (column 0 is the intercept).
_POSITION = {v: 1 + i for i, v in enumerate(Variable)}


def _window(
    series: SessionSeries, t: int, w: int, normalize: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The [1 | R1 R2 P1 N1 Z1] rows and returns of sessions t-w..t-1, and
    the row of lagged values aligned with session t itself."""
    n = len(series)
    if not 0 < w:
        raise DataError(f"window length must be positive, got {w}")
    if t > n:
        raise DataError(f"window end {t} beyond series length {n}")
    if t - w < 2:
        raise DataError(f"window [{t - w}, {t}) needs two sessions of history before it")
    L = _regressors(series, normalize)
    return L[t - w : t], series.returns_array[t - w : t], L[t]


def _design(
    rows: np.ndarray, y: np.ndarray, next_row: np.ndarray, variables: tuple[Variable, ...]
) -> tuple[DesignMatrix, np.ndarray]:
    columns = [_POSITION[v] for v in variables]
    # fit_ols's SVD rounds differently on a column-major copy.
    return DesignMatrix(np.ascontiguousarray(rows[:, columns]), y), next_row[columns]


def build_design(
    series: SessionSeries,
    variables: tuple[Variable, ...],
    t: int,
    w: int,
    normalize: bool = False,
) -> tuple[DesignMatrix, np.ndarray]:
    """Design for regressing returns t-w..t-1 on lagged variables.

    Also returns the prediction row of lagged values aligned with session t
    itself; t == len(series) is allowed, producing a true out-of-sample row.
    """
    return _design(*_window(series, t, w, normalize), variables)


def fit_window(
    series: SessionSeries,
    t: int,
    w: int,
    p_threshold: float = P_THRESHOLD,
    *,
    normalize: bool = False,
) -> list[FittedModel]:
    """Fit every candidate on the window ending just before session t.

    Candidates whose residual degrees of freedom would fall below
    ``MIN_RESIDUAL_DF``, whose window is rank-deficient, or with any
    regressor p-value at or above the threshold fail the filter; the fit
    and its prediction are still reported whenever the solve succeeded.
    The window is sliced once, when the first candidate is fitted.
    """
    results = []
    window = None
    for candidate in CANDIDATES:
        k = len(candidate.variables)
        if w - k - 1 < MIN_RESIDUAL_DF:
            results.append(FittedModel(candidate, None, None, False))
            continue
        if window is None:
            window = _window(series, t, w, normalize)
        design, prediction_row = _design(*window, candidate.variables)
        fit = fit_ols(design)
        if not fit.rank_ok:
            results.append(FittedModel(candidate, fit, None, False))
            continue
        predicted = fit.predict(prediction_row)
        passed = bool(np.all(fit.p_values < p_threshold))
        results.append(FittedModel(candidate, fit, predicted, passed))
    return results


Votes = tuple[tuple[int, int, int], tuple[int, int, int]]
"""(passed models, up votes, down votes) of the financial, then the sentiment class."""


def votes(models: list[FittedModel]) -> Votes:
    """The per-class vote counts an engine reads from ``fit_window``'s models.

    Only models that passed the filter count.  A prediction above zero
    votes up, one below zero votes down, and an exact zero votes neither way.
    """
    counts = []
    for model_class in (ModelClass.FINANCIAL, ModelClass.SENTIMENT):
        predictions = [
            m.predicted_next
            for m in models
            if m.passed_filter and m.candidate.model_class is model_class
        ]
        up, down = sum(p > 0 for p in predictions), sum(p < 0 for p in predictions)
        counts.append((len(predictions), up, down))
    return counts[0], counts[1]


# Cells whose outcome the batched arithmetic cannot settle go to fit_window:
# any |t| whose p-value lies within P_BAND of the threshold, or a prediction
# within SIGN_BAND of zero relative to the sum of its terms' magnitudes.
# These floors cover fit_window's rounding of the p-value and of the
# prediction's sum; _error_bounds widens them by the fit's own conditioning.
P_BAND = 1e-6
SIGN_BAND = 1e-6
# A fit whose residual sum of squares is this small relative to y'y is exact
# up to rounding, so its standard errors (zero in fit_ols's special case)
# are rounding noise in either path.
EXACT_FIT_BAND = 1e-8
# Padded design rows per batch.  A block of sessions pads sessions x windows
# x max(windows) rows, so its size follows the window span: at least one
# session, and 16 at the default 21 windows of up to 40.
_BLOCK_ROWS = 16 * 21 * 40
_EPS = float(np.finfo(float).eps)


def _block_sessions(windows: range) -> int:
    return max(1, _BLOCK_ROWS // (len(windows) * windows[-1]))


def _condition_band(w: np.ndarray, m: int) -> np.ndarray:
    """Relative error bound on cond(A'A) computed from the Gram matrix.

    Forming A'A from w rows of m columns perturbs it by at most
    w * m * eps * lambda_max in the 2-norm, and the symmetric eigensolver
    adds a few m * eps * lambda_max more, so lambda_min, and with it
    cond^2 = lambda_max / lambda_min, is off by a relative
    (w + 10) * m * eps * cond^2 at most.  Doubled, and evaluated at
    CONDITION_LIMIT (about 1.3e-3 for w = 40, m = 6); fit_ols's SVD is
    accurate there to about eps * cond, which is negligible.
    """
    return 2.0 * (w + 10) * m * _EPS * CONDITION_LIMIT


# Interlacing settles most rank verdicts without a candidate's own
# eigensolve (Golub & Van Loan, Matrix Computations, Thm 8.1.7).  A
# candidate's Gram matrix is a principal submatrix of the Gram of every
# candidate containing it (for the five-variable one, the cell's full 6x6
# Gram), so its eigenvalues lie within theirs and its cond^2 is at most
# theirs.  Write k for the true cond^2 of a Gram matrix, k^ for eigvalsh's
# value, L for CONDITION_LIMIT, and b for _condition_band(w, 6), which
# bounds every candidate's own band b_c.  As above, each computed
# eigenvalue is within (b / 2L) lambda_max of the true one, so k^ and k
# agree to within a relative (b / 2)(k / L) plus rounding.  The two rules
# use a margin of 4b, and the steps below hold while b <= 0.1, that is for
# windows up to 3,700 rows (b is 1.3e-3 at w = 40); _rank_verdicts applies
# neither rule to longer windows.
# - Rank-ok.  If a candidate's k^ < L (1 - 4b), its k < L (1 - 3b), so every
#   candidate it contains has k < L (1 - 3b), and its own k^ would be below
#   L (1 - 2b) <= L (1 - b_c): rank-ok, and outside its band.
# - Rank-deficient.  If a candidate's k^ > L (1 + 4b), its k > L (1 + 3b),
#   since a smaller k computes to below L (1 + 4b).  Every candidate
#   containing it then has k > L (1 + 3b), and its own k^ would exceed
#   L (1 + 2b) >= L (1 + b_c): rank-deficient, and outside its band.  An
#   exactly singular computed Gram (lowest eigenvalue <= 0, so k^ = inf) is
#   covered too: its true lowest eigenvalue is at most (b / 2L) lambda_max,
#   so k >= 2L / b = 1 / ((w + 10) * 6 * eps), above 1e10.
# Either way the verdict is the one the candidate's own eigensolve gives.


class FitTable:
    """The per-class vote counts of each (session, window) of a span.

    ``vote_counts``, shaped (sessions, windows, 2, 3), holds what ``votes``
    makes of each cell.  Calling the table with (t, w) returns that cell's
    counts as Python ints, so the table serves as a run's fit function.

    The cells are fitted in batched blocks of sessions (see ``_fit_cells``),
    one pass per candidate size with rank verdicts settled by interlacing
    where it can, and each block is folded into counts at once, so no
    per-candidate array outlives its block.  A cell with any candidate
    within the error bound of a decision takes its counts from
    ``fit_window`` instead: cond^2 near CONDITION_LIMIT, a t statistic near
    the threshold, a prediction near zero, or a near-exact fit.
    ``fallback_cells`` lists those (session, window) pairs;
    ``build_seconds`` is the wall time of the whole build.
    """

    def __init__(
        self,
        series: SessionSeries,
        sessions: range,
        windows: range,
        p_threshold: float = P_THRESHOLD,
        *,
        normalize: bool = False,
    ) -> None:
        if sessions.step != 1 or windows.step != 1 or not windows or windows.start < 1:
            raise DataError(f"need contiguous sessions and windows of positive length, got "
                            f"{sessions} and {windows}")
        if sessions and sessions[-1] > len(series):
            raise DataError(f"window end {sessions[-1]} beyond series length {len(series)}")
        if sessions and sessions.start - windows[-1] < 2:
            raise DataError(
                f"window [{sessions.start - windows[-1]}, {sessions.start}) needs two "
                "sessions of history before it"
            )
        began = time.perf_counter()
        self.sessions = sessions
        self.windows = windows
        L = _regressors(series, normalize)
        ts, ws = np.asarray(sessions), np.asarray(windows)
        self.vote_counts = np.zeros((len(ts), len(ws), 2, 3), dtype=int)
        unsure = np.zeros((len(ts), len(ws)), dtype=bool)
        step = _block_sessions(windows)
        for first in range(0, len(ts), step):
            block = slice(first, first + step)
            passed, predicted, unsure[block] = _fit_cells(
                L, series.returns_array, ts[block], ws, p_threshold
            )
            up, down = passed & (predicted > 0), passed & (predicted < 0)
            tallies = np.stack([passed, up, down], axis=-1)
            self.vote_counts[block] = np.stack(
                [tallies[:, :, ~_SENTIMENT].sum(axis=2), tallies[:, :, _SENTIMENT].sum(axis=2)],
                axis=2,
            )
        self.fallback_cells = tuple((int(ts[i]), int(ws[j])) for i, j in zip(*np.nonzero(unsure)))
        for t, w in self.fallback_cells:
            self.vote_counts[t - sessions.start, w - windows.start] = votes(
                fit_window(series, t, w, p_threshold, normalize=normalize)
            )
        self.build_seconds = time.perf_counter() - began

    def __call__(self, t: int, w: int) -> Votes:
        i, j = t - self.sessions.start, w - self.windows.start
        if not (0 <= i < len(self.sessions) and 0 <= j < len(self.windows)):
            raise DataError(f"session {t}, window {w} lies outside the fitted table")
        financial, sentiment = self.vote_counts[i, j].tolist()
        return tuple(financial), tuple(sentiment)


def _size_passes() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Each candidate size's members (positions in CANDIDATES) and the
    columns [0 | variables] of their designs, smallest size first."""
    columns = [[0] + [_POSITION[v] for v in c.variables] for c in CANDIDATES]
    passes = []
    for m in sorted({len(cols) for cols in columns}):
        members = [c for c, cols in enumerate(columns) if len(cols) == m]
        passes.append((np.array(members), np.array([columns[c] for c in members])))
    return tuple(passes)


_SIZE_PASSES = _size_passes()
# The order in which _rank_verdicts eigensolves sizes: all five variables
# first, which clears every candidate of a well-conditioned cell; then one,
# where a flat count shows up and settles every candidate containing it;
# then four, which clear their subsets where only a combination of counts
# is singular (shares that sum to one); then the rest.
_SOLVE_ORDER = tuple(_SIZE_PASSES[size - 1] for size in (5, 1, 4, 2, 3))
# _CONTAINS[s, c]: candidate s's variables are a proper subset of candidate c's.
_VARIABLE_SETS = [frozenset(c.variables) for c in CANDIDATES]
_CONTAINS = np.array([[s < c for c in _VARIABLE_SETS] for s in _VARIABLE_SETS])


def _sub_grams(gram: np.ndarray, cells: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The principal submatrix of gram[cells[i]] on columns[i], for each i."""
    k = gram.shape[-1]
    flat = (cells[:, None, None] * k + columns[:, :, None]) * k + columns[:, None, :]
    return gram.reshape(-1)[flat]


def _rank_verdicts(gram: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each (cell, candidate)'s rank verdict from the cells' full Gram
    matrices and window lengths, and the mask of cells where a verdict lies
    within its band of CONDITION_LIMIT.

    A candidate whose window leaves fewer than MIN_RESIDUAL_DF residual
    degrees of freedom is not fitted and gets no verdict.  Interlacing (see
    the note after ``_condition_band``) settles a candidate contained in one
    whose computed cond^2 is below CONDITION_LIMIT (1 - margin) as rank-ok,
    and one containing a candidate above CONDITION_LIMIT (1 + margin) as
    rank-deficient; every other candidate is eigensolved, sizes in
    _SOLVE_ORDER.
    """
    shape = (len(gram), len(CANDIDATES))
    margin = 4.0 * _condition_band(w, gram.shape[-1])
    margin[margin > 0.4] = np.inf  # the rules need b <= 0.1
    rank_ok, clear, singular = np.zeros(shape, bool), np.zeros(shape, bool), np.zeros(shape, bool)
    unsure = np.zeros(len(gram), dtype=bool)
    for members, columns in _SOLVE_ORDER:
        m = columns.shape[1]
        fitted = (w - m >= MIN_RESIDUAL_DF)[:, None]
        inside_clear = clear @ _CONTAINS[members].T
        rank_ok[:, members] = fitted & inside_clear
        cells, c = np.nonzero(fitted & ~inside_clear & ~(singular @ _CONTAINS[:, members]))
        eigenvalues = np.linalg.eigvalsh(_sub_grams(gram, cells, columns[c]))
        low, high = eigenvalues[:, 0], eigenvalues[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            cond2 = np.where(low > 0, high / low, np.inf)
        band = _condition_band(w[cells], m)
        unsure[cells[np.abs(cond2 - CONDITION_LIMIT) <= band * CONDITION_LIMIT]] = True
        rank_ok[cells, members[c]] = cond2 <= CONDITION_LIMIT
        clear[cells, members[c]] = cond2 < CONDITION_LIMIT * (1.0 - margin[cells])
        singular[cells, members[c]] = cond2 > CONDITION_LIMIT * (1.0 + margin[cells])
    return rank_ok, unsure


def _fit_cells(
    L: np.ndarray,
    r: np.ndarray,
    ts: np.ndarray,
    ws: np.ndarray,
    p_threshold: float,
) -> tuple[np.ndarray, ...]:
    """Fit all candidates on every (session ts[i], window ws[j]) cell.

    Returns the (sessions, windows, candidates) filter verdicts and
    predictions, NaN wherever the fit is not rank-ok, and the (sessions,
    windows) mask of cells to recompute.  Each window's rows
    [1 | R1 R2 P1 N1 Z1] and y are copied into zero-padded arrays; padding
    rows add nothing to a cross-product or a residual.

    The rank verdicts come from ``_rank_verdicts``: the eigenvalue
    condition number of each candidate's sub-Gram (cond(A'A) = cond(A)^2),
    settled by interlacing where it can be.  Candidates are then fitted one
    size at a time, each pass over all of its rank-ok (cell, candidate)
    pairs: coefficients and standard errors from the inverse of the pair's
    Jacobi-scaled sub-Gram, residuals from the cell's own padded rows, and
    the filter verdict from comparing each |t| with the critical value of
    its df.
    """
    n_t, n_w, w_max = len(ts), len(ws), int(ws.max())
    offsets = np.arange(w_max)
    rows = ts[:, None, None] - ws[None, :, None] + offsets  # (session, window, row)
    valid = np.broadcast_to(offsets < ws[:, None], rows.shape)
    rows = np.where(valid, rows, 2)
    A = np.where(valid[..., None], L[rows], 0.0).reshape(n_t * n_w, w_max, L.shape[1])
    y = np.where(valid, r[rows], 0.0).reshape(n_t * n_w, w_max)
    x_next = np.repeat(L[ts], n_w, axis=0)
    w_cell = np.tile(ws, n_t)
    gram = np.matmul(A.transpose(0, 2, 1), A)
    xty = np.einsum("cni,cn->ci", A, y)
    yty = np.einsum("cn,cn->c", y, y)
    # |t| beyond which a coefficient's p-value is below the threshold, and the
    # |t| span of p-values within P_BAND of it (to inf below P_BAND), by df.
    all_df = np.arange(1, w_max + 1)
    t_critical = stdtrit(all_df, 1.0 - p_threshold / 2.0)
    t_low = stdtrit(all_df, 1.0 - (p_threshold + P_BAND) / 2.0)
    t_high = stdtrit(all_df, min(1.0, 1.0 - (p_threshold - P_BAND) / 2.0))
    n_c = len(CANDIDATES)
    passed = np.zeros((n_t * n_w, n_c), dtype=bool)
    predicted_next = np.full((n_t * n_w, n_c), np.nan)
    rank_ok, unsure = _rank_verdicts(gram, w_cell)
    for members, columns in _SIZE_PASSES:
        m = columns.shape[1]
        # Candidate-major, so that each candidate's cells form one run.
        c, cells = np.nonzero(rank_ok[:, members].T)
        if not cells.size:
            continue
        cols = columns[c]
        G = _sub_grams(gram, cells, cols)
        # Jacobi scaling keeps the inverse accurate when column scales differ.
        d = 1.0 / np.sqrt(np.diagonal(G, axis1=1, axis2=2))
        scale = d[:, :, None] * d[:, None, :]
        S_inv = np.linalg.inv(G * scale)
        G_inv = S_inv * scale
        beta = np.einsum("cij,cj->ci", G_inv, xty[cells[:, None], cols])
        # Residuals candidate by candidate, over its rank-ok cells only, with
        # zero coefficients on the columns outside the fit.
        padded_beta = np.zeros((cells.size, gram.shape[-1], 1))
        padded_beta[np.arange(cells.size)[:, None], cols, 0] = beta
        rss = np.empty(cells.size)
        edges = np.searchsorted(c, np.arange(len(members) + 1))
        for run in map(slice, edges[:-1], edges[1:]):
            residuals = y[cells[run]] - np.matmul(A[cells[run]], padded_beta[run])[:, :, 0]
            rss[run] = np.einsum("cn,cn->c", residuals, residuals)
        df = w_cell[cells] - m
        variances = (rss / df)[:, None] * np.diagonal(G_inv, axis1=1, axis2=2)[:, 1:]
        std_errors = np.sqrt(np.maximum(variances, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_abs = np.abs(beta[:, 1:]) / std_errors
        x_row = x_next[cells[:, None], cols]
        terms = x_row * beta
        predicted = terms.sum(axis=1)
        t_error, prediction_error = _error_bounds(
            d, S_inv, beta, t_abs, x_row, rss, yty[cells], w_cell[cells]
        )
        doubtful = (
            ((t_low[df - 1, None] - t_error <= t_abs) & (t_abs <= t_high[df - 1, None] + t_error))
            .any(axis=1)
            | (np.abs(predicted) <= SIGN_BAND * np.abs(terms).sum(axis=1) + prediction_error)
            | (rss <= EXACT_FIT_BAND * yty[cells])
        )
        unsure[cells[doubtful]] = True
        passed[cells, members[c]] = (t_abs > t_critical[df - 1, None]).all(axis=1)
        predicted_next[cells, members[c]] = predicted
    return (
        passed.reshape(n_t, n_w, n_c),
        predicted_next.reshape(n_t, n_w, n_c),
        unsure.reshape(n_t, n_w),
    )


def _error_bounds(
    d: np.ndarray,
    S_inv: np.ndarray,
    beta: np.ndarray,
    t_abs: np.ndarray,
    x_next: np.ndarray,
    rss: np.ndarray,
    yty: np.ndarray,
    w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First-order bounds on how far the table's |t| statistics and
    prediction can lie from fit_window's, for one candidate's cells.

    Work in the Jacobi-scaled coordinates, where the design A~ = A D has
    unit columns (D = diag(d)), beta~ = beta / d and S = A~'A~.  The table
    forms S and A~'y from w rows of m columns, which perturbs them by at
    most g * ||S|| and g * sqrt(m) * ||y||, with g = (w + 10) m eps also
    covering the solve.  fit_ols's SVD solves a problem whose A is perturbed
    by g * ||A|| in the 2-norm; scaled, that is up to rho = max d / min d
    times larger.  Both paths thus solve normal equations S beta~ = A~'y
    perturbed by at most e = 3 g rho relative, with ||S|| <= m and
    ||S^-1|| <= tau = trace(S^-1), so the two solutions differ by S^-1 v
    for some v with
        ||v|| <= R = e (m ||beta~|| + sqrt(m) ||y||) / (1 - m tau e).
    Hence coefficient i moves by at most ||S^-1 e_i|| R and the prediction
    x'beta = (x D)'beta~ by at most ||S^-1 D x|| R.  A t statistic
    beta~_i / (s sqrt(S^-1_ii)) moves by at most ||S^-1 e_i|| R over its
    standard error, plus |t| times the relative errors of S^-1_ii
    (m e ||S^-1 e_i||^2 / S^-1_ii / (1 - m tau e)) and of s = sqrt(rss / df),
    whose residual norm moves by at most sqrt(tau) R plus the rounding of
    the residuals, e (sqrt(m) ||beta~|| + ||y||).  Where m tau e reaches 1
    no bound holds, and both are infinite.
    """
    m = beta.shape[1]
    e = 3.0 * (w + 10) * m * _EPS * d.max(axis=1) / d.min(axis=1)
    tau = np.trace(S_inv, axis1=1, axis2=2)
    growth = m * tau * e
    beta_norm = np.linalg.norm(beta / d, axis=1)
    y_norm = np.sqrt(yty)
    residual_norm = np.sqrt(rss)
    row_norms = np.linalg.norm(S_inv, axis=2)
    diagonal = np.diagonal(S_inv, axis1=1, axis2=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        R = e * (m * beta_norm + np.sqrt(m) * y_norm) / (1.0 - growth)
        residual_error = np.sqrt(tau) * R + e * (np.sqrt(m) * beta_norm + y_norm)
        relative = (m * e / (1.0 - growth))[:, None] * row_norms**2 / diagonal + (
            residual_error / residual_norm
        )[:, None]
        se_scaled = residual_norm[:, None] * np.sqrt(diagonal / (w - m)[:, None])
        t_error = (row_norms * R[:, None] / se_scaled)[:, 1:] + t_abs * relative[:, 1:]
    shifted = np.einsum("cij,cj->ci", S_inv, x_next * d)
    prediction_error = np.linalg.norm(shifted, axis=1) * R
    unbounded = growth >= 1.0
    t_error[unbounded] = np.inf
    prediction_error[unbounded] = np.inf
    return t_error, prediction_error
