"""Candidate model enumeration and the batched fit table.

The explanatory universe holds five lag variables: the returns one and
two sessions back plus the previous session's positive, negative, and
neutral sentiment counts.  Candidates are every non-empty subset that
contains at least one sentiment variable, plus the single financial pair
made of both return lags.  A candidate survives a window only when every
one of its regressors is individually significant below the p threshold.

``FitTable`` fits the cells of a span in row-major chunks of a bounded
number of cells: each cell's candidates come from one sweep tree over its
cross-product matrix (Furnival and Wilson's all-subsets regression, 1974),
and so do nearly all rank verdicts.  It hands the few cells it cannot
decide with certainty to ``reference.fit_window``, which fits each
candidate alone through the SVD ``regression.fit_ols``, and keeps only
each cell's per-class vote counts.  This module never loads the
reference or ``regression`` unless a table has such a cell.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DataError
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


# Sessions of history a design row needs: R2 is the return two sessions back.
HISTORY = 2
# Column of each variable in a design row (column 0 is the intercept).
_POSITION = {v: 1 + i for i, v in enumerate(Variable)}


def _regressors(series: SessionSeries, rows: range, normalize: bool) -> np.ndarray:
    """The design rows [1 | R1 R2 P1 N1 Z1] of sessions ``rows``, each as seen
    by its session i: the returns of sessions i-1 and i-2 and the counts of
    session i-1, as shares of their total (all zero without messages) if
    ``normalize``.  ``rows`` may run to len(series), the out-of-sample row,
    and must start at HISTORY or later."""
    r, lag = series.returns, slice(rows.start - 1, rows.stop - 1)
    counts = series.counts[lag].astype(float)  # share totals are float64 sums
    if normalize:
        total = counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            counts = np.where(total > 0, counts / total, 0.0)
    two_back = r[rows.start - HISTORY : rows.stop - HISTORY]
    return np.column_stack([np.ones(len(rows)), r[lag], two_back, counts])


def _check_window(n: int, t: int, w: int) -> None:
    """Raise a DataError unless w > 0, t <= n, and the window of sessions
    t-w..t-1 of a series of n has HISTORY sessions of history before it."""
    if not 0 < w:
        raise DataError(f"window length must be positive, got {w}")
    if t > n:
        raise DataError(f"window end {t} beyond series length {n}")
    if t - w < HISTORY:
        raise DataError(f"window [{t - w}, {t}) needs two sessions of history before it")


Votes = tuple[tuple[int, int, int], tuple[int, int, int]]
"""(passed models, up votes, down votes) of the financial, then the sentiment class."""


# A candidate whose squared condition number exceeds this is rank-deficient, in the
# table and in regression.fit_ols alike.
CONDITION_LIMIT = 1e10
# Cells whose outcome the batched arithmetic cannot settle go to reference.fit_window:
# any |t| whose p-value lies within P_BAND of the threshold, or a prediction
# within SIGN_BAND of zero relative to the sum of its terms' magnitudes.
# These floors cover fit_window's rounding of the p-value and of the
# prediction's sum; _t_bounds widens them by the fit's own conditioning.
P_BAND = 1e-6
SIGN_BAND = 1e-6
# A fit whose residual sum of squares is this small relative to y'y is exact
# up to rounding, so its standard errors (zero in fit_ols's special case)
# are rounding noise in either path.
EXACT_FIT_BAND = 1e-8
# A chunk holds _BLOCK_ROWS // (longest window) cells, at least one and at
# most _BLOCK_CELLS: 336 at the default windows 20-40, 16 sessions of 21.
# _cross_products gathers each of a chunk's sessions' rows once, back to its
# longest window; the cap holds the per-cell arrays of short windows.
_BLOCK_ROWS = 16 * 21 * 40
_BLOCK_CELLS = 16 * 21
_EPS = float(np.finfo(float).eps)


def _condition_band(w: np.ndarray, m: int) -> np.ndarray:
    """Relative error bound on cond(A'A) computed from the Gram matrix.

    Forming A'A from w rows of m columns perturbs it by at most
    w * m * eps * lambda_max in the 2-norm, in whatever order each entry
    sums its w products (``_cross_products`` sums the shortest window's,
    then adds one more per longer window), and the symmetric eigensolver
    adds a few m * eps * lambda_max more, so lambda_min, and with it
    cond^2 = lambda_max / lambda_min, is off by a relative
    (w + 10) * m * eps * cond^2 at most.  Doubled, and evaluated at
    CONDITION_LIMIT (about 1.3e-3 for w = 40, m = 6); fit_ols's SVD is
    accurate there to about eps * cond, which is negligible.
    """
    return 2.0 * (w + 10) * m * _EPS * CONDITION_LIMIT


class FitTable:
    """The per-class vote counts of each (session, window) of a span.

    ``vote_counts``, shaped (sessions, windows, 2, 3), holds what
    ``reference.votes`` makes of each cell.  Calling the table with (t, w)
    returns that cell's counts as Python ints, so the table serves as a
    run's fit function.

    The cells are fitted in row-major order, in chunks of _BLOCK_ROWS //
    max(windows) cells, at most _BLOCK_CELLS.  A chunk builds each session's
    cross-products once for all its windows (see ``_cross_products``), reads
    each candidate and its rank verdict from its cell's sweep tree (see
    ``_swept_fits``), and is folded into counts at once.  A cell with any
    candidate within the error bound of a decision takes its counts from
    ``reference.fit_window`` instead: cond^2 near CONDITION_LIMIT, a t
    statistic near the threshold, a prediction near zero, or a near-exact fit.
    ``fallback_cells`` lists those cells, ``eigensolved`` counts the rank
    verdicts that took an eigensolve, ``exact_bounded`` the cells whose trace
    screen left a rank-ok candidate doubtful, so that their exact error
    bounds were formed, and ``build_seconds`` is the wall time of the whole
    build but for its imports: ``scipy.special``, and the reference where a
    cell falls back.
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
        if sessions:
            _check_window(len(series), sessions[0], windows[-1])
            _check_window(len(series), sessions[-1], windows[-1])
        import scipy.special  # noqa: F401  _fit_cells' import, kept out of build_seconds
        began = time.perf_counter()
        self.sessions = sessions
        self.windows = windows
        # The span's design rows once, from the first session of its earliest window.
        span = range(sessions.start - windows[-1], sessions.stop) if sessions else range(0)
        L, r = _regressors(series, span, normalize), series.returns[span.start :]
        cells = len(sessions) * len(windows)
        chunk = max(1, min(_BLOCK_CELLS, _BLOCK_ROWS // windows[-1]))
        counts = np.zeros((cells, 2, 3), dtype=int)
        unsure = np.zeros(cells, dtype=bool)
        self.eigensolved = self.exact_bounded = 0
        for first in range(0, cells, chunk):
            i, j = divmod(np.arange(first, min(first + chunk, cells)), len(windows))
            passed, predicted, unsure[first : first + chunk], eigensolved, bounded = _fit_cells(
                L, r, sessions.start - span.start + i, windows.start + j, p_threshold
            )
            self.eigensolved += eigensolved
            self.exact_bounded += bounded
            tallies = np.stack([passed, passed & (predicted > 0), passed & (predicted < 0)], -1)
            by_class = [tallies[:, ~_SENTIMENT].sum(1), tallies[:, _SENTIMENT].sum(1)]
            counts[first : first + chunk] = np.stack(by_class, axis=1)
        self.vote_counts = counts.reshape(len(sessions), len(windows), 2, 3)
        self.fallback_cells = tuple(
            (sessions[c // len(windows)], windows[c % len(windows)])
            for c in np.flatnonzero(unsure).tolist()
        )
        if self.fallback_cells:  # the reference loads here on first use, outside the timing
            imported = time.perf_counter()
            from .reference import fit_window, votes

            began += time.perf_counter() - imported
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


def _subset_tree() -> tuple[tuple[np.ndarray, ...], ...]:
    """The sweep tree, a level per number of variables.  A node is the columns
    swept, the intercept first; its parent lacks the highest.  A level holds
    its nodes' parent slots, column bitmasks and columns (the last is the
    pivot), then its members (positions in CANDIDATES), whose nodes come first."""
    levels, above = [], [()]
    sets = [(0, *(_POSITION[v] for v in c.variables)) for c in CANDIDATES]
    for size in range(len(Variable) + 1):
        members = [c for c, columns in enumerate(sets) if len(columns) == size + 1]
        subsets = itertools.combinations(range(1, len(Variable) + 1), size)
        nodes = [sets[c] for c in members] + [(0, *n) for n in subsets if (0, *n) not in sets]
        levels.append((
            np.array([above.index(node[:-1]) for node in nodes]),
            np.array([sum(1 << column for column in node) for node in nodes]),
            np.array(nodes),
            np.array(members, dtype=int),
        ))
        above = nodes
    return tuple(levels)


_TREE = _subset_tree()


def _sub_grams(gram: np.ndarray, cells: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The principal submatrix of gram[cells[i]] on columns[i], for each i."""
    k = gram.shape[-1]
    flat = (cells[:, None, None] * k + columns[:, :, None]) * k + columns[:, None, :]
    return gram.reshape(-1)[flat]


def _fit_cells(
    L: np.ndarray, r: np.ndarray, t_cell: np.ndarray, w_cell: np.ndarray, p_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Fit all candidates on every (session t_cell[i], window w_cell[i]) cell
    from its sweep tree, sessions counted from the first of ``L``'s design
    rows and of the returns ``r``: the (cells, candidates) filter verdicts
    (each |t| above its df's critical value) and predictions, NaN where not
    rank-ok, the mask of cells to recompute, the number of rank verdicts
    that took an eigensolve, and the number of cells whose exact error
    bounds were formed."""
    from scipy.special import stdtrit  # here, so that commands which fit nothing skip scipy

    cross, x_next = _cross_products(L, r, t_cell, w_cell)
    # |t| beyond which a coefficient's p-value is below the threshold, and the
    # |t| span of p-values within P_BAND of it (to inf below P_BAND), by df.
    levels = np.array([p_threshold, p_threshold + P_BAND, max(0.0, p_threshold - P_BAND)])
    all_df = np.arange(1, int(w_cell.max()) + 1)[:, None]
    t_critical, t_low, t_high = stdtrit(all_df, 1.0 - levels / 2.0).T

    def doubtful(fit: tuple[np.ndarray, ...], cells=slice(None)) -> np.ndarray:
        """Which members of a level's ``fit`` lie within their error bounds of a
        decision on ``cells``: a |t| near the threshold, a prediction near zero,
        or a near-exact fit."""
        t_abs, predicted, magnitude, rss, t_error, prediction_error = (a[..., cells] for a in fit)
        df = np.maximum(w_cell[cells] - t_abs.shape[1] - 1, 1) - 1
        with np.errstate(invalid="ignore"):  # t_high + t_error: inf + -inf only where not ok
            return (
                ((t_low[df] - t_error <= t_abs) & (t_abs <= t_high[df] + t_error)).any(axis=1)
                | (np.abs(predicted) <= SIGN_BAND * magnitude + prediction_error)
                | (rss <= EXACT_FIT_BAND)
            )

    shape = (len(w_cell), len(CANDIDATES))
    passed, predicted_next = np.zeros(shape, bool), np.full(shape, np.nan)
    (unsure, bounded), eigensolved = np.zeros((2, len(w_cell)), dtype=bool), 0
    fits = _swept_fits(cross, x_next, w_cell, doubtful)
    for members, (ok, solved, near_limit, _, _, exact), fit in fits:
        unsure |= near_limit
        if exact.any():  # cells the screen left doubtful, decided by their exact bounds
            unsure[exact] |= (ok[:, exact] & doubtful(fit, exact)).any(axis=0)
            bounded |= exact
        eigensolved += int(np.count_nonzero(solved))
        t_abs, predicted = fit[:2]
        df = np.maximum(w_cell - t_abs.shape[1] - 1, 1) - 1
        passed[:, members] = (ok & (t_abs > t_critical[df]).all(axis=1)).T
        predicted_next[:, members] = np.where(ok, predicted, np.nan).T
    return passed, predicted_next, unsure, eigensolved, int(np.count_nonzero(bounded))


def _cross_products(
    L: np.ndarray, r: np.ndarray, t_cell: np.ndarray, w_cell: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's 7x7 cross-product of its rows [1 | R1 R2 P1 N1 Z1 | y],
    and its prediction row of L.

    The cells come in row-major order, as in FitTable's chunks, so their
    sessions run from t_cell[0] to t_cell[-1].  Each session's rows are
    gathered once, counting back from the session to the cells' longest
    window (every session must have that many rows before it).  The
    shortest window's cross-product is one product per session; a running
    sum along the window axis adds each longer window's earliest row as an
    outer product, and each cell reads its window's slot.
    """
    first, shortest, longest = int(t_cell[0]), int(w_cell.min()), int(w_cell.max())
    sessions = np.arange(first, int(t_cell[-1]) + 1)
    back = sessions - 1 - np.arange(longest)[:, None]  # (row, session), the latest row first
    k = L.shape[1] + 1
    rows = np.empty(back.shape + (k,))
    rows[..., :-1], rows[..., -1] = L[back], r[back]
    grams = np.empty((longest - shortest + 1, len(sessions), k, k))
    near, far = rows[:shortest], rows[shortest:]
    # Two copies, not one array and its transpose: numpy takes BLAS's syrk for the
    # latter, which read about 0.1 MB higher in peak RSS on small series than a gemm.
    np.matmul(near.transpose(1, 2, 0).copy(), near.transpose(1, 0, 2).copy(), out=grams[0])
    np.multiply(far[:, :, :, None], far[:, :, None, :], out=grams[1:])
    for j in range(1, len(grams)):  # np.cumsum along this axis is slower at few windows
        grams[j] += grams[j - 1]
    return grams[w_cell - shortest, t_cell - first], L[t_cell]


def _swept_fits(
    cross: np.ndarray,
    x_next: np.ndarray,
    w: np.ndarray,
    doubtful: Callable[[tuple[np.ndarray, ...]], np.ndarray],
) -> Iterator[tuple[np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]]:
    """Sweep the cells' cross-products, Jacobi-scaled once (a unit scale for a
    zero diagonal), down the subset tree a level at a time.  A node swept on K
    holds -S_KK^-1, the coefficients in its last column and rss~ (y'y = 1) in
    its corner, and carries the least pivot on its path.  A fitted member is
    rank-ok or rank-deficient where its bounds on cond^2 from ``_rank_bounds``
    clear CONDITION_LIMIT by 4 ``_condition_band``, and is eigensolved
    otherwise.  A node with a subset deficient or not fitted in every cell is
    not swept, and neither is a member whose path floor, read off its parent,
    already settles it so by ``_pivot_bound``.  Each member's |t| and
    prediction bounds are first screened by tau = tr S^-1 (see above
    ``_pivot_bound``), then, in the cells where ``doubtful`` of the screened
    fit holds for a rank-ok member, replaced by ``_t_bounds`` of the exact
    norms of S^-1 (``lambda fit: True`` forms them wherever a member is rank-ok).
    Yields each level's swept members, their verdicts (rank-ok and
    eigensolved, (members, cells), the cells eigensolved within their band,
    the bounds, and the cells whose exact bounds were formed), and their |t|
    (members, variables, cells), prediction, sum of its terms' magnitudes,
    rss~ and error bounds."""
    diagonal = np.diagonal(cross, axis1=1, axis2=2).T
    d = 1.0 / np.sqrt(np.where(diagonal > 0.0, diagonal, 1.0))
    level = (np.ascontiguousarray(cross.transpose(1, 2, 0)) * d[:, None] * d[None, :])[None]
    floor, where, dead = np.full((1, len(w)), np.inf), np.zeros(1, dtype=int), np.zeros(0, int)
    for parents, masks, nodes, members in _TREE:
        m = nodes.shape[1]
        fitted = w - m >= MIN_RESIDUAL_DF
        if not fitted.any():
            return
        margin = 4.0 * _condition_band(w, m)
        margin[margin > 0.4] = np.inf  # _condition_band's argument needs b <= 0.1
        deficient_above = CONDITION_LIMIT * (1.0 + margin)
        swept = ((masks[:, None] & dead) != dead).all(axis=1)
        # A member's path floor is its parent's and its own pivot, both in the parent's
        # matrix; where that settles it deficient in every fitted cell, it is not swept.
        own = np.flatnonzero(swept[: len(members)])
        parent, k = where[parents[own]], nodes[own, -1]
        pivot = _pivot_bound(np.fmin(floor[parent], level[parent, k, k]), w, m)
        settled = ((pivot > deficient_above) | ~fitted).all(axis=1)
        swept[own[settled]] = False
        dead = np.append(dead, masks[own[settled]])
        above = where[parents[swept]]
        level, floor = level[above], floor[above]
        # The symmetric SWEEP on k (Goodnight 1979): with h = a_kk and v the row
        # a_k. but -1 at k, a - v v' / h once row and column k are cleared.
        n, k = np.arange(len(level)), nodes[swept, -1]
        h, v = level[n, k, k], level[n, k]
        floor = np.fmin(floor, h)
        v[n, k] = -1.0
        level[n, k] = level[n, :, k] = 0.0
        with np.errstate(all="ignore"):
            level -= v[:, :, None] * (v / h[:, None])[:, None, :]
        where, live = np.cumsum(swept) - 1, swept[: len(members)]
        if not live.any():
            continue
        K, node = nodes[: len(members)][live], where[: len(members)][live, None]
        beta, rss = level[node, K, -1], level[node[:, 0], -1, -1]
        inverse = -level[node, K, K]
        scales, path_floor = d[K], floor[node[:, 0]]
        x = x_next.T[K] * scales / d[-1]
        with np.errstate(all="ignore"):
            tau = inverse.sum(axis=1)
            lower, upper = _rank_bounds(tau, inverse, w, scales, path_floor)
            se = np.sqrt(rss[:, None] * inverse / (w - m))
            t_abs, terms = np.abs(beta[:, 1:]) / se[:, 1:], x * beta
            fit = t_abs, terms.sum(axis=1), np.abs(terms).sum(axis=1), rss
            parts = tau, inverse, beta, se, t_abs, x, rss, w, scales
            screen = np.sqrt(tau[:, None] * inverse), tau * np.sqrt((x * x).sum(axis=1))
            bounds = _t_bounds(*screen, *parts)
        rank_ok = fitted & (upper < CONDITION_LIMIT * (1.0 - margin))
        deficient = lower > deficient_above
        solved, near_limit = fitted & ~rank_ok & ~deficient, np.zeros(len(w), dtype=bool)
        if solved.any():
            c, cells = np.nonzero(solved)
            eigenvalues = np.linalg.eigvalsh(_sub_grams(cross, cells, K[c]))
            low, high = eigenvalues[:, 0], eigenvalues[:, -1]
            with np.errstate(divide="ignore", invalid="ignore"):
                cond2 = np.where(low > 0, high / low, np.inf)
            band = _condition_band(w[cells], m) * CONDITION_LIMIT
            near_limit[cells[np.abs(cond2 - CONDITION_LIMIT) <= band]] = True
            rank_ok[c, cells] = cond2 <= CONDITION_LIMIT
        exact = (rank_ok & doubtful((*fit, *bounds))).any(axis=0)
        if exact.any():  # the exact norms of S^-1 in the doubtful cells
            cells = np.flatnonzero(exact)
            S_inv = -level[node[:, :, None, None], K[:, :, None, None], K[:, None, :, None], cells]
            with np.errstate(all="ignore"):
                row_norms = np.sqrt(np.einsum("nijc,nijc->nic", S_inv, S_inv))
                shifted = np.linalg.norm(np.einsum("nijc,njc->nic", S_inv, x[..., cells]), axis=1)
                formed = _t_bounds(row_norms, shifted, *(part[..., cells] for part in parts))
            for bound, value in zip(bounds, formed):
                bound[..., cells] = value
        dead = np.append(dead, masks[: len(members)][live][(deficient | ~fitted).all(axis=1)])
        yield members[live], (rank_ok, solved, near_limit, lower, upper, exact), (*fit, *bounds)


# How far the table's |t| and prediction can lie from fit_window's, to first order.
# In scaled coordinates S = D [1 X y]'[1 X y] D has unit diagonal, so |S_ij| <= 1 and
# y'y = 1.  For a candidate on the m columns K, S^-1 is the inverse of S's block on K,
# tau its trace (>= ||S^-1||), b its coefficients, q = 1 + sqrt(m) ||b||, and
# z = (-b, 1) on K and y, so ||z||_1 <= q.
# - The table.  Forming and scaling S moves each entry by at most (w + 3) eps.  A
#   w-row window's entry G_ij is a sum of its own w products, in any order (the running
#   sum in _cross_products adds them one window at a time), so by Cauchy-Schwarz it is
#   off by at most w eps sqrt(G_ii G_jj), wherever the session lies in the series.
#   Sweeping K is Gauss-Jordan elimination (GJE) without pivoting on a positive
#   definite block, whose LU factors are its Cholesky factor R up to a diagonal; R's
#   columns have unit norm, so (|L||U|)_ij <= 1, ||R||_F^2 = m, |U^-1||U| = |R^-1||R|,
#   and row i of R^-1 has norm sqrt(S^-1_ii) <= ||S^-1 e_i||.  Higham (Accuracy and
#   Stability of Numerical Algorithms, 2nd ed., §14.4) bounds GJE's error on S x = c
#   by a small multiple of m eps (|S^-1||L||U| + |U^-1||U|)|x|; taking 8 for it, the
#   elimination's part is S^-1 F x with |F| <= 8 m eps |L||U| (§9.3), and the Jordan
#   steps' at most 8 m eps sqrt(S^-1_ii) sqrt(m) ||x|| in row i.  With
#   delta = (w + 3 + 16 m) eps, b is thus off by S^-1 v, ||v|| <= delta sqrt(m) q,
#   plus 8 m eps q sqrt(S^-1_ii) in row i, and S^-1_ii (x = S^-1 e_i) by at most
#   m delta ||S^-1 e_i||^2.  The corner rss~ = y'y - b'X'y takes the elimination's
#   updates alone, so it moves by z'Ez, |E_ij| <= delta: at most delta q^2.  A running
#   difference, not a sum of squares, its relative error delta q^2 / rss~ grows as
#   the fit nears exact, and EXACT_FIT_BAND caps 1 / rss~ at 1e8.
# - The SVD solves exactly a problem whose A is perturbed by g ||A||,
#   g = (w + 10) m eps; scaled, up to rho = max d / min d over K times more, so
#   S b = A~'y perturbed by e_s = 3 g rho relative.  Its b is off by S^-1 v with
#   ||v|| <= e_s sqrt(m) q / (1 - m tau e_s), its S^-1_ii by a relative
#   m e_s ||S^-1 e_i||^2 / S^-1_ii / (1 - m tau e_s), and its residual norm by
#   sqrt(tau) ||v|| plus its rounding, e_s q.
# With e = e_s + delta and R = e sqrt(m) q / (1 - m tau e), coefficient i of the two
# paths differs by at most ||S^-1 e_i|| R, and the prediction x'beta = x~'b, with
# x~ = D x / d_y, by ||S^-1 x~|| R + 8 m eps q sum_i |x~_i| sqrt(S^-1_ii).  A t
# statistic b_i / (s sqrt(S^-1_ii)), s^2 = rss~ / df, moves by at most ||S^-1 e_i|| R
# over its standard error plus |t| times the relative errors of S^-1_ii,
# m e ||S^-1 e_i||^2 / S^-1_ii / (1 - m tau e), and of s,
# (sqrt(tau) R + e q) / sqrt(rss~) + delta q^2 / (2 rss~).  Where m tau e reaches 1,
# both bounds are infinite.
# The screen.  S^-1 is positive definite, so its largest eigenvalue is at most tau, and
# ||S^-1 e_i||^2 = e_i' S^-2 e_i <= tau S^-1_ii and ||S^-1 x~|| <= tau ||x~||.  Put in place
# of the exact norms, which need all of S^-1, these give bounds never below the exact ones
# from the node's diagonal alone (``_t_bounds`` rises with both norms).  _swept_fits screens
# every rank-ok candidate so, and forms the exact norms, from the node's whole S^-1, only
# in the cells where the screened bounds leave a candidate doubtful; ``_t_bounds`` of those
# norms decide the cells.

# Bounds on a candidate's cond^2 = cond(G_K), G_K = A'A on its columns A = [1 X_K], read
# off its node, with S = D G D, m = |K|, delta and tau as above, and L = CONDITION_LIMIT.
# - The pivot floor f, the least pivot on K's path.  The unswept block of a swept node is
#   Gaussian elimination's Schur complement, so these are the pivots of eliminating S_KK
#   in column order.  Let h, on column k, be the first at most f+ = max(f, 0) + m delta,
#   P the columns swept up to k, and J = P - {k}.  The steps before it divide by pivots
#   above m delta, so |L||U| <= 1 holds to first order and they are exact for
#   M = S_PP + F, |F_ij| <= delta.  With z = (-M_JJ^-1 M_Jk, 1), M z = h e_k, so
#   z'S_PP z = h - z'F z, and as ||z|| >= 1 Cauchy interlacing gives lambda_min(S_KK)
#   <= lambda_min(S_PP) <= max(h, 0) + m delta <= f+ + m delta.  The intercept's unit
#   diagonal makes lambda_max(S_KK) >= 1, and cond(S_KK) <= m cond(G_K) (van der Sluis;
#   Higham, Accuracy and Stability, Thm 7.5), so cond(G_K) >= 1 / (m (max(f, 0) + 2 m delta)).
# - The trace sandwich.  With G_ii = d_i^-2 and G^-1_ii = d_i^2 S^-1_ii, and the largest
#   eigenvalue of a positive definite matrix between its largest diagonal entry and its
#   trace, max G_ii max G^-1_ii <= cond(G_K) <= tr G_K tr G_K^-1, at most m^2 apart.
#   With f > 0 the sweep's diagonal entries are sums of terms of one sign, off by at most
#   m delta ||S^-1 e_i||^2 <= m delta tau S^-1_ii (as above), a relative eta =
#   m tau delta / (1 - m tau delta) of the computed value with the inverse's own
#   perturbation; d_i^-2 is off by less ((w + 4) eps, as tau >= m).  So the bounds widen
#   by (1 - eta)^2 >= 1 - 2 eta and (1 + eta)^2; where f <= 0 or m tau delta >= 1, void.
# Write b = _condition_band(w, m).  By _condition_band's argument, an upper bound below
# L (1 - 4b) means the candidate's own eigensolve would find its cond^2 below L (1 - 3b):
# rank-ok, outside its band.  A lower bound above L (1 + 4b) means above L (1 + 3b) or
# singular: rank-deficient outside its band, as is every candidate containing it (Cauchy
# interlacing on G).  The steps need b <= 0.1, so windows up to 3,700 rows at m = 6; the
# scales' own rounding moves the bounds by factors 1 + O(w eps).


def _pivot_bound(floor: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """The lower bound argued above on cond^2 of a candidate on m columns whose
    path holds ``floor`` as its least pivot."""
    return 1.0 / (m * (np.maximum(floor, 0.0) + 2 * m * (w + 3 + 16 * m) * _EPS))


def _t_bounds(
    row_norms: np.ndarray, shifted: np.ndarray, tau: np.ndarray, diagonal: np.ndarray,
    beta: np.ndarray, se: np.ndarray, t_abs: np.ndarray, x: np.ndarray, rss: np.ndarray,
    w: np.ndarray, scales: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The bounds argued above on |t| and on the prediction, from bounds on
    ||S^-1 e_i|| as ``row_norms`` and on ||S^-1 x~|| as ``shifted``, tr S^-1
    as ``tau``, S^-1's diagonal as ``diagonal`` and x~ as ``x``."""
    m = beta.shape[1]
    delta = (w + 3 + 16 * m) * _EPS
    e = 3.0 * (w + 10) * m * _EPS * scales.max(axis=1) / scales.min(axis=1) + delta
    growth = m * tau * e
    q = 1.0 + np.sqrt(m) * np.linalg.norm(beta, axis=1)
    R = np.where(growth < 1.0, e * np.sqrt(m) * q / (1.0 - growth), np.inf)
    residual = (np.sqrt(tau) * R + e * q) / np.sqrt(rss) + delta * q**2 / (2.0 * rss)
    relative = (m * e / (1.0 - growth))[:, None] * row_norms**2 / diagonal + residual[:, None]
    t_error = (row_norms * R[:, None] / se)[:, 1:] + t_abs * relative[:, 1:]
    jordan = 8 * m * _EPS * q * (np.abs(x) * np.sqrt(diagonal)).sum(axis=1)
    return t_error, shifted * R + jordan


def _rank_bounds(
    tau: np.ndarray, diagonal: np.ndarray, w: np.ndarray, scales: np.ndarray, floor: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper bounds argued above on cond^2, from tr S^-1 as
    ``tau``, S^-1's diagonal as ``diagonal`` and the least pivot on the path
    as ``floor``."""
    m = diagonal.shape[1]
    table_growth = np.where(floor > 0.0, m * tau * ((w + 3 + 16 * m) * _EPS), np.inf)
    trusted, eta = table_growth < 1.0, table_growth / (1.0 - table_growth)
    gram, gram_inverse = scales**-2.0, diagonal * scales**2
    pivot = _pivot_bound(floor, w, m)
    sandwich = gram.max(axis=1) * gram_inverse.max(axis=1) * (1.0 - 2.0 * eta)
    upper = gram.sum(axis=1) * gram_inverse.sum(axis=1) * (1.0 + eta) ** 2
    lower = np.where(trusted, np.maximum(pivot, sandwich), pivot)
    return lower, np.where(trusted, upper, np.inf)
