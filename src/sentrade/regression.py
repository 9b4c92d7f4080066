"""Ordinary least squares with intercept and per-regressor t-test p-values.

The solver runs through an SVD of the augmented design so near-collinear
windows are detected by condition number instead of blowing up; inference
uses the exact Student t distribution via the regularized incomplete beta
function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import betainc

from .errors import DataError

CONDITION_LIMIT = 1e10


@dataclass(frozen=True)
class DesignMatrix:
    """A regression problem: n observations of k regressors plus a target."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise DataError(f"X must be 2-dimensional, got ndim={X.ndim}")
        if y.ndim != 1:
            raise DataError(f"y must be 1-dimensional, got ndim={y.ndim}")
        n, k = X.shape
        if y.shape[0] != n:
            raise DataError(f"X has {n} rows but y has {y.shape[0]}")
        if n < k + 2:
            raise DataError(f"need at least k + 2 = {k + 2} observations, got {n}")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise DataError("design matrix entries must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients and regressor-level inference.

    The intercept is estimated but excluded from ``coefficients`` and the
    inference arrays, which are aligned with the design's columns.  When
    ``rank_ok`` is False the arrays hold NaN and the fit must not be used
    for prediction.
    """

    intercept: float
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    residual_df: int
    rank_ok: bool

    @cached_property
    def max_p_value(self) -> float:
        return float(np.max(self.p_values)) if self.p_values.size else 0.0

    def predict(self, row: np.ndarray) -> float:
        if not self.rank_ok:
            raise ValueError("cannot predict from a rank-deficient fit")
        row = np.asarray(row, dtype=float)
        if row.shape != self.coefficients.shape:
            raise ValueError(
                f"expected {self.coefficients.shape[0]} features, got {row.shape}"
            )
        return float(self.intercept + row @ self.coefficients)


def two_sided_t_pvalue(t_abs, df):
    """Two-sided p-value of a t statistic: P(|T_df| >= t_abs).

    Evaluated as the regularized incomplete beta I_x(df/2, 1/2) with
    x = df / (df + t^2), which is exact for the Student t distribution.
    Accepts scalars or arrays; df must be a positive integer or an array of
    them broadcasting against t_abs.
    """
    t_abs = np.asarray(t_abs, dtype=float)
    if np.any(t_abs < 0):
        raise ValueError("t_abs must be non-negative")
    if np.any(np.asarray(df) < 1):
        raise ValueError(f"df must be at least 1, got {df}")
    with np.errstate(invalid="ignore"):
        x = df / (df + t_abs * t_abs)
    p = betainc(df / 2.0, 0.5, x)
    p = np.where(np.isinf(t_abs), 0.0, p)
    if p.ndim == 0:
        return float(p)
    return p


def fit_ols(design: DesignMatrix) -> FitResult:
    """Least-squares fit with intercept, or a NaN result when near-singular.

    The augmented matrix [1 | X] is decomposed by SVD; a squared condition
    number above CONDITION_LIMIT (or an exactly zero singular value) marks
    the window rank-deficient.
    """
    n, k = design.n, design.k
    A = np.column_stack([np.ones(n), design.X])
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    df = n - k - 1
    if s[-1] <= 0.0 or (s[0] / s[-1]) ** 2 > CONDITION_LIMIT:
        nan = np.full(k, np.nan)
        return FitResult(
            intercept=float("nan"),
            coefficients=nan,
            std_errors=nan.copy(),
            t_stats=nan.copy(),
            p_values=nan.copy(),
            residual_df=df,
            rank_ok=False,
        )
    beta = Vt.T @ ((U.T @ design.y) / s)
    residuals = design.y - A @ beta
    rss = float(residuals @ residuals)
    sigma2 = rss / df
    # diag((A'A)^-1) from the SVD factors, skipping the intercept row.
    xtx_inv_diag = ((Vt.T / s) ** 2).sum(axis=1)
    variances = sigma2 * xtx_inv_diag[1:]
    std_errors = np.sqrt(np.maximum(variances, 0.0))
    coefficients = beta[1:]
    # Degenerate exact fit: a nonzero coefficient is infinitely significant,
    # a zero one carries no evidence at all.
    exact, zero = std_errors == 0.0, coefficients == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(exact, np.copysign(np.inf, coefficients), coefficients / std_errors)
    t_stats[exact & zero] = 0.0
    p_values = np.where(exact, zero * 1.0, two_sided_t_pvalue(np.abs(t_stats), df))

    return FitResult(
        intercept=float(beta[0]),
        coefficients=coefficients,
        std_errors=std_errors,
        t_stats=t_stats,
        p_values=p_values,
        residual_df=df,
        rank_ok=True,
    )
