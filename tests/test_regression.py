"""OLS solver and t-distribution inference tests.

Derived expectations here were frozen from the extended-precision
normal-equations oracle and the quadrature t-CDF oracle in oracles.py;
the oracle-agreement sweep itself lives in the acceptance suite.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import ols_oracle, t_pvalue_quad
from sentrade.errors import DataError
from sentrade.regression import DesignMatrix, FitResult, fit_ols, two_sided_t_pvalue


def design(x_columns, y) -> DesignMatrix:
    return DesignMatrix(np.column_stack(x_columns), np.asarray(y, dtype=float))


class TestDesignMatrix:
    def test_too_few_rows(self):
        with pytest.raises(DataError, match="observations"):
            design([[1.0, 2.0]], [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="finite"):
            design([[1.0, 2.0, math.nan, 4.0]], [1.0, 2.0, 3.0, 4.0])

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            design([[1.0, 2.0, 3.0]], [1.0, 2.0])


class TestFitOls:
    def test_exact_line(self):
        fit = fit_ols(design([[1.0, 2.0, 3.0]], [2.0, 4.0, 6.0]))
        assert fit.rank_ok
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        # Residuals are zero up to rounding, so the slope is overwhelming.
        assert fit.p_values[0] < 1e-10
        assert fit.predict(np.array([10.0])) == pytest.approx(20.0, abs=1e-10)

    def test_constant_target(self):
        fit = fit_ols(design([[1.0, 2.0, 3.0, 4.0]], [5.0, 5.0, 5.0, 5.0]))
        assert fit.intercept == pytest.approx(5.0, abs=1e-12)
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-12)
        assert 0.0 <= fit.p_values[0] <= 1.0

    def test_exactly_zero_target(self):
        # The one case with residual variance exactly zero in floating point:
        # a zero coefficient then carries no evidence at all.
        fit = fit_ols(design([[1.0, 2.0, 3.0, 4.0]], [0.0, 0.0, 0.0, 0.0]))
        assert fit.intercept == 0.0
        assert fit.coefficients[0] == 0.0
        assert fit.std_errors[0] == 0.0
        assert fit.t_stats[0] == 0.0
        assert fit.p_values[0] == 1.0

    @pytest.mark.parametrize("y,t_stat", [([3.0, 1.0, 3.0, 1.0], math.inf),
                                          ([-1.5, -0.5, -1.5, -0.5], -math.inf)])
    def test_exact_nonzero_slope_is_infinitely_significant(self, y, t_stat):
        # y = 2 + x and y = -1 - 0.5x on x = +-1: both fit with residual
        # variance exactly zero in floating point.
        fit = fit_ols(design([[1.0, -1.0, 1.0, -1.0]], y))
        assert fit.std_errors.tolist() == [0.0]
        assert fit.t_stats.tolist() == [t_stat]
        assert fit.p_values.tolist() == [0.0]

    def test_noisy_line_against_frozen_oracle_values(self):
        # Frozen from ols_oracle([[1],[2],[3],[4],[5]], [1.1,1.9,3.2,3.9,5.1]).
        fit = fit_ols(design([[1.0, 2.0, 3.0, 4.0, 5.0]], [1.1, 1.9, 3.2, 3.9, 5.1]))
        assert fit.residual_df == 3
        assert fit.intercept == pytest.approx(0.04, rel=1e-9)
        assert fit.coefficients[0] == pytest.approx(1.0, rel=1e-12)
        assert fit.std_errors[0] == pytest.approx(0.048989794855663585, rel=1e-12)
        assert fit.t_stats[0] == pytest.approx(20.41241452319314, rel=1e-12)
        assert fit.p_values[0] == pytest.approx(0.0002570679779830552, rel=1e-9)

    def test_matches_oracle_on_fresh_case(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (9, 2))
        y = rng.normal(0, 1, 9)
        fit = fit_ols(DesignMatrix(X, y))
        ref = ols_oracle(X.tolist(), y.tolist())
        assert fit.intercept == pytest.approx(ref["intercept"], rel=1e-9)
        np.testing.assert_allclose(fit.coefficients, ref["coefficients"], rtol=1e-9)
        np.testing.assert_allclose(fit.std_errors, ref["std_errors"], rtol=1e-9)
        np.testing.assert_allclose(fit.p_values, ref["p_values"], rtol=1e-9)

    def test_duplicate_column_fails_rank_check(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        fit = fit_ols(design([x, x], [1.0, 2.0, 3.0, 4.0, 5.0]))
        assert not fit.rank_ok
        assert np.all(np.isnan(fit.coefficients))
        assert np.all(np.isnan(fit.p_values))

    def test_constant_column_collinear_with_intercept(self):
        fit = fit_ols(design([[7.0, 7.0, 7.0, 7.0]], [1.0, 2.0, 3.0, 4.0]))
        assert not fit.rank_ok

    def test_predict_requires_rank_ok(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        fit = fit_ols(design([x, x], [1.0, 2.0, 3.0, 4.0, 5.0]))
        with pytest.raises(ValueError, match="rank"):
            fit.predict(np.array([1.0, 1.0]))

    def test_predict_dimension_mismatch(self):
        fit = fit_ols(design([[1.0, 2.0, 3.0]], [2.0, 4.0, 6.0]))
        with pytest.raises(ValueError, match="features"):
            fit.predict(np.array([1.0, 2.0]))

    def test_zero_coefficient_prediction(self):
        fit = FitResult(
            intercept=1.0,
            coefficients=np.zeros(2),
            std_errors=np.ones(2),
            t_stats=np.zeros(2),
            p_values=np.ones(2),
            residual_df=5,
            rank_ok=True,
        )
        assert fit.predict(np.array([123.0, -456.0])) == 1.0

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            X = rng.normal(0, 1, (12, 3))
            y = rng.normal(0, 1, 12)
            fit = fit_ols(DesignMatrix(X, y))
            residuals = y - fit.intercept - X @ fit.coefficients
            for j in range(3):
                column = X[:, j]
                scaled = abs(column @ residuals) / (np.linalg.norm(column) * np.linalg.norm(residuals) + 1e-30)
                assert scaled <= 1e-8

    def test_scale_equivariance(self):
        rng = np.random.default_rng(99)
        X = rng.normal(0, 1, (10, 2))
        y = rng.normal(0, 1, 10)
        base = fit_ols(DesignMatrix(X, y))
        scaled_X = X.copy()
        c = 250.0
        scaled_X[:, 0] *= c
        scaled = fit_ols(DesignMatrix(scaled_X, y))
        assert scaled.coefficients[0] == pytest.approx(base.coefficients[0] / c, rel=1e-9)
        assert scaled.t_stats[0] == pytest.approx(base.t_stats[0], rel=1e-9)
        assert scaled.p_values[0] == pytest.approx(base.p_values[0], rel=1e-9)
        row = rng.normal(0, 1, 2)
        scaled_row = row.copy()
        scaled_row[0] *= c
        assert scaled.predict(scaled_row) == pytest.approx(base.predict(row), rel=1e-9)


class TestTwoSidedTPvalue:
    def test_zero_t(self):
        assert two_sided_t_pvalue(0.0, 7) == pytest.approx(1.0, abs=1e-12)

    def test_infinite_t(self):
        assert two_sided_t_pvalue(math.inf, 7) == 0.0

    def test_large_t_tends_to_zero(self):
        assert two_sided_t_pvalue(80.0, 7) < 1e-9

    def test_textbook_value(self):
        # Frozen from t_pvalue_quad(2.228, 10) = 0.05001177181711137.
        assert two_sided_t_pvalue(2.228, 10) == pytest.approx(0.050, abs=1e-3)
        assert two_sided_t_pvalue(2.228, 10) == pytest.approx(0.05001177181711137, rel=1e-10)

    def test_vectorized(self):
        p = two_sided_t_pvalue(np.array([0.0, 1.0, 2.0]), 5)
        assert p.shape == (3,)
        assert p[0] == pytest.approx(1.0)
        assert np.all(np.diff(p) < 0)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            two_sided_t_pvalue(-1.0, 5)

    def test_df_below_one_rejected(self):
        with pytest.raises(ValueError):
            two_sided_t_pvalue(1.0, 0)

    @given(
        t1=st.floats(min_value=0.0, max_value=40.0),
        dt=st.floats(min_value=1e-6, max_value=10.0),
        df=st.integers(min_value=1, max_value=200),
    )
    def test_monotone_decreasing_in_t(self, t1, dt, df):
        assert two_sided_t_pvalue(t1, df) >= two_sided_t_pvalue(t1 + dt, df)

    def test_approaches_normal_p_from_above(self):
        # The t tails are heavier than the normal's at every finite df, so
        # for fixed t the p-value decreases with df toward the normal p.
        from scipy.special import erfc

        t = 1.7
        normal_p = float(erfc(t / math.sqrt(2.0)))
        previous = two_sided_t_pvalue(t, 1)
        for df in (2, 5, 10, 50, 200, 2000):
            current = two_sided_t_pvalue(t, df)
            assert current < previous
            assert current > normal_p
            previous = current
        assert two_sided_t_pvalue(t, 100000) == pytest.approx(normal_p, rel=1e-3)

    def test_agrees_with_quadrature(self):
        for t, df in [(0.5, 3), (1.3, 8), (2.9, 15), (4.2, 30)]:
            assert two_sided_t_pvalue(t, df) == pytest.approx(t_pvalue_quad(t, df), rel=1e-10)
