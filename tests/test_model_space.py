"""Candidate enumeration, design construction, and window filtering tests."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import design_rows, make_series
from oracles import ols_oracle
from sentrade import reference
from sentrade.errors import DataError
from sentrade.model_space import (
    CANDIDATES,
    MIN_RESIDUAL_DF,
    Candidate,
    ModelClass,
    Variable,
    enumerate_candidates,
)
from sentrade.reference import fit_window
from sentrade.synth import SyntheticScenario, generate


class TestEnumerateCandidates:
    def test_count_against_brute_force(self):
        universe = list(Variable)
        sentiment_kind = {Variable.P1, Variable.N1, Variable.Z1}
        expected = set()
        for size in range(1, 6):
            for subset in itertools.combinations(universe, size):
                if set(subset) & sentiment_kind or set(subset) == {Variable.R1, Variable.R2}:
                    expected.add(frozenset(subset))
        actual = {frozenset(c.variables) for c in CANDIDATES}
        assert actual == expected
        assert len(CANDIDATES) == 29

    def test_exactly_one_financial(self):
        financial = [c for c in CANDIDATES if c.model_class is ModelClass.FINANCIAL]
        assert len(financial) == 1
        assert set(financial[0].variables) == {Variable.R1, Variable.R2}

    def test_single_return_lag_not_a_candidate(self):
        assert frozenset({Variable.R1}) not in {frozenset(c.variables) for c in CANDIDATES}

    def test_lone_sentiment_variable_is_a_candidate(self):
        lone = next(c for c in CANDIDATES if c.variables == (Variable.P1,))
        assert lone.model_class is ModelClass.SENTIMENT

    def test_partition(self):
        for candidate in CANDIDATES:
            has_sentiment = any(v.is_sentiment for v in candidate.variables)
            if candidate.model_class is ModelClass.SENTIMENT:
                assert has_sentiment
            else:
                assert not has_sentiment

    def test_bitmask_order_deterministic(self):
        order = list(Variable)

        def mask(candidate: Candidate) -> int:
            return sum(1 << order.index(v) for v in candidate.variables)

        masks = [mask(c) for c in CANDIDATES]
        assert masks == sorted(masks)
        assert enumerate_candidates() == CANDIDATES

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            Candidate(())
        with pytest.raises(ValueError):
            Candidate((Variable.P1, Variable.P1))


class TestBuildDesign:
    """A window's design is built from model_space's rows [1 | R1 R2 P1 N1 Z1]:
    sessions t-w..t-1 are the slice [t - w : t], and the prediction row is row t."""

    def test_r1_window_slices(self):
        r = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
        series = make_series(r)
        rows = design_rows(series)[2:5]
        np.testing.assert_array_equal(series.returns[2:5], r[2:5])
        np.testing.assert_array_equal(rows[:, 0], 1.0)
        np.testing.assert_array_equal(rows[:, 1], r[1:4])
        assert design_rows(series)[5, 1] == r[4]

    def test_r2_history_boundary(self):
        series = make_series([0.01] * 6)
        assert np.isnan(design_rows(series)[:2]).all()
        with pytest.raises(DataError, match="history"):
            fit_window(series, t=4, w=3)

    def test_pos_lag_column(self):
        n = 12
        series = make_series([0.01] * n, pos=list(range(n)))
        t = 10
        np.testing.assert_array_equal(
            design_rows(series)[t - 4 : t, 3], [t - 5, t - 4, t - 3, t - 2]
        )
        assert design_rows(series)[t, 3] == t - 1

    def test_forecast_at_series_end(self):
        r = [0.01, -0.02, 0.03, -0.04, 0.05, -0.06, 0.07]
        series = make_series(r)
        assert design_rows(series).shape == (len(r) + 1, 6)
        np.testing.assert_array_equal(design_rows(series)[len(r), 1:3], [r[6], r[5]])
        assert len(fit_window(series, len(r), 4)) == len(CANDIDATES)

    def test_past_series_end_rejected(self):
        series = make_series([0.01] * 8)
        with pytest.raises(DataError, match="beyond"):
            fit_window(series, t=9, w=3)

    def test_normalized_shares(self):
        series = make_series([0.01] * 8, pos=[6] * 8, neg=[3] * 8, neu=[1] * 8)
        shares = design_rows(series, normalize=True)
        np.testing.assert_allclose(shares[4:9, 3], 0.6)
        np.testing.assert_allclose(shares[4:9, 4], 0.3)
        np.testing.assert_array_equal(shares[:, :3], design_rows(series)[:, :3])

    def test_share_totals_are_float64_sums(self):
        """A total sums its counts as float64, left to right: at (2**53, 1, 1) it is
        2**53, where the int64 sum 2**53 + 2 would give a pos share below 1."""
        p, n, z = 2**53, 1, 1
        series = make_series([0.01] * 8, pos=[p] * 8, neg=[n] * 8, neu=[z] * 8)
        total = (float(p) + float(n)) + float(z)
        shares = design_rows(series, normalize=True)[4:9, 3:]
        np.testing.assert_array_equal(shares, [[p / total, n / total, z / total]] * 5)

    def test_normalized_zero_total_maps_to_zero(self):
        series = make_series([0.01] * 8, pos=[0] * 8, neg=[0] * 8, neu=[0] * 8)
        np.testing.assert_array_equal(design_rows(series, normalize=True)[4:9, 3:], 0.0)

    def test_lag_shift_property(self):
        rng = np.random.default_rng(21)
        r = rng.normal(0, 0.01, 15).tolist()
        pos = rng.integers(0, 50, 15).tolist()
        base = make_series(r, pos=pos)
        shifted = make_series([0.123] + r[:-1], pos=[7] + pos[:-1])
        # Columns 1, R1, R2 and P1; the default neg and neu counts do not shift.
        np.testing.assert_array_equal(
            design_rows(base)[5:11, :4], design_rows(shifted)[6:12, :4]
        )
        np.testing.assert_array_equal(base.returns[5:10], shifted.returns[6:11])


class TestFitWindow:
    def test_planted_ar1_financial_model(self):
        # Committed instance: near-deterministic lag-1 returns at seed 9.
        series = generate(
            SyntheticScenario("A", 80, signal_strength=0.9, ar2=0.0, noise_sigma=1e-4, seed=9)
        )
        t = len(series)
        models = fit_window(series, t, 30)
        financial = next(m for m in models if m.candidate.model_class is ModelClass.FINANCIAL)
        assert financial.passed_filter
        expected_sign = 1 if 0.9 * series.returns[t - 1] > 0 else -1
        assert (1 if financial.predicted_next > 0 else -1) == expected_sign
        # Cross-check the surviving fit against the extended-precision oracle.
        X = design_rows(series)[t - 30 : t, 1:3]  # R1 R2
        ref = ols_oracle(X.tolist(), series.returns[t - 30 : t].tolist())
        np.testing.assert_allclose(financial.fit.coefficients, ref["coefficients"], rtol=1e-7)
        np.testing.assert_allclose(financial.fit.p_values, ref["p_values"], rtol=1e-7)

    def test_constant_counts_fail_rank_check(self):
        rng = np.random.default_rng(3)
        series = make_series(
            rng.normal(0, 0.01, 40).tolist(), pos=[50] * 40, neg=[50] * 40, neu=[50] * 40
        )
        models = fit_window(series, 40, 20)
        for model in models:
            if model.candidate.model_class is ModelClass.SENTIMENT:
                assert not model.passed_filter
                assert model.predicted_next is None

    def test_noise_pass_rate_bounded(self):
        # Overlapping windows make any single candidate's rate noisy on one
        # seed, so this bounds the mean across candidates; the per-candidate
        # bound over many seeds lives in the acceptance suite.
        series = generate(SyntheticScenario("C", 232, seed=41))
        passed = {c.label: 0 for c in CANDIDATES}
        windows = 0
        for t in range(32, len(series)):
            windows += 1
            for model in fit_window(series, t, 30):
                passed[model.candidate.label] += model.passed_filter
        assert windows == 200
        mean_rate = sum(passed.values()) / (windows * len(CANDIDATES))
        assert mean_rate < 0.15

    def test_min_residual_df_marks_large_models_failed(self):
        series = make_series(np.linspace(-0.01, 0.01, 30).tolist())
        models = fit_window(series, 20, 8)
        for model in models:
            k = len(model.candidate.variables)
            if 8 - k - 1 < 3:
                assert not model.passed_filter
                assert model.fit is None
            else:
                assert model.fit is not None

    @pytest.mark.parametrize("t, w", [(500, 4), (3, 4), (10, -7)])
    def test_bad_window_rejected_before_any_fit(self, t, w):
        """A window under five sessions fits no candidate, yet is checked."""
        series = generate(SyntheticScenario("B", 50, seed=7))
        with pytest.raises(DataError):
            fit_window(series, t, w)

    def test_one_fit_ols_call_per_fitted_candidate(self, series_b, monkeypatch):
        """fit_window solves each candidate with w - k - 1 >= MIN_RESIDUAL_DF
        through reference.fit_ols once, the call a traced bench run counts."""
        calls = []
        fit_ols = reference.fit_ols

        def counting(design):
            calls.append(design.X.shape[1])
            return fit_ols(design)

        monkeypatch.setattr(reference, "fit_ols", counting)
        expected = {5: 3, 6: 13, 7: 23, 8: 28} | {w: len(CANDIDATES) for w in range(9, 41)}
        for w, count in expected.items():
            calls.clear()
            models = fit_window(series_b, 60, w)
            assert len(calls) == count, w
            fitted = [len(m.candidate.variables) for m in models if m.fit is not None]
            assert calls == fitted
            assert all(w - k - 1 >= MIN_RESIDUAL_DF for k in calls)

    def test_filter_soundness(self, series_b):
        models = fit_window(series_b, 60, 25)
        assert any(m.passed_filter for m in models)
        for model in models:
            if model.passed_filter:
                assert model.fit.rank_ok
                assert model.fit.max_p_value < 0.10
                assert model.predicted_next is not None

    def test_threshold_is_strict(self, series_b):
        # With the threshold set exactly at a fitted p-value, the model fails.
        models = fit_window(series_b, 60, 25)
        target = next(m for m in models if m.passed_filter)
        exact = float(target.fit.max_p_value)
        refitted = fit_window(series_b, 60, 25, p_threshold=exact)
        relabeled = next(
            m for m in refitted if m.candidate.variables == target.candidate.variables
        )
        assert not relabeled.passed_filter
