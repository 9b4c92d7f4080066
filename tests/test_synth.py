"""Synthetic scenario generator tests."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from sentrade.errors import ConfigError, DataError
from sentrade.sessions import read_sessions_csv, write_sessions_csv
from sentrade.synth import SCENARIO_KINDS, SyntheticScenario, generate


class TestScenarioValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            SyntheticScenario("D", 50)

    def test_session_count(self):
        with pytest.raises(ConfigError, match="n_sessions"):
            SyntheticScenario("B", 0)

    def test_negative_sigma(self):
        with pytest.raises(ConfigError, match="noise_sigma"):
            SyntheticScenario("C", 50, noise_sigma=-0.1)

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    @pytest.mark.parametrize("field", ["signal_strength", "noise_sigma", "ar2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, kind, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SyntheticScenario(kind, 50, **{field: value})

    @pytest.mark.parametrize("a1,a2", [(0.6, 0.5), (1.1, 0.0), (-0.5, 1.0), (0.0, -1.0)])
    def test_nonstationary_lag_pairs_rejected(self, a1, a2):
        with pytest.raises(ConfigError, match="stationary"):
            SyntheticScenario("A", 50, signal_strength=a1, ar2=a2)

    def test_stationary_pair_accepted(self):
        SyntheticScenario("A", 50, signal_strength=1.0, ar2=-0.8)


class TestGenerate:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_deterministic(self, kind):
        scenario = SyntheticScenario(kind, 60, seed=7)
        assert generate(scenario) == generate(scenario)

    def test_seed_changes_output(self):
        a = generate(SyntheticScenario("C", 60, seed=1))
        b = generate(SyntheticScenario("C", 60, seed=2))
        assert a.returns != b.returns

    def test_baseline_shape(self):
        series = generate(SyntheticScenario("B", 75, seed=3))
        assert len(series) == 75
        assert series.sessions[0].open_price == 100.0
        assert len(series.returns) == 75

    def test_prices_chain(self):
        series = generate(SyntheticScenario("C", 40, seed=5))
        for prev, cur in zip(series.sessions, series.sessions[1:]):
            assert cur.open_price == prev.close_price

    def test_csv_round_trip_exact(self):
        series = generate(SyntheticScenario("B", 80, seed=11))
        buffer = io.StringIO()
        write_sessions_csv(series, buffer)
        buffer.seek(0)
        recovered = read_sessions_csv(buffer)
        assert recovered == series

    def test_kind_a_counts_flat(self):
        series = generate(SyntheticScenario("A", 50, signal_strength=0.5, seed=2))
        for session in series.sessions:
            assert (session.pos, session.neg, session.neu) == (50, 50, 50)

    def test_count_ranges(self):
        series = generate(SyntheticScenario("C", 300, seed=9))
        for session in series.sessions:
            assert 0 <= session.pos <= 200
            assert 0 <= session.neg <= 200
            assert 0 <= session.neu <= 100

    def test_zero_strength_b_replays_c(self):
        b = generate(SyntheticScenario("B", 90, signal_strength=0.0, seed=13))
        c = generate(SyntheticScenario("C", 90, seed=13))
        assert b.returns == c.returns
        for sb, sc in zip(b.sessions, c.sessions):
            assert (sb.pos, sb.neg, sb.neu) == (sc.pos, sc.neg, sc.neu)

    def test_blowup_rejected(self):
        with pytest.raises(DataError, match="-100%"):
            generate(SyntheticScenario("C", 500, noise_sigma=1.0, seed=0))

    def test_overflowing_return_rejected(self):
        with pytest.raises(DataError, match=r"session 0: \|return\| must be finite"):
            generate(SyntheticScenario("B", 1, noise_sigma=1e200, seed=3))


class TestPlantedStructure:
    def test_kind_a_autocorrelation(self):
        series = generate(
            SyntheticScenario("A", 2000, signal_strength=0.9, noise_sigma=0.001, seed=21)
        )
        r = np.asarray(series.returns)
        rho = np.corrcoef(r[:-1], r[1:])[0, 1]
        assert rho == pytest.approx(0.9, abs=0.05)

    def test_kind_b_counts_predict_returns(self):
        correlations = []
        for seed in range(20):
            series = generate(SyntheticScenario("B", 120, seed=seed))
            r = np.asarray(series.returns[1:])
            signal = series.counts[:-1, 0] - series.counts[:-1, 1]
            correlations.append(np.corrcoef(signal, r)[0, 1])
        assert min(correlations) > 0.9

    def test_kind_c_counts_carry_no_signal(self):
        correlations = []
        for seed in range(20):
            series = generate(SyntheticScenario("C", 120, seed=seed))
            r = np.asarray(series.returns[1:])
            signal = series.counts[:-1, 0] - series.counts[:-1, 1]
            correlations.append(abs(np.corrcoef(signal, r)[0, 1]))
        assert max(correlations) < 0.3
        assert np.mean(correlations) < 0.12
