"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sentrade import model_space
from sentrade.sessions import SessionSeries
from sentrade.synth import SyntheticScenario, generate

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

_BASE = np.datetime64("2012-03-05T14:30", "us")  # UTC


def plant_returns(series: SessionSeries, returns) -> SessionSeries:
    """A fresh copy of ``series`` whose ``returns`` are ``returns``, exactly.

    A series derives its returns from its prices; tests that need exact
    returns on flat-price sessions set them here.
    """
    returns = np.array([float(r) for r in returns])
    assert len(returns) == len(series)
    returns.flags.writeable = False
    planted = replace(series)
    object.__setattr__(planted, "returns", returns)
    return planted


def make_series(returns, pos=None, neg=None, neu=None) -> SessionSeries:
    """Series with the given returns planted on alternating synthetic sessions.

    Prices are a flat 100 so the structural invariants hold whatever the
    returns; tests that care about price arithmetic build real sessions
    instead.
    """
    n = len(returns)
    if pos is None:
        pos = [40 + (i * 7) % 25 for i in range(n)]
    if neg is None:
        neg = [30 + (i * 11) % 30 for i in range(n)]
    if neu is None:
        neu = [20 + (i * 3) % 15 for i in range(n)]
    t = np.arange(n + 1)
    bounds = _BASE + t // 2 * np.timedelta64(24, "h") + t % 2 * np.timedelta64(6, "h")
    flat = np.full(n, 100.0)
    counts = np.column_stack([pos, neg, neu]).reshape(n, 3)
    series = SessionSeries(t[:-1] % 2 == 0, bounds[:-1], bounds[1:], flat, flat, counts)
    return plant_returns(series, returns)


def design_rows(series: SessionSeries, normalize: bool = False) -> np.ndarray:
    """model_space's design rows of every session, at their session index
    through len(series); the rows of the first HISTORY sessions hold NaN."""
    L = np.full((len(series) + 1, 6), np.nan)
    L[model_space.HISTORY :] = model_space._regressors(
        series, range(model_space.HISTORY, len(series) + 1), normalize
    )
    return L


@pytest.fixture(scope="session")
def series_b() -> SessionSeries:
    """The committed sentiment-driven scenario used across adaptive tests."""
    return generate(SyntheticScenario("B", 200, seed=7))

