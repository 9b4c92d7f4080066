"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import threading
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import HealthCheck, settings

from sentrade.sessions import Session, SessionKind, SessionSeries
from sentrade.synth import SyntheticScenario, generate

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

_BASE = datetime(2012, 3, 5, 14, 30, tzinfo=timezone.utc)


def plant_returns(series: SessionSeries, returns) -> SessionSeries:
    """A fresh copy of ``series`` whose ``returns`` are ``returns``, exactly.

    A series derives its returns from its prices; tests that need exact
    returns on flat-price sessions set them here, before any cached array of
    the copy is read.
    """
    returns = tuple(float(r) for r in returns)
    assert len(returns) == len(series)
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
    sessions = []
    for t in range(n):
        day, half = divmod(t, 2)
        day_open = _BASE + timedelta(hours=24 * day)
        if half == 0:
            kind, open_time, close_time = SessionKind.DAY, day_open, day_open + timedelta(hours=6)
        else:
            kind, open_time, close_time = (
                SessionKind.NIGHT,
                day_open + timedelta(hours=6),
                day_open + timedelta(hours=24),
            )
        sessions.append(
            Session(
                index=t,
                kind=kind,
                open_time=open_time,
                close_time=close_time,
                open_price=100.0,
                close_price=100.0,
                pos=int(pos[t]),
                neg=int(neg[t]),
                neu=int(neu[t]),
            )
        )
    return plant_returns(SessionSeries(tuple(sessions)), returns)


@pytest.fixture(scope="session")
def series_b() -> SessionSeries:
    """The committed sentiment-driven scenario used across adaptive tests."""
    return generate(SyntheticScenario("B", 200, seed=7))


@pytest.fixture
def no_threads(monkeypatch):
    """Fail the test if the code under test starts any thread."""

    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
