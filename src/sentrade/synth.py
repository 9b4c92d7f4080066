"""Seeded synthetic session generators with known planted structure.

Three scenario kinds cover the pipeline's behavioral space: A plants an
autoregressive return signal with flat sentiment counts, so only the
financial model class can ever pass the significance filter; B drives
returns from the previous session's positive-negative count difference, so
the sentiment class dominates; C is pure noise with counts drawn but
unused.  B and C draw their counts before the noise so that B with zero
signal strength reproduces C sample for sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import ConfigError, DataError
from .sessions import Session, SessionKind, SessionSeries

SCENARIO_KINDS = ("A", "B", "C")

_BASE_OPEN = datetime(2012, 3, 5, 14, 30, tzinfo=timezone.utc)
_DAY_SPAN = timedelta(hours=6)
_FULL_SPAN = timedelta(hours=24)
_BURN_IN = 50


@dataclass(frozen=True)
class SyntheticScenario:
    """Parameters of one generated series.

    ``signal_strength`` is the first autoregressive coefficient in kind A
    and the count-difference coefficient in kind B; ``ar2`` adds a second
    autoregressive lag used only by kind A.
    """

    kind: str
    n_sessions: int
    signal_strength: float = 0.02
    noise_sigma: float = 0.004
    seed: int = 0
    ar2: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")
        if self.n_sessions < 1:
            raise ConfigError(f"n_sessions must be at least 1, got {self.n_sessions}")
        for name in ("signal_strength", "noise_sigma", "ar2"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
        if self.kind == "A":
            a1, a2 = self.signal_strength, self.ar2
            if not (abs(a2) < 1 and a1 + a2 < 1 and a2 - a1 < 1):
                raise ConfigError(f"kind A needs a stationary lag pair, got ({a1}, {a2})")


def _draw(scenario: SyntheticScenario) -> tuple[np.ndarray, ...]:
    """Returns and counts for the scenario, from one seeded generator."""
    rng = np.random.default_rng(scenario.seed)
    n = scenario.n_sessions
    if scenario.kind == "A":
        flat = np.full(n, 50, dtype=np.int64)
        eps = rng.normal(0.0, scenario.noise_sigma, _BURN_IN + n)
        r = np.zeros(_BURN_IN + n)
        for t in range(_BURN_IN + n):
            r[t] = eps[t]
            if t >= 1:
                r[t] += scenario.signal_strength * r[t - 1]
            if t >= 2:
                r[t] += scenario.ar2 * r[t - 2]
        return r[_BURN_IN:], flat, flat.copy(), flat.copy()
    # Counts first, noise second: kind B at zero strength replays kind C.
    pos = rng.integers(0, 201, n)
    neg = rng.integers(0, 201, n)
    neu = rng.integers(0, 101, n)
    eps = rng.normal(0.0, scenario.noise_sigma, n)
    r = eps.copy()
    if scenario.kind == "B":
        r[1:] += scenario.signal_strength * (pos[:-1] - neg[:-1]) / 100.0
    return r, pos, neg, neu


def generate(scenario: SyntheticScenario) -> SessionSeries:
    """Build the session series, prices chained from 100, returns computed.

    Session times alternate a six-hour day and an eighteen-hour night from
    a fixed epoch; the stored returns come from the chained prices, so they
    round-trip exactly through the sessions CSV.
    """
    returns, pos, neg, neu = _draw(scenario)
    if np.any(returns <= -1.0):
        raise DataError("generated a return at or below -100%; lower the noise or signal")

    sessions = []
    price = 100.0
    for t in range(scenario.n_sessions):
        day_number, half = divmod(t, 2)
        day_open = _BASE_OPEN + day_number * _FULL_SPAN
        if half == 0:
            kind = SessionKind.DAY
            open_time, close_time = day_open, day_open + _DAY_SPAN
        else:
            kind = SessionKind.NIGHT
            open_time, close_time = day_open + _DAY_SPAN, day_open + _FULL_SPAN
        close_price = price * (1.0 + returns[t])
        try:
            session = Session(
                index=t,
                kind=kind,
                open_time=open_time,
                close_time=close_time,
                open_price=price,
                close_price=close_price,
                pos=int(pos[t]),
                neg=int(neg[t]),
                neu=int(neu[t]),
            )
        except ValueError as exc:  # a price or return beyond Session's bounds
            raise DataError(f"{exc}; lower the noise or signal") from None
        sessions.append(session)
        price = close_price
    return SessionSeries(tuple(sessions))
