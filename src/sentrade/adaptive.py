"""Run parameters, prediction records, and the array replay of the window engines.

One engine per trailing-window length w tracks two running indicators over
the session stream: the financial-sentiment spread s, which arbitrates
which model class the engine trusts, and the quality Q, which scores the
engine's own emitted predictions.  Both are exponential recursions driven
by the magnitude of the realized return:

    s_t = gamma * s_{t-1} + theta * |100 r|
    Q_t = beta * Q_{t-1} + lambda * |100 r|

where theta rewards the class whose models called the session better and
lambda rewards the engine's emission itself.  At every session the engine
whose pre-update Q is highest among those emitting a sign supplies the
system-level prediction.

``replay_grid`` runs every engine at any number of (beta, gamma) points in
one pass over a span's vote counts.  ``reference.TfwEngine`` and
``reference.run_pipeline`` are the one-engine-at-a-time form it matches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .model_space import HISTORY, P_THRESHOLD, ModelClass, Votes
from .sessions import VALUE_CAP, check_offset_minutes, write_csv

PREDICTIONS_HEADER = (
    "index",
    "chosen_tfw",
    "chosen_class",
    "predicted_sign",
    "realized_return",
    "correct",
)


def check_decays(beta: float, gamma: float) -> None:
    """The quality decay beta and the spread decay gamma each lie in [0, 1]."""
    for name, value in (("beta", beta), ("gamma", gamma)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name}: must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class PredictionRecord:
    """The system-level outcome of one session."""

    index: int
    chosen_tfw: int | None
    chosen_class: ModelClass | None
    predicted_sign: int | None
    realized_return: float
    correct: bool | None

    def __post_init__(self) -> None:
        if (self.predicted_sign is None) != (self.chosen_tfw is None):
            raise DataError("predicted_sign and chosen_tfw must be absent together")
        if self.predicted_sign is not None and self.predicted_sign not in (-1, 1):
            raise DataError(f"predicted_sign must be +1 or -1, got {self.predicted_sign}")
        if self.correct is not None and (self.predicted_sign is None or self.realized_return == 0):
            raise DataError("correct is defined only for predictions on nonzero returns")


def prediction_record(
    t: int, tfw: int | None, chosen_class: ModelClass | None, emitted: int | None, realized: float
) -> PredictionRecord:
    """Session t's record; a prediction is correct when it matches a nonzero return's sign."""
    correct = None if emitted is None or realized == 0 else emitted == (1 if realized > 0 else -1)
    return PredictionRecord(t, tfw, chosen_class, emitted, realized, correct)


SPREAD_SCOPES = ("per_tfw", "global")


def check_train_fraction(train_fraction: float) -> None:
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction: must lie in (0, 1), got {train_fraction}")


def check_cost_per_trade(cost_per_trade: float) -> None:
    # The cap on returns: a larger cost overflows the strategy sums to -inf.
    if not 0 <= cost_per_trade <= VALUE_CAP:
        raise ConfigError(f"cost_per_trade: must lie in [0, 2**53], got {cost_per_trade}")


@dataclass(frozen=True)
class PipelineParams:
    """A run's settings, each a config key checked here; beta and gamma are None until trained."""

    beta: float | None = None
    gamma: float | None = None
    p_threshold: float = P_THRESHOLD
    tfw_min: int = 20
    tfw_max: int = 40
    initial_spread: float = 1.0
    train_fraction: float = 0.30
    offset_minutes: int = 30
    spread_scope: str = "per_tfw"
    normalize_sentiment: bool = False
    cost_per_trade: float = 0.0

    def __post_init__(self) -> None:
        check_decays(self.beta or 0.0, self.gamma or 0.0)  # an unset decay passes
        if not math.isfinite(self.initial_spread):
            raise ConfigError(f"initial_spread: must be finite, got {self.initial_spread}")
        if not 0.0 < self.p_threshold < 1.0:
            raise ConfigError(f"p_threshold: must lie in (0, 1), got {self.p_threshold}")
        if self.tfw_min < 3:
            raise ConfigError(f"tfw_min: must be at least 3, got {self.tfw_min}")
        if self.tfw_max < self.tfw_min:
            raise ConfigError(
                f"tfw_max: must be at least tfw_min ({self.tfw_min}), got {self.tfw_max}"
            )
        if self.spread_scope not in SPREAD_SCOPES:
            raise ConfigError(
                f"spread_scope: must be one of {SPREAD_SCOPES}, got {self.spread_scope!r}"
            )
        if (self.beta is None) != (self.gamma is None):
            raise ConfigError("beta and gamma must be set together")
        check_train_fraction(self.train_fraction)
        check_offset_minutes(self.offset_minutes)
        check_cost_per_trade(self.cost_per_trade)

    @property
    def decays(self) -> tuple[float, float]:
        """The trained (beta, gamma); a ConfigError while they are unset."""
        if self.beta is None or self.gamma is None:
            raise ConfigError(
                "beta and gamma are unset; train and pass --params, or set them in the config"
            )
        return self.beta, self.gamma

    @property
    def windows(self) -> range:
        return range(self.tfw_min, self.tfw_max + 1)


FitFn = Callable[[int, int], Votes]


def first_session(params: PipelineParams, start: int = 0) -> int:
    """The first session a run over [start, ...) scores.

    It is pushed past tfw_max + HISTORY so that every window, which needs
    HISTORY sessions before it, is feasible from the outset; earlier
    sessions serve as history only.  This is the only statement of the
    warm-up rule.
    """
    return max(start, params.tfw_max + HISTORY)


def _theta_array(n_models: np.ndarray, n_correct: np.ndarray) -> np.ndarray:
    """``reference._theta`` over arrays whose last axis is (financial, sentiment);
    0 stands for None."""
    financial, sentiment = n_models[..., 0], n_models[..., 1]
    cross = n_correct[..., 0] * sentiment >= n_correct[..., 1] * financial
    theta = np.where(sentiment == 0, 1, np.where(financial == 0, -1, np.where(cross, 1, -1)))
    return np.where((financial == 0) & (sentiment == 0), 0, theta)


class GridReplay(NamedTuple):
    """The (points,) final strategy sums, and (sessions, points) arrays of each pick.

    A pick is the chosen window's position in ``params.windows`` (-1 when no
    window emits), whether the sentiment class was chosen (the window's
    pre-update spread, or in ``global`` scope the pooled one, was negative),
    and the emitted sign (0 when nothing is emitted).
    """

    strategy: np.ndarray
    window: np.ndarray
    sentiment: np.ndarray
    sign: np.ndarray


def replay_grid(
    vote_counts: np.ndarray,
    returns: Sequence[float],
    points: Sequence[tuple[float, float]],
    params: PipelineParams,
) -> GridReplay:
    """Replay every (beta, gamma) point over the same scored sessions.

    The array form of ``reference.run_pipeline`` followed by ``backtest.simulate``,
    which ``train_params`` and ``evaluate`` both run.  ``vote_counts`` is
    shaped (sessions, windows, 2, 3) like ``FitTable.vote_counts``, as an
    array or as nested ``Votes``, and ``returns`` holds the same sessions'
    returns.  With the fits fixed, each (session, window) spread step
    direction theta is the same at every point, so one loop over the
    sessions updates (points, windows) arrays of spread (one column per
    point in ``global`` scope), chosen class, emitted sign, lambda and
    quality.  Every float operation keeps the engine's form, so each sum
    and pick equals, bit for bit, the engine path's at that point; the
    tests compare the two.  ``params`` supplies the initial spread, the
    spread scope and the cost per trade; its own beta and gamma are not read.
    """
    counts = np.asarray(vote_counts, dtype=np.int64)
    if counts.shape != (len(returns), len(params.windows), 2, 3):
        raise DataError(
            f"vote counts shaped {counts.shape} do not match {len(returns)} sessions "
            f"and {len(params.windows)} windows"
        )
    beta = np.array([b for b, _ in points], dtype=float)[:, None]
    gamma = np.array([g for _, g in points], dtype=float)[:, None]
    # A spread step's counts: each window's, or in global scope all windows' pooled.
    step = counts if params.spread_scope == "per_tfw" else counts.sum(axis=1, keepdims=True)
    spread = np.full((len(points), step.shape[1]), float(params.initial_spread))
    quality = np.zeros((len(points), counts.shape[1]))
    strategy = np.zeros(len(points))
    picks = np.zeros((3, len(returns), len(points)), dtype=np.int64)
    rows = np.arange(len(points))
    n_models, up, down = step[..., 0], step[..., 1], step[..., 2]
    majority = np.sign(counts[..., 1] - counts[..., 2])
    for t, realized in enumerate(returns):
        magnitude = abs(100.0 * realized)
        correct = up[t] if realized > 0 else down[t] if realized < 0 else np.zeros_like(up[t])
        sentiment = np.broadcast_to(spread < 0, quality.shape)
        emitted = np.where(sentiment, majority[t, :, 1], majority[t, :, 0])
        emits = emitted != 0
        # with no emitting window, argmax picks window 0, whose emission is 0
        best = np.argmax(np.where(emits, quality, -np.inf), axis=1)
        direction = emitted[rows, best]
        emitting = direction != 0
        picks[:, t] = np.where(emitting, best, -1), emitting & sentiment[rows, best], direction
        strategy += np.where(
            emitting, direction * realized - params.cost_per_trade * np.abs(direction), 0.0
        )
        if realized == 0:
            lam = np.where(emits, -1, 0)
        else:
            lam = emitted * (1 if realized > 0 else -1)
        quality = beta * quality + lam * magnitude
        theta = _theta_array(n_models[t], correct)
        decayed = gamma * spread
        spread = np.where(theta == 0, decayed, decayed + theta * magnitude)
    return GridReplay(strategy, picks[0], picks[1].astype(bool), picks[2])


def write_predictions_csv(records: Sequence[PredictionRecord], stream: IO[str]) -> None:
    write_csv(stream, PREDICTIONS_HEADER, (
        (
            r.index,
            "none" if r.chosen_tfw is None else r.chosen_tfw,
            "none" if r.chosen_class is None else r.chosen_class.value,
            "none" if r.predicted_sign is None else r.predicted_sign,
            r.realized_return,
            "na" if r.correct is None else "true" if r.correct else "false",
        )
        for r in records
    ))
