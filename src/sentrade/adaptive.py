"""Adaptive per-window prediction engines and top-level window selection.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .model_space import HISTORY, P_THRESHOLD, FitTable, ModelClass, Votes
from .sessions import VALUE_CAP, SessionSeries, check_offset_minutes, write_csv

PREDICTIONS_HEADER = (
    "index",
    "chosen_tfw",
    "chosen_class",
    "predicted_sign",
    "realized_return",
    "correct",
)


def majority_sign(up: int, down: int) -> int | None:
    """Strict-majority sign of up and down votes.

    A tie (including no votes at all) yields None, meaning abstain.
    """
    if up > down:
        return 1
    if down > up:
        return -1
    return None


@dataclass(frozen=True)
class ClassOutcome:
    """How many of one class's models passed the filter, and how many of them called a session."""

    n_models: int
    n_correct: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_correct <= self.n_models:
            raise DataError(f"n_correct {self.n_correct} out of range for {self.n_models} models")


def class_outcomes(votes: Votes, realized_return: float) -> tuple[ClassOutcome, ClassOutcome]:
    """Score one session's per-class vote counts against its return.

    A model counts correct only when its predicted sign matches a nonzero
    realized return, so a flat session scores zero correct in both classes.
    """
    financial, sentiment = (
        ClassOutcome(n_models, up if realized_return > 0 else down if realized_return < 0 else 0)
        for n_models, up, down in votes
    )
    return financial, sentiment


def select_class(spread: float) -> ModelClass:
    """Sentiment models take over only on a strictly negative spread."""
    return ModelClass.SENTIMENT if spread < 0 else ModelClass.FINANCIAL


def _theta(financial: ClassOutcome, sentiment: ClassOutcome) -> int | None:
    """Direction of the spread step, or None when both classes were empty.

    Ties and sessions without sentiment models favor the financial side;
    comparison is by exact cross-multiplication of the correct/total
    fractions so equal ratios never split on rounding.
    """
    if financial.n_models == 0 and sentiment.n_models == 0:
        return None
    if financial.n_models == 0:
        return -1
    if sentiment.n_models == 0:
        return 1
    if financial.n_correct * sentiment.n_models >= sentiment.n_correct * financial.n_models:
        return 1
    return -1


def check_decays(beta: float, gamma: float) -> None:
    """The quality decay beta and the spread decay gamma each lie in [0, 1]."""
    for name, value in (("beta", beta), ("gamma", gamma)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name}: must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class PendingStep:
    """An engine's proposal for a session whose return is not yet known."""

    index: int
    votes: Votes | None  # None when the window was infeasible
    chosen_class: ModelClass | None
    emitted: int | None


@dataclass(frozen=True)
class EngineStep:
    """One fully resolved session in an engine's history."""

    index: int
    feasible: bool
    financial: ClassOutcome | None
    sentiment: ClassOutcome | None
    chosen_class: ModelClass | None
    emitted: int | None
    realized_return: float
    lam: int
    spread_after: float
    quality_after: float


@dataclass
class TfwEngine:
    """Adaptive engine for one trailing window length.

    Step an engine in two phases: ``propose`` with the session's vote
    counts (None when the window does not fit the available history) and,
    once the session's return is known, ``resolve``.  State advances only
    in ``resolve``.
    """

    w: int
    beta: float
    gamma: float
    initial_spread: float = 1.0
    spread: float = field(init=False)
    quality: float = field(init=False, default=0.0)
    history: list[EngineStep] = field(init=False, default_factory=list)
    pending: PendingStep | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ConfigError(f"w: must be at least 1, got {self.w}")
        check_decays(self.beta, self.gamma)
        self.spread = float(self.initial_spread)

    def propose(
        self,
        t: int,
        votes: Votes | None,
        class_override: ModelClass | None = None,
    ) -> int | None:
        """Stage the engine's emission for session t and return it.

        ``votes`` holds the per-class vote counts of this engine's window
        (see ``model_space.votes``), or None when the window was infeasible;
        the emission is the chosen class's majority sign.  ``class_override``
        substitutes an externally arbitrated class for the engine's own
        spread-based choice.
        """
        if self.pending is not None:
            raise DataError(f"engine w={self.w}: session {self.pending.index} is unresolved")
        if self.history and t != self.history[-1].index + 1:
            raise DataError(
                f"engine w={self.w}: expected session {self.history[-1].index + 1}, got {t}"
            )
        if votes is None:
            self.pending = PendingStep(t, None, None, None)
            return None
        chosen = class_override if class_override is not None else select_class(self.spread)
        _, up, down = votes[0 if chosen is ModelClass.FINANCIAL else 1]
        emitted = majority_sign(up, down)
        self.pending = PendingStep(t, votes, chosen, emitted)
        return emitted

    def resolve(self, realized_return: float) -> EngineStep:
        """Apply session outcomes to the spread and quality recursions."""
        pending = self.pending
        if pending is None:
            raise DataError(f"engine w={self.w}: no pending session to resolve")
        lam = 0 if pending.emitted is None else 1 if pending.emitted * realized_return > 0 else -1
        financial = sentiment = None
        if pending.votes is not None:
            financial, sentiment = class_outcomes(pending.votes, realized_return)
            self.spread = update_spread(
                self.spread, self.gamma, financial, sentiment, realized_return
            )
        self.quality = update_quality(self, lam, realized_return)
        step = EngineStep(
            index=pending.index,
            feasible=pending.votes is not None,
            financial=financial,
            sentiment=sentiment,
            chosen_class=pending.chosen_class,
            emitted=pending.emitted,
            realized_return=realized_return,
            lam=lam,
            spread_after=self.spread,
            quality_after=self.quality,
        )
        self.history.append(step)
        self.pending = None
        return step


def update_spread(
    spread: float,
    gamma: float,
    financial: ClassOutcome,
    sentiment: ClassOutcome,
    realized_return: float,
) -> float:
    """New spread after one session; decay-only when both classes were empty."""
    theta = _theta(financial, sentiment)
    if theta is None:
        return gamma * spread
    return gamma * spread + theta * abs(100.0 * realized_return)


def update_quality(engine: TfwEngine, lam: int, realized_return: float) -> float:
    """New quality after one session; the beta decay applies unconditionally."""
    if lam not in (-1, 0, 1):
        raise DataError(f"lam must be -1, 0, or +1, got {lam}")
    return engine.beta * engine.quality + lam * abs(100.0 * realized_return)


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


def select_tfw(
    engines: Sequence[TfwEngine],
    t: int,
    realized_return: float,
) -> PredictionRecord:
    """Pick the emitting engine with the highest pre-update quality.

    Every engine must hold a pending proposal for session t.  Quality ties
    go to the smallest window; no emitting engine at all yields a
    no-operation record.
    """
    best: TfwEngine | None = None
    for engine in sorted(engines, key=lambda e: e.w):
        if engine.pending is None or engine.pending.index != t:
            raise DataError(f"engine w={engine.w} has not proposed for session {t}")
        if engine.pending.emitted is None:
            continue
        if best is None or engine.quality > best.quality:
            best = engine
    if best is None:
        return prediction_record(t, None, None, None, realized_return)
    return prediction_record(
        t, best.w, best.pending.chosen_class, best.pending.emitted, realized_return
    )


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


@dataclass(frozen=True)
class PipelineResult:
    """A reference run's records and engines."""

    records: tuple[PredictionRecord, ...]
    engines: tuple[TfwEngine, ...]
    start: int


FitFn = Callable[[int, int], Votes]


def first_session(params: PipelineParams, start: int = 0) -> int:
    """The first session a run over [start, ...) scores.

    It is pushed past tfw_max + HISTORY so that every window, which needs
    HISTORY sessions before it, is feasible from the outset; earlier
    sessions serve as history only.  This is the only statement of the
    warm-up rule.
    """
    return max(start, params.tfw_max + HISTORY)


def run_pipeline(
    series: SessionSeries,
    params: PipelineParams,
    *,
    start: int = 0,
    end: int | None = None,
    fit_fn: FitFn | None = None,
) -> PipelineResult:
    """Run every window engine over sessions [start, end) with fresh state.

    The reference replay, which ``replay_grid`` must match; the tests and
    the acceptance criteria read its engines.  The first processed session
    is ``first_session(params, start)``.  By default every (session,
    window) fit comes from one ``FitTable`` built for the scored sessions;
    ``fit_fn`` replaces the per-(session, window) vote counts, which is how
    tests substitute ``votes(fit_window(...))``, the table itself, or a fake.
    """
    beta, gamma = params.decays
    n = len(series)
    end = n if end is None else end
    if not 0 <= start <= end <= n:
        raise DataError(f"invalid span [{start}, {end}) for {n} sessions")

    t0 = first_session(params, start)
    if fit_fn is None:
        fit_fn = FitTable(series, range(t0, max(t0, end)), params.windows, params.p_threshold,
                          normalize=params.normalize_sentiment)

    engines = tuple(TfwEngine(w, beta, gamma, params.initial_spread) for w in params.windows)
    records: list[PredictionRecord] = []
    global_spread = params.initial_spread
    for t, realized in zip(range(t0, end), series.returns[t0:end].tolist()):
        override = select_class(global_spread) if params.spread_scope == "global" else None
        cells = [fit_fn(t, engine.w) for engine in engines]
        for engine, cell in zip(engines, cells):
            engine.propose(t, cell, class_override=override)
        records.append(select_tfw(engines, t, realized))
        for engine in engines:
            engine.resolve(realized)
        if params.spread_scope == "global":  # one step on the feasible windows' pooled counts
            feasible = [cell for cell in cells if cell is not None]
            pooled = np.array(feasible, dtype=np.int64).reshape(-1, 2, 3).sum(axis=0).tolist()
            global_spread = update_spread(
                global_spread, gamma, *class_outcomes(pooled, realized), realized
            )
    return PipelineResult(tuple(records), engines, t0)


def _theta_array(n_models: np.ndarray, n_correct: np.ndarray) -> np.ndarray:
    """``_theta`` over arrays whose last axis is (financial, sentiment); 0 stands for None."""
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

    The array form of ``run_pipeline`` followed by ``backtest.simulate``,
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
