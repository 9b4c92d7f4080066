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
import time
from dataclasses import dataclass, field
from typing import IO, Callable, Sequence

from .errors import ConfigError, DataError
from .model_space import P_THRESHOLD, FitTable, ModelClass, Votes
from .sessions import SessionSeries

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
    """How one model class fared on a single resolved session."""

    model_class: ModelClass
    n_models: int
    n_correct: int
    majority_sign: int | None

    def __post_init__(self) -> None:
        if not 0 <= self.n_correct <= self.n_models:
            raise DataError(f"n_correct {self.n_correct} out of range for {self.n_models} models")

    @property
    def correctness(self) -> float | None:
        if self.n_models == 0:
            return None
        return self.n_correct / self.n_models


def class_outcomes(votes: Votes, realized_return: float) -> tuple[ClassOutcome, ClassOutcome]:
    """Score one session's per-class vote counts against its return.

    A model counts correct only when its predicted sign matches a nonzero
    realized return, so a flat session scores zero correct in both classes.
    """
    financial, sentiment = (
        ClassOutcome(
            model_class,
            n_models,
            up if realized_return > 0 else down if realized_return < 0 else 0,
            majority_sign(up, down),
        )
        for model_class, (n_models, up, down) in zip(
            (ModelClass.FINANCIAL, ModelClass.SENTIMENT), votes
        )
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
        if pending.emitted is None:
            lam = 0
        elif realized_return > 0:
            lam = 1 if pending.emitted == 1 else -1
        elif realized_return < 0:
            lam = 1 if pending.emitted == -1 else -1
        else:
            lam = -1
        financial = sentiment = None
        if pending.votes is not None:
            financial, sentiment = class_outcomes(pending.votes, realized_return)
            self.spread = update_spread(self, financial, sentiment, realized_return)
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
    engine: TfwEngine,
    financial: ClassOutcome,
    sentiment: ClassOutcome,
    realized_return: float,
) -> float:
    """New spread after one session; decay-only when both classes were empty."""
    theta = _theta(financial, sentiment)
    if theta is None:
        return engine.gamma * engine.spread
    return engine.gamma * engine.spread + theta * abs(100.0 * realized_return)


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
        return PredictionRecord(t, None, None, None, realized_return, None)
    emitted = best.pending.emitted
    if realized_return == 0:
        correct = None
    else:
        correct = emitted == (1 if realized_return > 0 else -1)
    return PredictionRecord(
        index=t,
        chosen_tfw=best.w,
        chosen_class=best.pending.chosen_class,
        predicted_sign=emitted,
        realized_return=realized_return,
        correct=correct,
    )


SPREAD_SCOPES = ("per_tfw", "global")


@dataclass(frozen=True)
class PipelineParams:
    """Everything a prediction run needs besides the series itself."""

    beta: float
    gamma: float
    p_threshold: float = P_THRESHOLD
    tfw_min: int = 20
    tfw_max: int = 40
    initial_spread: float = 1.0
    spread_scope: str = "per_tfw"
    normalize_sentiment: bool = False

    def __post_init__(self) -> None:
        check_decays(self.beta, self.gamma)
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

    @property
    def windows(self) -> range:
        return range(self.tfw_min, self.tfw_max + 1)


@dataclass(frozen=True)
class PipelineResult:
    """A run's records and engines.

    ``fit_table`` is the table the run built for its fits, None when the
    caller supplied ``fit_fn``; ``session_seconds`` times each session's
    replay, which includes fitting only when ``fit_fn`` fits.
    """

    records: tuple[PredictionRecord, ...]
    engines: tuple[TfwEngine, ...]
    start: int
    session_seconds: tuple[float, ...]
    fit_table: FitTable | None


def _pooled_outcome(steps: Sequence[EngineStep], model_class: ModelClass) -> ClassOutcome:
    n_models = n_correct = 0
    for step in steps:
        outcome = step.financial if model_class is ModelClass.FINANCIAL else step.sentiment
        if outcome is not None:
            n_models += outcome.n_models
            n_correct += outcome.n_correct
    return ClassOutcome(model_class, n_models, n_correct, None)


FitFn = Callable[[int, int], Votes]


def first_session(params: PipelineParams, start: int = 0) -> int:
    """The first session a run over [start, ...) scores.

    It is pushed past tfw_max + 2 so that every window, which needs two
    sessions of history before it, is feasible from the outset; earlier
    sessions serve as history only.  This is the only statement of the
    warm-up rule.
    """
    return max(start, params.tfw_max + 2)


def run_pipeline(
    series: SessionSeries,
    params: PipelineParams,
    *,
    start: int = 0,
    end: int | None = None,
    fit_fn: FitFn | None = None,
) -> PipelineResult:
    """Run every window engine over sessions [start, end) with fresh state.

    The first processed session is ``first_session(params, start)``.  By
    default every (session, window) fit comes from one ``FitTable`` built
    for the scored sessions and returned as ``fit_table``, so a later run
    over the same span and fit settings can pass it back as ``fit_fn``;
    ``fit_fn`` replaces the per-(session, window) vote counts, which is
    also how tests substitute the reference, ``votes(fit_window(...))``, or
    a fake.  The replay is one single-threaded loop.
    """
    n = len(series)
    end = n if end is None else end
    if not 0 <= start <= end <= n:
        raise DataError(f"invalid span [{start}, {end}) for {n} sessions")
    series.returns_array  # fail fast when returns are missing

    t0 = first_session(params, start)
    table = None
    if fit_fn is None:
        fit_fn = table = FitTable(
            series,
            range(t0, max(t0, end)),
            params.windows,
            params.p_threshold,
            normalize=params.normalize_sentiment,
        )

    engines = tuple(
        TfwEngine(w, params.beta, params.gamma, params.initial_spread)
        for w in params.windows
    )
    records: list[PredictionRecord] = []
    session_seconds: list[float] = []
    global_spread = params.initial_spread
    for t in range(t0, end):
        began = time.perf_counter()
        realized = series.returns[t]
        override = None
        if params.spread_scope == "global":
            override = select_class(global_spread)
        for engine in engines:
            engine.propose(t, fit_fn(t, engine.w), class_override=override)
        records.append(select_tfw(engines, t, realized))
        steps = [engine.resolve(realized) for engine in engines]
        if params.spread_scope == "global":
            financial = _pooled_outcome(steps, ModelClass.FINANCIAL)
            sentiment = _pooled_outcome(steps, ModelClass.SENTIMENT)
            theta = _theta(financial, sentiment)
            global_spread = params.gamma * global_spread + (
                theta * abs(100.0 * realized) if theta is not None else 0.0
            )
        session_seconds.append(time.perf_counter() - began)
    return PipelineResult(tuple(records), engines, t0, tuple(session_seconds), table)


def write_predictions_csv(records: Sequence[PredictionRecord], stream: IO[str]) -> None:
    stream.write(",".join(PREDICTIONS_HEADER) + "\n")
    for r in records:
        if r.correct is None:
            correct = "na"
        else:
            correct = "true" if r.correct else "false"
        row = (
            str(r.index),
            "none" if r.chosen_tfw is None else str(r.chosen_tfw),
            "none" if r.chosen_class is None else r.chosen_class.value,
            "none" if r.predicted_sign is None else str(r.predicted_sign),
            repr(r.realized_return),
            correct,
        )
        stream.write(",".join(row) + "\n")
