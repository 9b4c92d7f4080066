"""The reference engine: every candidate fitted alone, one engine object per window.

``fit_window`` fits each candidate of one (session, window) cell through
the SVD ``regression.fit_ols``, and ``votes`` reads that cell's per-class
vote counts off its models.  A ``TfwEngine`` runs the spread and quality
recursions of one window a session at a time (see ``adaptive``), and
``run_pipeline`` steps one engine per window over a span.

The commands run none of this.  ``model_space.FitTable`` and
``adaptive.replay_grid`` compute the same counts and picks as arrays, and
the tests hold them to this module.  A table imports it on first use, to
refit the few cells its own arithmetic cannot settle, and so does
``backtest --dump-models``, which writes ``fit_window``'s models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .adaptive import (
    FitFn,
    PipelineParams,
    PredictionRecord,
    check_decays,
    first_session,
    prediction_record,
)
from .errors import ConfigError, DataError
from .model_space import (
    CANDIDATES,
    MIN_RESIDUAL_DF,
    P_THRESHOLD,
    Candidate,
    FitTable,
    ModelClass,
    Votes,
    _POSITION,
    _check_window,
    _regressors,
)
from .regression import DesignMatrix, FitResult, fit_ols
from .sessions import SessionSeries


@dataclass(frozen=True)
class FittedModel:
    """One candidate's outcome on one window."""

    candidate: Candidate
    fit: FitResult | None
    predicted_next: float | None
    passed_filter: bool


def fit_window(
    series: SessionSeries,
    t: int,
    w: int,
    p_threshold: float = P_THRESHOLD,
    *,
    normalize: bool = False,
) -> list[FittedModel]:
    """Fit every candidate on the window of sessions t-w..t-1.

    Each candidate regresses the window's returns on its columns of the
    window's rows and predicts from the row aligned with session t itself;
    t == len(series) is allowed, a true out-of-sample prediction.
    Candidates whose residual degrees of freedom would fall below
    ``MIN_RESIDUAL_DF``, whose window is rank-deficient, or with any
    regressor p-value at or above the threshold fail the filter; the fit
    and its prediction are still reported whenever the solve succeeded.
    """
    _check_window(len(series), t, w)
    X = _regressors(series, range(t - w, t + 1), normalize)
    rows, y, next_row = X[:-1], series.returns[t - w : t], X[-1]
    results = []
    for candidate in CANDIDATES:
        k = len(candidate.variables)
        if w - k - 1 < MIN_RESIDUAL_DF:
            results.append(FittedModel(candidate, None, None, False))
            continue
        columns = [_POSITION[v] for v in candidate.variables]
        # fit_ols's SVD rounds differently on a column-major copy.
        fit = fit_ols(DesignMatrix(np.ascontiguousarray(rows[:, columns]), y))
        if not fit.rank_ok:
            results.append(FittedModel(candidate, fit, None, False))
            continue
        predicted = fit.predict(next_row[columns])
        passed = bool(np.all(fit.p_values < p_threshold))
        results.append(FittedModel(candidate, fit, predicted, passed))
    return results


def votes(models: list[FittedModel]) -> Votes:
    """The per-class vote counts an engine reads from ``fit_window``'s models.

    Only models that passed the filter count.  A prediction above zero
    votes up, one below zero votes down, and an exact zero votes neither way.
    """
    counts = []
    for model_class in (ModelClass.FINANCIAL, ModelClass.SENTIMENT):
        predictions = [
            m.predicted_next
            for m in models
            if m.passed_filter and m.candidate.model_class is model_class
        ]
        up, down = sum(p > 0 for p in predictions), sum(p < 0 for p in predictions)
        counts.append((len(predictions), up, down))
    return counts[0], counts[1]


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
        (the function ``votes`` reads them off ``fit_window``'s models), or
        None when the window was infeasible; the emission is the chosen
        class's majority sign.  ``class_override`` substitutes an externally
        arbitrated class for the engine's own spread-based choice.
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


@dataclass(frozen=True)
class PipelineResult:
    """A reference run's records and engines."""

    records: tuple[PredictionRecord, ...]
    engines: tuple[TfwEngine, ...]
    start: int


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
