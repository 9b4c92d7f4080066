"""Fixed-stake trading simulation, baselines, and beta/gamma grid training.

Every prediction is traded with the same stake: long on +1, short on -1,
flat on abstention, so the running strategy curve is a plain sum of signed
returns.  Two baselines frame it: a buy-and-hold benchmark accumulating
every session return (reported both stake-normalized and compounded) and a
clairvoyant optimum accumulating absolute returns.  Training picks the
(beta, gamma) pair maximizing the strategy sum over a chronological prefix
of the data.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

from .adaptive import (
    FitFn,
    PipelineParams,
    PredictionRecord,
    check_cost_per_trade,
    check_decays,
    check_train_fraction,
    first_session,
    prediction_record,
    replay_grid,
)
from .errors import ConfigError, DataError
from .model_space import FitTable, ModelClass
from .sessions import SessionSeries, write_csv

REPORT_HEADER = (
    "index",
    "decision",
    "step_pnl",
    "cum_strategy",
    "cum_benchmark",
    "cum_benchmark_compounded",
    "cum_optimal",
)
TRAINING_HEADER = ("beta", "gamma", "train_return")

GRID_VALUES = tuple(i / 10 for i in range(11))


@dataclass(frozen=True)
class TradeLedger:
    """Per-session decisions and the running curves they produce, as columns.

    ``decisions[i]`` is the trade in session ``index[i]``: +1 long, -1 short,
    0 flat.  ``hit_rate`` is None when no prediction landed on a nonzero
    return, the only sessions where correctness is defined.
    """

    index: tuple[int, ...]
    decisions: tuple[int, ...]
    step_pnl: tuple[float, ...]
    cum_strategy: tuple[float, ...]
    cum_benchmark: tuple[float, ...]
    cum_benchmark_compounded: tuple[float, ...]
    cum_optimal: tuple[float, ...]
    hit_rate: float | None
    n_trades: int

    @property
    def final_strategy(self) -> float:
        return self.cum_strategy[-1] if self.cum_strategy else 0.0

    @property
    def final_benchmark(self) -> float:
        return self.cum_benchmark[-1] if self.cum_benchmark else 0.0

    @property
    def final_optimal(self) -> float:
        return self.cum_optimal[-1] if self.cum_optimal else 0.0


# A decision's word in the report.
_ACTIONS = {1: "long", -1: "short", 0: "none"}


def _running(values: Iterable[float], op=operator.add, start: float = 0.0) -> tuple[float, ...]:
    """The running ``op`` from ``start``; a sum from 0.0 turns a first -0.0 step into 0.0."""
    return tuple(itertools.accumulate(values, op, initial=start))[1:]


def simulate(
    records: Sequence[PredictionRecord],
    returns: Sequence[float],
    cost_per_trade: float = 0.0,
) -> TradeLedger:
    """Trade the prediction series against its aligned session returns."""
    returns = [float(r) for r in returns]  # the ledger holds Python floats, whatever comes in
    if len(records) != len(returns):
        raise DataError(f"{len(records)} records but {len(returns)} returns")
    check_cost_per_trade(cost_per_trade)
    directions = [record.predicted_sign or 0 for record in records]
    steps = [d * r - cost_per_trade if d else 0.0 for d, r in zip(directions, returns)]
    scored = [d * r > 0 for d, r in zip(directions, returns) if d and r]
    growth = _running([1.0 + r for r in returns], operator.mul, 1.0)
    return TradeLedger(
        index=tuple(record.index for record in records),
        decisions=tuple(directions),
        step_pnl=tuple(steps),
        cum_strategy=_running(steps),
        cum_benchmark=_running(returns),
        cum_benchmark_compounded=tuple(g - 1.0 for g in growth),
        cum_optimal=_running(map(abs, returns)),
        hit_rate=sum(scored) / len(scored) if scored else None,
        n_trades=len(directions) - directions.count(0),
    )


@dataclass(frozen=True)
class TrainingResult:
    """``fit_table`` is None under ``fit_fn``; ``replay_seconds`` times ``replay_grid``
    alone.  Neither takes part in equality."""

    beta: float
    gamma: float
    train_return: float
    grid: tuple[tuple[float, float, float], ...]
    split_index: int
    scored_sessions: int
    fit_table: FitTable | None = field(compare=False)
    replay_seconds: float = field(compare=False)


def split_point(n_sessions: int, train_fraction: float) -> int:
    check_train_fraction(train_fraction)
    return math.floor(n_sessions * train_fraction)


def _replay(series: SessionSeries, params: PipelineParams, span: range, points, fit_fn):
    """``replay_grid`` of ``points`` over a span's sessions, the FitTable of their cells
    (None when ``fit_fn(t, w)`` serves them instead), and the seconds of the replay alone."""
    if fit_fn is None:
        table = FitTable(series, span, params.windows, params.p_threshold,
                         normalize=params.normalize_sentiment)
        counts = table.vote_counts
    else:
        table, counts = None, [[fit_fn(t, w) for w in params.windows] for t in span]
    began = time.perf_counter()
    replay = replay_grid(counts, series.returns[span.start:span.stop].tolist(), points, params)
    return replay, table, time.perf_counter() - began


def train_params(
    series: SessionSeries,
    params: PipelineParams,
    grid: Sequence[tuple[float, float]] | None = None,
    *,
    fit_fn: FitFn | None = None,
) -> TrainingResult:
    """Grid-search beta and gamma on the chronological training prefix.

    Each grid point starts from fresh engine state at the warm-up's first
    session and is scored by the final strategy sum over sessions
    [first_session, split); ties go to the smaller beta, then the smaller
    gamma.  The default grid crosses {0.0, 0.1, ..., 1.0} with itself.
    Fits depend on neither beta nor gamma, so the vote counts are built
    once, from a ``FitTable`` or from ``fit_fn``, and ``replay_grid``
    scores every point in one pass over them, at the split and cost of
    ``params``.  Every grid point is checked before any fit runs.
    """
    split = split_point(len(series), params.train_fraction)
    t0 = first_session(params)
    if split <= t0:
        raise DataError(
            f"training span of {split} session(s) cannot warm up tfw_max="
            f"{params.tfw_max}; need at least {t0 + 1}"
        )
    if grid is None:
        grid = [(b, g) for b in GRID_VALUES for g in GRID_VALUES]
    points = [(float(b), float(g)) for b, g in grid]  # numpy scalars would reach the files
    if not points:
        raise ConfigError("grid must contain at least one (beta, gamma) point")
    for beta, gamma in points:
        check_decays(beta, gamma)

    replay, table, replay_seconds = _replay(series, params, range(t0, split), points, fit_fn)
    train_returns = replay.strategy.tolist()
    best = max(range(len(points)), key=train_returns.__getitem__)  # the first of equal maxima
    return TrainingResult(
        beta=points[best][0],
        gamma=points[best][1],
        train_return=train_returns[best],
        grid=tuple((b, g, ret) for (b, g), ret in zip(points, train_returns)),
        split_index=split,
        scored_sessions=split - t0,
        fit_table=table,
        replay_seconds=replay_seconds,
    )


@dataclass(frozen=True)
class EvaluationResult:
    """``fit_table`` is None under ``fit_fn``; ``replay_seconds`` times ``replay_grid``
    alone.  Neither takes part in equality."""

    ledger: TradeLedger
    records: tuple[PredictionRecord, ...]
    start: int
    fit_table: FitTable | None = field(compare=False)
    replay_seconds: float = field(compare=False)


def evaluate(
    series: SessionSeries,
    params: PipelineParams,
    *,
    fit_fn: FitFn | None = None,
) -> EvaluationResult:
    """Trade the pipeline's predictions over the evaluation span.

    The span is everything after the chronological split; its start is
    pushed past the longest window's warm-up, so every engine participates
    from the first traded session.  ``replay_grid`` at the one point
    (beta, gamma) picks each session's window, class and sign, giving the
    records of ``reference.run_pipeline(series, params, start=split)``.
    Unset decays are a ConfigError before any fit.
    """
    point = params.decays
    start, end = split_point(len(series), params.train_fraction), len(series)
    t0 = first_session(params, start)
    if t0 >= end:
        raise DataError(
            f"no sessions to evaluate in [{start}, {end}) after warm-up; "
            f"need sessions beyond {first_session(params)}"
        )
    replay, table, replay_seconds = _replay(series, params, range(t0, end), [point], fit_fn)
    returns = series.returns[t0:].tolist()
    picks = zip(*(pick[:, 0].tolist() for pick in (replay.window, replay.sentiment, replay.sign)))
    classes = (ModelClass.FINANCIAL, ModelClass.SENTIMENT)
    records = tuple(
        prediction_record(t, params.windows[k], classes[sentiment], sign, r)
        if sign
        else prediction_record(t, None, None, None, r)
        for t, r, (k, sentiment, sign) in zip(range(t0, end), returns, picks)
    )
    ledger = simulate(records, returns, params.cost_per_trade)
    return EvaluationResult(ledger, records, t0, table, replay_seconds)


def write_report_csv(ledger: TradeLedger, stream: IO[str]) -> None:
    write_csv(stream, REPORT_HEADER, zip(
        ledger.index, map(_ACTIONS.__getitem__, ledger.decisions), ledger.step_pnl,
        ledger.cum_strategy, ledger.cum_benchmark, ledger.cum_benchmark_compounded,
        ledger.cum_optimal,
    ))


def write_training_csv(result: TrainingResult, stream: IO[str]) -> None:
    write_csv(stream, TRAINING_HEADER, result.grid)
