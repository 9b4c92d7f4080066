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

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO, Sequence

from .adaptive import (
    FitFn,
    PipelineParams,
    PredictionRecord,
    first_session,
    run_pipeline,
)
from .errors import ConfigError, DataError
from .model_space import FitTable
from .sessions import SessionSeries

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


class Action(str, Enum):
    LONG = "long"
    SHORT = "short"
    NOOP = "none"


@dataclass(frozen=True)
class TradeDecision:
    index: int
    action: Action


@dataclass(frozen=True)
class TradeLedger:
    """Per-session decisions and the running curves they produce.

    ``hit_rate`` is None when no prediction landed on a nonzero return, the
    only sessions where correctness is defined.
    """

    decisions: tuple[TradeDecision, ...]
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


def check_cost_per_trade(cost_per_trade: float) -> None:
    if not (math.isfinite(cost_per_trade) and cost_per_trade >= 0):
        raise ConfigError(f"cost_per_trade: must be finite and non-negative, got {cost_per_trade}")


def check_train_fraction(train_fraction: float) -> None:
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction: must lie in (0, 1), got {train_fraction}")


def simulate(
    records: Sequence[PredictionRecord],
    returns: Sequence[float],
    cost_per_trade: float = 0.0,
) -> TradeLedger:
    """Trade the prediction series against its aligned session returns."""
    if len(records) != len(returns):
        raise DataError(f"{len(records)} records but {len(returns)} returns")
    check_cost_per_trade(cost_per_trade)
    decisions = []
    step_pnl = []
    cum_strategy = []
    cum_benchmark = []
    cum_benchmark_compounded = []
    cum_optimal = []
    strategy = benchmark = optimal = 0.0
    growth = 1.0
    hits = predicted_nonzero = n_trades = 0
    for record, r in zip(records, returns):
        if record.predicted_sign is None:
            direction = 0
            action = Action.NOOP
        elif record.predicted_sign > 0:
            direction = 1
            action = Action.LONG
        else:
            direction = -1
            action = Action.SHORT
        if direction != 0:
            n_trades += 1
            if r != 0:
                predicted_nonzero += 1
                if direction == (1 if r > 0 else -1):
                    hits += 1
        step = direction * r - cost_per_trade * abs(direction) if direction else 0.0
        strategy += step
        benchmark += r
        growth *= 1.0 + r
        optimal += abs(r)
        decisions.append(TradeDecision(record.index, action))
        step_pnl.append(step)
        cum_strategy.append(strategy)
        cum_benchmark.append(benchmark)
        cum_benchmark_compounded.append(growth - 1.0)
        cum_optimal.append(optimal)
    hit_rate = hits / predicted_nonzero if predicted_nonzero else None
    return TradeLedger(
        decisions=tuple(decisions),
        step_pnl=tuple(step_pnl),
        cum_strategy=tuple(cum_strategy),
        cum_benchmark=tuple(cum_benchmark),
        cum_benchmark_compounded=tuple(cum_benchmark_compounded),
        cum_optimal=tuple(cum_optimal),
        hit_rate=hit_rate,
        n_trades=n_trades,
    )


@dataclass(frozen=True)
class TrainingResult:
    beta: float
    gamma: float
    train_return: float
    grid: tuple[tuple[float, float, float], ...]
    split_index: int
    scored_sessions: int


def split_point(n_sessions: int, train_fraction: float) -> int:
    check_train_fraction(train_fraction)
    return math.floor(n_sessions * train_fraction)


def train_params(
    series: SessionSeries,
    base_params: PipelineParams,
    grid: Sequence[tuple[float, float]] | None = None,
    train_fraction: float = 0.30,
    *,
    cost_per_trade: float = 0.0,
    fit_fn: FitFn | None = None,
) -> TrainingResult:
    """Grid-search beta and gamma on the chronological training prefix.

    Each grid point reruns the full pipeline from fresh engine state over
    sessions [0, split) and scores its final strategy sum; ties go to the
    smaller beta, then the smaller gamma.  The default grid crosses
    {0.0, 0.1, ..., 1.0} with itself.  Fits do not depend on beta or gamma,
    so by default the first grid point's run builds the ``FitTable`` and
    every later point replays from it; ``fit_fn`` replaces it for every
    point, which is how tests substitute ``votes(fit_window(...))`` or a
    fake.  Grid points replay one after another.
    """
    split = split_point(len(series), train_fraction)
    minimum = first_session(base_params) + 1
    if split < minimum:
        raise DataError(
            f"training span of {split} session(s) cannot warm up tfw_max="
            f"{base_params.tfw_max}; need at least {minimum}"
        )
    if grid is None:
        points = [(b, g) for b in GRID_VALUES for g in GRID_VALUES]
    else:
        points = list(grid)
        if not points:
            raise ConfigError("grid must contain at least one (beta, gamma) point")
    train_returns = []
    for beta, gamma in points:
        params = replace(base_params, beta=beta, gamma=gamma)
        result = run_pipeline(series, params, end=split, fit_fn=fit_fn)
        if fit_fn is None:
            fit_fn = result.fit_table
        returns = series.returns[result.start : split]
        ledger = simulate(result.records, returns, cost_per_trade)
        train_returns.append(ledger.final_strategy)

    best = 0
    for i in range(1, len(points)):
        if train_returns[i] > train_returns[best]:
            best = i
    beta, gamma = points[best]
    grid_rows = tuple(
        (b, g, ret) for (b, g), ret in zip(points, train_returns)
    )
    return TrainingResult(
        beta=beta,
        gamma=gamma,
        train_return=train_returns[best],
        grid=grid_rows,
        split_index=split,
        scored_sessions=len(result.records),
    )


@dataclass(frozen=True)
class EvaluationResult:
    ledger: TradeLedger
    records: tuple[PredictionRecord, ...]
    start: int
    session_seconds: tuple[float, ...]
    fit_table: FitTable | None


def evaluate(
    series: SessionSeries,
    params: PipelineParams,
    train_fraction: float = 0.30,
    *,
    cost_per_trade: float = 0.0,
    fit_fn: FitFn | None = None,
) -> EvaluationResult:
    """Trade the pipeline's predictions over the evaluation span.

    The span is everything after the chronological split; its start is
    pushed past the longest window's warm-up, so every engine participates
    from the first traded session.  ``run_pipeline`` replays any other span.
    """
    start, end = split_point(len(series), train_fraction), len(series)
    result = run_pipeline(series, params, start=start, fit_fn=fit_fn)
    if not result.records:
        raise DataError(
            f"no sessions to evaluate in [{start}, {end}) after warm-up; "
            f"need sessions beyond {first_session(params)}"
        )
    returns = series.returns[result.start :]
    ledger = simulate(result.records, returns, cost_per_trade)
    return EvaluationResult(
        ledger=ledger,
        records=result.records,
        start=result.start,
        session_seconds=result.session_seconds,
        fit_table=result.fit_table,
    )


def write_report_csv(ledger: TradeLedger, stream: IO[str]) -> None:
    stream.write(",".join(REPORT_HEADER) + "\n")
    for i, decision in enumerate(ledger.decisions):
        row = (
            str(decision.index),
            decision.action.value,
            repr(ledger.step_pnl[i]),
            repr(ledger.cum_strategy[i]),
            repr(ledger.cum_benchmark[i]),
            repr(ledger.cum_benchmark_compounded[i]),
            repr(ledger.cum_optimal[i]),
        )
        stream.write(",".join(row) + "\n")


def write_training_csv(result: TrainingResult, stream: IO[str]) -> None:
    stream.write(",".join(TRAINING_HEADER) + "\n")
    for beta, gamma, train_return in result.grid:
        stream.write(f"{beta!r},{gamma!r},{train_return!r}\n")
