"""Adaptive short-term trading prediction and backtesting.

The pipeline regresses each session's simple return on earlier returns and
social-sentiment counts over a family of trailing windows, arbitrates
between the financial and sentiment model classes with a decayed spread,
ranks windows by a decayed quality score, and trades the resulting sign
predictions with a fixed stake against benchmark and clairvoyant baselines.
"""

from .adaptive import (
    ClassOutcome,
    EngineStep,
    PipelineParams,
    PipelineResult,
    PredictionRecord,
    TfwEngine,
    majority_sign,
    run_pipeline,
    select_class,
    select_tfw,
    update_quality,
    update_spread,
)
from .backtest import (
    EvaluationResult,
    TradeLedger,
    TrainingResult,
    evaluate,
    simulate,
    train_params,
)
from .config import parse_calendar, parse_config
from .errors import ConfigError, DataError, SentradeError
from .model_space import (
    CANDIDATES,
    Candidate,
    FitTable,
    FittedModel,
    ModelClass,
    Variable,
    enumerate_candidates,
    fit_window,
    votes,
)
from .regression import DesignMatrix, FitResult, fit_ols, two_sided_t_pvalue
from .sessions import (
    MarketCalendar,
    SessionSeries,
    build_sessions,
    parse_buckets,
    parse_ticks,
    read_sessions_csv,
    write_sessions_csv,
)
from .synth import SyntheticScenario, generate

__version__ = "0.1.0"
