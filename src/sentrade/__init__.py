"""Adaptive short-term trading prediction and backtesting.

The pipeline regresses each session's simple return on earlier returns and
social-sentiment counts over a family of trailing windows, arbitrates
between the financial and sentiment model classes with a decayed spread,
ranks windows by a decayed quality score, and trades the resulting sign
predictions with a fixed stake against benchmark and clairvoyant baselines.

Importing the package loads none of its modules.  Each name below is
imported from the module that defines it on first use (PEP 562), so
``from sentrade import evaluate`` loads the ``train`` and ``backtest``
path alone, and the reference engine, the tick ingest and the synthetic
generator load only when one of their names is asked for.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "adaptive": ("PipelineParams", "PredictionRecord"),
    "backtest": (
        "EvaluationResult", "TradeLedger", "TrainingResult", "evaluate", "simulate",
        "train_params",
    ),
    "config": ("parse_calendar", "parse_config"),
    "errors": ("ConfigError", "DataError", "SentradeError"),
    "ingest": ("MarketCalendar", "build_sessions", "parse_buckets", "parse_ticks"),
    "model_space": (
        "CANDIDATES", "Candidate", "FitTable", "ModelClass", "Variable", "enumerate_candidates",
    ),
    "reference": (
        "ClassOutcome", "EngineStep", "FittedModel", "PipelineResult", "TfwEngine",
        "fit_window", "majority_sign", "run_pipeline", "select_class", "select_tfw",
        "update_quality", "update_spread", "votes",
    ),
    "regression": ("DesignMatrix", "FitResult", "fit_ols", "two_sided_t_pvalue"),
    "sessions": ("SessionSeries", "read_sessions_csv", "write_sessions_csv"),
    "synth": ("SyntheticScenario", "generate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
