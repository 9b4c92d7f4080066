"""Plain-text run configuration.

The format is one ``key = value`` pair per line with ``#`` comments.
Unknown keys are hard errors rather than warnings: a silently ignored
misspelling of beta or gamma would change results without a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .adaptive import PipelineParams
from .backtest import check_cost_per_trade, check_train_fraction
from .errors import ConfigError
from .sessions import check_offset_minutes, parse_key_values

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


@dataclass(frozen=True)
class Config:
    """Validated run parameters; beta and gamma stay None until trained."""

    p_threshold: float = PipelineParams.p_threshold
    tfw_min: int = PipelineParams.tfw_min
    tfw_max: int = PipelineParams.tfw_max
    beta: float | None = None
    gamma: float | None = None
    initial_spread: float = PipelineParams.initial_spread
    train_fraction: float = 0.30
    offset_minutes: int = 30
    spread_scope: str = PipelineParams.spread_scope
    normalize_sentiment: bool = PipelineParams.normalize_sentiment
    cost_per_trade: float = 0.0

    def __post_init__(self) -> None:
        self.base_params()  # PipelineParams checks the pipeline fields
        if (self.beta is None) != (self.gamma is None):
            raise ConfigError("beta and gamma must be set together")
        check_train_fraction(self.train_fraction)
        check_offset_minutes(self.offset_minutes)
        check_cost_per_trade(self.cost_per_trade)

    @property
    def has_params(self) -> bool:
        return self.beta is not None and self.gamma is not None

    def with_params(self, beta: float, gamma: float) -> "Config":
        return replace(self, beta=beta, gamma=gamma)

    def base_params(self) -> PipelineParams:
        """The PipelineParams this config describes; 0.0 stands in for an unset beta or gamma."""
        values = {f.name: getattr(self, f.name) for f in fields(PipelineParams)}
        values.update(beta=self.beta or 0.0, gamma=self.gamma or 0.0)
        return PipelineParams(**values)

    def pipeline_params(self) -> PipelineParams:
        if not self.has_params:
            raise ConfigError(
                "beta and gamma are unset; train and pass --params, or set them in the config"
            )
        return self.base_params()


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _convert(key: str, raw: str):
    """Convert by the field's annotation; ``float`` and ``float | None`` read a number."""
    kind = _FIELD_TYPES[key]
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if kind == "bool":
        try:
            return _BOOL_WORDS[raw.lower()]
        except KeyError:
            raise ConfigError(f"{key}: expected true or false, got {raw!r}") from None
    if kind == "str":
        return raw
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def parse_config(text: str) -> Config:
    pairs = parse_key_values(text, "config", _FIELD_TYPES)
    return Config(**{key: _convert(key, raw) for key, (_, raw) in pairs.items()})


def load_config(path: str) -> Config:
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


def format_params(beta: float, gamma: float) -> str:
    """The params file the train command writes; ``parse_params_file`` reads it back exactly."""
    return f"beta = {beta!r}\ngamma = {gamma!r}\n"


def parse_params_file(text: str) -> tuple[float, float]:
    """Read the beta/gamma pair written by ``format_params``."""
    pairs = parse_key_values(text, "params", ("beta", "gamma"), required=("beta", "gamma"))

    def number(key: str) -> float:
        lineno, raw = pairs[key]
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"params line {lineno}: expected a number, got {raw!r}") from None

    return number("beta"), number("gamma")
