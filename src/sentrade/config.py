"""Plain-text run configuration.

The format is one ``key = value`` pair per line with ``#`` comments.
Unknown keys are hard errors rather than warnings: a silently ignored
misspelling of beta or gamma would change results without a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .adaptive import SPREAD_SCOPES, PipelineParams
from .errors import ConfigError
from .sessions import parse_key_values

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


@dataclass(frozen=True)
class Config:
    """Validated run parameters; beta and gamma stay None until trained."""

    p_threshold: float = 0.10
    tfw_min: int = 20
    tfw_max: int = 40
    beta: float | None = None
    gamma: float | None = None
    initial_spread: float = 1.0
    train_fraction: float = 0.30
    offset_minutes: int = 30
    spread_scope: str = "per_tfw"
    normalize_sentiment: bool = False
    cost_per_trade: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.p_threshold < 1.0:
            raise ConfigError(f"p_threshold: must lie in (0, 1), got {self.p_threshold}")
        if self.tfw_min < 3:
            raise ConfigError(f"tfw_min: must be at least 3, got {self.tfw_min}")
        if self.tfw_max < self.tfw_min:
            raise ConfigError(
                f"tfw_max: must be at least tfw_min ({self.tfw_min}), got {self.tfw_max}"
            )
        for name in ("beta", "gamma"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name}: must lie in [0, 1], got {value}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction: must lie in (0, 1), got {self.train_fraction}")
        if self.offset_minutes < 0:
            raise ConfigError(f"offset_minutes: must be non-negative, got {self.offset_minutes}")
        if self.spread_scope not in SPREAD_SCOPES:
            raise ConfigError(
                f"spread_scope: must be one of {SPREAD_SCOPES}, got {self.spread_scope!r}"
            )
        if self.cost_per_trade < 0:
            raise ConfigError(f"cost_per_trade: must be non-negative, got {self.cost_per_trade}")

    @property
    def has_params(self) -> bool:
        return self.beta is not None and self.gamma is not None

    def with_params(self, beta: float, gamma: float) -> "Config":
        return replace(self, beta=beta, gamma=gamma)

    def pipeline_params(self) -> PipelineParams:
        if not self.has_params:
            raise ConfigError("beta and gamma are unset; train first or set them in the config")
        return PipelineParams(
            beta=self.beta,
            gamma=self.gamma,
            p_threshold=self.p_threshold,
            tfw_min=self.tfw_min,
            tfw_max=self.tfw_max,
            initial_spread=self.initial_spread,
            spread_scope=self.spread_scope,
            normalize_sentiment=self.normalize_sentiment,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _convert(key: str, raw: str):
    if key in ("tfw_min", "tfw_max", "offset_minutes", "seed"):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if key == "normalize_sentiment":
        try:
            return _BOOL_WORDS[raw.lower()]
        except KeyError:
            raise ConfigError(f"{key}: expected true or false, got {raw!r}") from None
    if key == "spread_scope":
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


def parse_params_file(text: str) -> tuple[float, float]:
    """Read the beta/gamma pair written by the train command."""
    pairs = parse_key_values(text, "params", ("beta", "gamma"), required=("beta", "gamma"))

    def number(key: str) -> float:
        lineno, raw = pairs[key]
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"params line {lineno}: expected a number, got {raw!r}") from None

    return number("beta"), number("gamma")
