"""Plain-text run configuration.

The format is one ``key = value`` pair per line with ``#`` comments.
Unknown keys are hard errors rather than warnings: a silently ignored
misspelling of beta or gamma would change results without a trace.
"""

from __future__ import annotations

from dataclasses import fields

from .adaptive import PipelineParams
from .errors import ConfigError
from .sessions import parse_key_values

_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}
_FIELD_TYPES = {f.name: f.type for f in fields(PipelineParams)}


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


def parse_config(text: str) -> PipelineParams:
    """The run parameters a config file sets; every key is a ``PipelineParams`` field."""
    pairs = parse_key_values(text, "config", _FIELD_TYPES)
    return PipelineParams(**{key: _convert(key, raw) for key, (_, raw) in pairs.items()})


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
