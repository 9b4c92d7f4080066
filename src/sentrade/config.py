"""The plain-text settings files: run config, trained params and market calendar.

Each is one ``key = value`` pair per line with ``#`` comment lines, and
``read_settings`` reads all three, so a bad value names its file, line and key.
Unknown keys are hard errors rather than warnings: a silently ignored
misspelling of beta or gamma would change results without a trace.
"""

from __future__ import annotations

from dataclasses import fields
from datetime import date, datetime, time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from .adaptive import PipelineParams
from .errors import ConfigError

if TYPE_CHECKING:
    from .ingest import MarketCalendar

Reading = tuple[Callable[[str], Any], str]


def read_settings(text: str, what: str, readings: Mapping[str, Reading],
                  required: Iterable[str] = ()) -> dict[str, Any]:
    """Read ``key = value`` lines into ``{key: converted value}``.

    ``readings`` gives each key its converter and what the converter
    expects.  Blank lines and lines starting with ``#`` are skipped.  A line
    without ``=``, a key outside ``readings``, a repeated key, a value whose
    converter raises ValueError or KeyError, and a missing ``required`` key
    are ConfigErrors that start with ``what`` and, where there is one, the line.
    """
    values: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{what} line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in readings:
            raise ConfigError(f"{what} line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{what} line {lineno}: duplicate key {key!r}")
        convert, expected = readings[key]
        try:
            values[key] = convert(raw)
        except (ValueError, KeyError):
            message = f"{what} line {lineno}: {key}: expected {expected}, got {raw!r}"
            raise ConfigError(message) from None
    for key in required:
        if key not in values:
            raise ConfigError(f"{what}: missing required key {key!r}")
    return values


_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}
_NUMBER: Reading = (float, "a number")
_BY_ANNOTATION: dict[str, Reading] = {
    "int": (int, "an integer"),
    "float": _NUMBER,
    "float | None": _NUMBER,
    "bool": (lambda raw: _BOOL_WORDS[raw.lower()], "true or false"),
    "str": (str, "text"),
}
# A PipelineParams field of any other type fails here, at import.
_CONFIG_READINGS = {f.name: _BY_ANNOTATION[f.type] for f in fields(PipelineParams)}


def parse_config(text: str) -> PipelineParams:
    """The run parameters a config file sets; every key is a ``PipelineParams`` field."""
    return PipelineParams(**read_settings(text, "config", _CONFIG_READINGS))


def format_params(beta: float, gamma: float) -> str:
    """The params file the train command writes; ``parse_params_file`` reads it back exactly."""
    return f"beta = {beta!r}\ngamma = {gamma!r}\n"


def parse_params_file(text: str) -> tuple[float, float]:
    """Read the beta/gamma pair written by ``format_params``."""
    readings = {"beta": _NUMBER, "gamma": _NUMBER}
    values = read_settings(text, "params", readings, required=readings)
    return values["beta"], values["gamma"]


def _wall_time(raw: str) -> time:
    return datetime.strptime(raw, "%H:%M").time()


def _dates(raw: str) -> frozenset[date]:
    return frozenset(date.fromisoformat(piece.strip()) for piece in raw.split(",") if piece.strip())


_CALENDAR_READINGS: dict[str, Reading] = {
    "timezone": (str, "a zone name"),
    "open": (_wall_time, "HH:MM"),
    "close": (_wall_time, "HH:MM"),
    "holidays": (_dates, "comma-separated ISO dates"),
}


def parse_calendar(text: str) -> MarketCalendar:
    """The ``MarketCalendar`` a calendar file describes; ``holidays`` is optional."""
    from .ingest import MarketCalendar  # aggregate's input: the train and backtest path skips it

    values = read_settings(text, "calendar", _CALENDAR_READINGS,
                           required=("timezone", "open", "close"))
    return MarketCalendar(values["timezone"], values["open"], values["close"],
                          values.get("holidays", frozenset()))
