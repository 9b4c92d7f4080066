"""A session series of one traded instrument, and the CSV file that holds it.

A series alternates Day and Night sessions without gaps.  ``SessionSeries``
holds one read-only numpy column per field and is the one place the series
rules are checked.  ``read_sessions_csv`` and ``write_sessions_csv`` read
and write the sessions CSV, and ``_read_csv`` and ``write_csv`` are the one
reader and writer of every table the package reads or writes.
``ingest.build_sessions`` builds a series from raw ticks and sentiment
buckets, and ``synth.generate`` one from a seeded scenario.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import ConfigError, DataError

UTC = timezone.utc
_T = TypeVar("_T")

# The largest count, and the largest |return|, a session may hold.  Counts up
# to it are exact as floats, and the cross-products a regression forms over a
# window of such values stay finite; past it the fits overflow or fail to
# converge instead of the file failing to load.
VALUE_CAP = 2**53

_KINDS = ("night", "day")  # by the ``day`` column's value
_COUNTS = ("pos", "neg", "neu")
SESSIONS_HEADER = ("index", "kind", "open_time", "close_time", "open_price", "close_price",
                   *_COUNTS)


def parse_utc(text: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime.

    Accepts a trailing 'Z' or an explicit offset; naive timestamps are
    rejected because session boundaries are defined on UTC instants.
    """
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    parsed = datetime.fromisoformat(raw)
    if parsed.tzinfo is None:
        raise ValueError("timestamp must carry a UTC offset")
    return parsed.astimezone(UTC)


class SeriesError(DataError):
    """A session series breaks a rule at session ``index``."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True, eq=False)
class SessionSeries:
    """An ordered, gap-free alternation of Day and Night sessions, one column per field.

    Session i is a Day session when ``day[i]``, else a Night one.  It runs
    from ``open_times[i]`` to ``close_times[i]`` (UTC, ``datetime64[us]``),
    opens at ``open_prices[i]``, closes at ``close_prices[i]`` and holds the
    (pos, neg, neu) ``counts[i]``.  ``returns`` holds each session's
    (close - open) / open, computed from the prices.  The columns are
    read-only, and two series are equal when their columns are.
    """

    day: np.ndarray
    open_times: np.ndarray
    close_times: np.ndarray
    open_prices: np.ndarray
    close_prices: np.ndarray
    counts: np.ndarray
    returns: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        """Raise a SeriesError for the earliest failing session and its first broken rule."""
        dtypes = (bool, "datetime64[us]", "datetime64[us]", float, float, np.int64)
        columns = [np.array(getattr(self, f.name), dtype) for f, dtype in zip(fields(self), dtypes)]
        day, opened, closed, open_prices, close_prices, counts = columns
        counts = columns[5] = counts.reshape(-1, 3)
        if len({len(column) for column in columns}) > 1:
            raise DataError("session columns must hold one row per session")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            returns = (close_prices - open_prices) / open_prices
        for f, column in zip(fields(self), [*columns, returns]):
            column.flags.writeable = False
            object.__setattr__(self, f.name, column)
        rules = {  # each rule's message and the sessions breaking it, in reporting order
            "session {i}: prices must be positive and finite": ~(
                np.isfinite(open_prices) & (open_prices > 0)
                & np.isfinite(close_prices) & (close_prices > 0)),
            "session {i}: |return| must be finite and at most 2**53":
                ~(np.abs(returns) <= VALUE_CAP),
            **{f"session {{i}}: {name} count must be non-negative and at most 2**53":
               ~((column >= 0) & (column <= VALUE_CAP)) for name, column in zip(_COUNTS, counts.T)},
            "session {i}: open_time must precede close_time": ~(opened < closed),
            # Session 0 is checked against a stand-in that passes.
            "sessions {previous} and {i} do not alternate":
                day == np.concatenate([~day[:1], day[:-1]]),
            "gap between sessions {previous} and {i}":
                opened != np.concatenate([opened[:1], closed[:-1]]),
            "boundary price mismatch between sessions {previous} and {i}":
                open_prices != np.concatenate([open_prices[:1], close_prices[:-1]]),
        }
        faults = np.column_stack(list(rules.values()))
        if faults.any():
            i, rule = divmod(int(faults.argmax()), len(rules))
            raise SeriesError(i, list(rules)[rule].format(previous=i - 1, i=i))

    def __len__(self) -> int:
        return len(self.day)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SessionSeries) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _read_csv(
    stream: IO[str], header: Sequence[str], parse_row: Callable[[list[str]], _T]
) -> Iterator[tuple[int, _T]]:
    """Parse a CSV with a fixed header, yielding each row's physical line and
    ``parse_row`` value.

    Blank and ``#`` lines reach ``csv.reader`` as empty lines, which it
    counts and skips, so a quote in a comment cannot swallow the lines after
    it.  Fields are stripped.  A wrong or missing header, a wrong field
    count, and a ValueError or OverflowError (a timestamp outside years
    1-9999 in UTC) from ``parse_row`` are DataErrors naming the physical
    line where the reader stopped.
    """
    reader = csv.reader(text if text.lstrip()[:1] not in ("", "#") else "" for text in stream)
    rows = ([text.strip() for text in raw] for raw in reader if raw)
    try:
        if next(rows, None) != list(header):
            raise ValueError(f"expected header {','.join(header)!r}")
        for fields in rows:
            if len(fields) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
            yield reader.line_num, parse_row(fields)
    except (ValueError, OverflowError, csv.Error) as exc:
        raise DataError(f"line {max(reader.line_num, 1)}: {exc}") from None


def write_csv(
    stream: IO[str], header: Sequence[str], rows: Iterable[Iterable[object]],
    comments: Iterable[str] = (),
) -> None:
    """Write a CSV that ``_read_csv`` reads back: each line of each comment
    as its own ``# `` line, the header, then one line per row.

    Fields are comma-joined as ``str`` gives them: a float, numpy's too, as
    its shortest round-trip text.  Tokens such as ``none`` are the caller's.
    """
    for comment in comments:
        stream.writelines(f"# {line}\n" for line in comment.splitlines())
    stream.write(",".join(header) + "\n")
    for fields in rows:
        stream.write(",".join(map(str, fields)) + "\n")


def _parse_field(parse: Callable[[str], _T], what: str, text: str) -> _T:
    try:
        return parse(text)
    except ValueError as exc:
        detail = f" ({exc})" if parse is parse_utc else ""
        raise ValueError(f"bad {what} {text!r}{detail}") from None


# Instant columns (sessions, ticks, buckets) hold UTC instants as datetime64[us],
# filled with microseconds since _EPOCH: numpy converts a datetime far more slowly.
_EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
_MICROSECOND = timedelta(microseconds=1)


def _micros(moment: datetime) -> int:
    return (moment - _EPOCH) // _MICROSECOND


def _capped(count: int) -> int:
    """The count, or one just outside [0, VALUE_CAP]: int64 holds it, the series rejects it."""
    return min(max(count, -1), VALUE_CAP + 1)


def check_offset_minutes(offset_minutes: int) -> None:
    # A local market day lasts under 25 hours even across a DST change, so
    # an offset of a day or more can never leave a session.
    if not 0 <= offset_minutes < 1440:
        raise ConfigError(f"offset_minutes: must lie in [0, 1440), got {offset_minutes}")


def write_sessions_csv(series: SessionSeries, stream: IO[str], comments: Iterable[str] = ()) -> None:
    """Write the re-ingestible sessions CSV (optionally preceded by # comments)."""
    # YYYY-MM-DDTHH:MM:SSZ, a four-digit year keeping every year readable.
    opens, closes = (np.char.add(np.datetime_as_string(times, unit="s"), "Z").tolist()
                     for times in (series.open_times, series.close_times))
    write_csv(stream, SESSIONS_HEADER, zip(
        range(len(series)), [_KINDS[day] for day in series.day.tolist()], opens, closes,
        series.open_prices.tolist(), series.close_prices.tolist(), *series.counts.T.tolist(),
    ), comments)


def read_sessions_csv(stream: IO[str]) -> SessionSeries:
    """Parse a sessions CSV back into a SessionSeries.  Indices must count
    from 0, and a series fault is reported at its session's line."""
    positions = itertools.count()

    def session_row(row: list[str]) -> tuple:
        index, position = int(row[0]), next(positions)
        if index != position:
            raise ValueError(f"session index {index} out of order at {position}")
        return (_parse_field(_KINDS.index, "kind", row[1]), _micros(parse_utc(row[2])),
                _micros(parse_utc(row[3])), float(row[4]), float(row[5]),
                tuple(_capped(int(count)) for count in row[6:]))

    rows = _read_csv(stream, SESSIONS_HEADER, session_row)
    table = np.fromiter(((line, *row) for line, row in rows), [
        ("line", np.int64), ("day", bool), ("open_times", "datetime64[us]"),
        ("close_times", "datetime64[us]"), ("open_prices", float), ("close_prices", float),
        ("counts", np.int64, (3,))])
    try:
        return SessionSeries(*(table[name] for name in table.dtype.names[1:]))
    except SeriesError as exc:
        raise DataError(f"line {table['line'][exc.index]}: {exc}") from None
