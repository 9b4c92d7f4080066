"""Sessions of one traded instrument from raw price ticks and half-hour sentiment buckets.

``build_sessions`` turns the ticks and buckets into a series in one call.
Each trading day yields one Day session clipped a configurable number of
minutes inside the market open/close; the gap to the next trading day
(weekends and holidays included) yields one Night session carrying the
overnight price change.  Sentiment counts are binned into sessions by
half-open [open, close) membership, and every session's simple return is
(close - open) / open.

``config.parse_calendar`` reads a ``MarketCalendar`` from its settings
file; this module does not know that format.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from dataclasses import dataclass, field, fields
from datetime import date, datetime, time, timedelta, timezone
from functools import cached_property
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar
from zoneinfo import ZoneInfo

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class MarketCalendar:
    """Monday-to-Friday market hours in a local timezone, plus holiday closures.

    Every trading day opens at ``market_open`` and closes at
    ``market_close`` local wall time; weekends and holidays never trade.
    numpy's business-day calls over ``holiday_dates`` apply that rule.
    """

    timezone: str
    market_open: time
    market_close: time
    holidays: frozenset[date] = frozenset()

    def __post_init__(self) -> None:
        if not self.market_open < self.market_close:
            raise ConfigError(f"calendar: open must precede close, got open = "
                              f"{self.market_open:%H:%M}, close = {self.market_close:%H:%M}")
        self.tzinfo  # an unknown zone fails here, not at the first session

    @cached_property
    def tzinfo(self) -> ZoneInfo:
        try:
            return ZoneInfo(self.timezone)
        except Exception as exc:  # zoneinfo raises several lookup error types
            raise ConfigError(f"timezone: unknown zone {self.timezone!r}") from exc

    @cached_property
    def holiday_dates(self) -> np.ndarray:
        """The holidays as sorted ``datetime64[D]``, numpy's business-day form of them."""
        return np.array(sorted(self.holidays), dtype="datetime64[D]")

    def is_trading_day(self, day: date) -> bool:
        return bool(np.is_busday(day, holidays=self.holiday_dates))

    def market_open_utc(self, day: date) -> datetime:
        return datetime.combine(day, self.market_open, tzinfo=self.tzinfo).astimezone(UTC)

    def market_close_utc(self, day: date) -> datetime:
        return datetime.combine(day, self.market_close, tzinfo=self.tzinfo).astimezone(UTC)


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


# Tick and bucket columns hold UTC instants as datetime64[us], filled with
# microseconds since _EPOCH: numpy converts a datetime far more slowly.
_EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
_MICROSECOND = timedelta(microseconds=1)


def _micros(moment: datetime) -> int:
    return (moment - _EPOCH) // _MICROSECOND


def _capped(count: int) -> int:
    """The count, or one just outside [0, VALUE_CAP]: int64 holds it, the series rejects it."""
    return min(max(count, -1), VALUE_CAP + 1)


def _tick_row(row: list[str]) -> tuple[int, float]:
    timestamp = _parse_field(parse_utc, "timestamp", row[0])
    price = _parse_field(float, "price", row[1])
    if not (math.isfinite(price) and price > 0):
        raise ValueError(f"price must be positive and finite, got {price}")
    return _micros(timestamp), price


def _bucket_row(row: list[str]) -> tuple[int, tuple[int, ...]]:
    start = _parse_field(parse_utc, "timestamp", row[0])
    counts = tuple(_parse_field(int, "count", text) for text in row[1:])
    if start.minute not in (0, 30) or start.second != 0 or start.microsecond != 0:
        raise ValueError(f"bucket_start must sit on a 30-minute boundary, got {start.isoformat()}")
    for name, count in zip(("positive", "negative", "neutral"), counts):
        if not 0 <= count <= VALUE_CAP:
            raise ValueError(f"{name} count must be non-negative and at most 2**53")
    return _micros(start), counts


def parse_ticks(stream: IO[str]) -> tuple[np.ndarray, np.ndarray]:
    """Parse a ``timestamp,price`` CSV into two columns in input order: the
    UTC instants as ``datetime64[us]`` and the prices."""
    ticks = np.fromiter((tick for _, tick in _read_csv(stream, ("timestamp", "price"), _tick_row)),
                        [("instant", "datetime64[us]"), ("price", float)])
    return ticks["instant"], ticks["price"]


def parse_buckets(stream: IO[str]) -> tuple[np.ndarray, np.ndarray]:
    """Parse a ``bucket_start,positive,negative,neutral`` CSV into two columns
    in input order: the UTC starts as ``datetime64[us]`` and (buckets, 3) counts."""
    header = ("bucket_start", "positive", "negative", "neutral")
    buckets = np.fromiter((bucket for _, bucket in _read_csv(stream, header, _bucket_row)),
                          [("start", "datetime64[us]"), ("counts", np.int64, (3,))])
    return buckets["start"], buckets["counts"]


def check_offset_minutes(offset_minutes: int) -> None:
    # A local market day lasts under 25 hours even across a DST change, so
    # an offset of a day or more can never leave a session.
    if not 0 <= offset_minutes < 1440:
        raise ConfigError(f"offset_minutes: must lie in [0, 1440), got {offset_minutes}")


def build_sessions(
    ticks: tuple[np.ndarray, np.ndarray],
    buckets: tuple[np.ndarray, np.ndarray],
    calendar: MarketCalendar,
    offset_minutes: int = 30,
) -> SessionSeries:
    """Sample each trading day's prices from the ticks, alternate Day and Night
    sessions, and bin the sentiment counts into them.

    ``ticks`` and ``buckets`` are the parsers' columns, rows in any order.
    A Day runs from market open plus the offset to market close minus it.
    Its open and close prices are the latest ticks at or before those
    instants (the last read of ticks at one instant), and only ticks inside
    that day's market hours are eligible.
    A day where either instant has no eligible tick is dropped with a
    warning, and a run of trading days without any tick gets one warning.
    A Night runs from one Day's close to the next Day's open and takes
    their prices, so weekend and holiday gaps become one long Night.  A
    tick whose local date or sampling instants fall outside years 1-9999
    is a DataError, as are fewer than 2 sampled days.  Buckets outside the
    covered range are discarded with a warning.
    """
    check_offset_minutes(offset_minutes)
    instants, prices = ticks
    order = np.argsort(instants, kind="stable")  # equal instants stay in reading order
    times, prices = instants[order].astype("datetime64[us]").view(np.int64), prices[order]
    offset = timedelta(minutes=offset_minutes)

    def latest_at_or_before(lower: datetime, instant: datetime) -> float | None:
        position = np.searchsorted(times, _micros(instant), side="right") - 1
        if position < 0 or times[position] < _micros(lower):
            return None
        return prices[position]

    # An eligible tick lies inside its own local day's market hours, so only
    # the local dates that hold a tick can yield prices.
    tz = calendar.tzinfo

    def out_of_range(tick: int) -> DataError:
        return DataError(f"tick {(_EPOCH + tick * _MICROSECOND).isoformat()}: its session in "
                         f"{calendar.timezone} falls outside years 1-9999")

    # tz.fromutc of the UTC fields tagged with tz is what astimezone(tz) returns.
    local_epoch = _EPOCH.replace(tzinfo=tz)
    first_ticks: dict[date, int] = {}
    for tick in times.tolist():
        try:
            first_ticks.setdefault(tz.fromutc(local_epoch + tick * _MICROSECOND).date(), tick)
        except OverflowError:
            raise out_of_range(tick) from None
    tick_days = sorted(first_ticks)
    # Each sampled day's open and close instants and prices, in order: session
    # j runs from edge j to edge j + 1, a Day when j is even and a Night after it.
    edges: list[int] = []  # microseconds
    marks: list[float] = []
    for previous, day in zip([None, *tick_days], tick_days):
        if previous is not None:
            skipped = int(np.busday_count(previous + timedelta(days=1), day,
                                          holidays=calendar.holiday_dates))
            if skipped:
                log.warning("%d trading day(s) between %s and %s hold no tick; dropped",
                            skipped, previous, day)
        if not calendar.is_trading_day(day):
            continue
        try:
            market_open = calendar.market_open_utc(day)
            open_instant = market_open + offset
            close_instant = calendar.market_close_utc(day) - offset
        except OverflowError:
            raise out_of_range(first_ticks[day]) from None
        if not open_instant < close_instant:
            raise ConfigError(f"offset_minutes: {offset_minutes} leaves no session on {day}")
        open_price = latest_at_or_before(market_open, open_instant)
        close_price = latest_at_or_before(market_open, close_instant)
        if open_price is None or close_price is None:
            log.warning("%s: no tick at or before the sampling instant; day dropped", day)
            continue
        edges += _micros(open_instant), _micros(close_instant)
        marks += open_price, close_price
    if len(edges) < 4:
        raise DataError(f"need at least 2 trading days, got {len(edges) // 2}")
    bounds = np.array(edges, dtype="datetime64[us]")

    starts, bucket_counts = buckets[0].astype("datetime64[us]"), buckets[1]
    positions = np.searchsorted(bounds[:-1], starts, side="right") - 1
    inside = (positions >= 0) & (starts < bounds[-1])
    # Python ints, as an int64 sum of counts up to 2**53 wraps past 1,024
    # buckets; each total is capped before it becomes int64.
    counts = [[0, 0, 0] for _ in range(len(bounds) - 1)]
    for position, row in zip(positions[inside].tolist(), bucket_counts[inside].tolist()):
        counts[position] = [total + count for total, count in zip(counts[position], row)]
    discarded = len(starts) - int(np.count_nonzero(inside))
    if discarded:
        log.warning("%d sentiment bucket(s) outside the session range discarded", discarded)

    return SessionSeries(np.arange(len(bounds) - 1) % 2 == 0, bounds[:-1], bounds[1:],
                         marks[:-1], marks[1:], [list(map(_capped, row)) for row in counts])


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
