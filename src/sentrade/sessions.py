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
import logging
import math
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from enum import Enum
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

SESSIONS_HEADER = (
    "index",
    "kind",
    "open_time",
    "close_time",
    "open_price",
    "close_price",
    "pos",
    "neg",
    "neu",
)


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


def format_utc(instant: datetime) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ`` in UTC; a four-digit year keeps every year readable."""
    return instant.astimezone(UTC).replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


class SessionKind(str, Enum):
    DAY = "day"
    NIGHT = "night"


@dataclass(frozen=True)
class Session:
    index: int
    kind: SessionKind
    open_time: datetime
    close_time: datetime
    open_price: float
    close_price: float
    pos: int
    neg: int
    neu: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "open_price", float(self.open_price))
        object.__setattr__(self, "close_price", float(self.close_price))
        if not all(math.isfinite(p) and p > 0 for p in (self.open_price, self.close_price)):
            raise DataError(f"session {self.index}: prices must be positive and finite")
        if not abs((self.close_price - self.open_price) / self.open_price) <= VALUE_CAP:
            raise DataError(f"session {self.index}: |return| must be finite and at most 2**53")
        for name in ("pos", "neg", "neu"):
            if not 0 <= getattr(self, name) <= VALUE_CAP:
                raise DataError(f"session {self.index}: {name} count must be non-negative "
                                "and at most 2**53")
        if not self.open_time < self.close_time:
            raise DataError(f"session {self.index}: open_time must precede close_time")


def check_next_session(previous: Session | None, session: Session) -> None:
    """Indices count from 0, kinds alternate, and a session opens where the previous one closed."""
    position = 0 if previous is None else previous.index + 1
    if session.index != position:
        raise DataError(f"session index {session.index} out of order at {position}")
    if previous is None:
        return
    if session.kind == previous.kind:
        raise DataError(f"sessions {position - 1} and {position} do not alternate")
    if session.open_time != previous.close_time:
        raise DataError(f"gap between sessions {position - 1} and {position}")
    if session.open_price != previous.close_price:
        raise DataError(f"boundary price mismatch between sessions {position - 1} and {position}")


@dataclass(frozen=True)
class SessionSeries:
    """An ordered, gap-free alternation of Day and Night sessions.

    ``returns`` holds each session's (close - open) / open, derived from its
    prices; ``Session`` already bounds it to finite and at most VALUE_CAP.
    """

    sessions: tuple[Session, ...]
    returns: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "returns", tuple(
            (s.close_price - s.open_price) / s.open_price for s in self.sessions))
        for previous, session in zip((None, *self.sessions), self.sessions):
            check_next_session(previous, session)

    def __len__(self) -> int:
        return len(self.sessions)

    @cached_property
    def returns_array(self) -> np.ndarray:
        return np.asarray(self.returns, dtype=float)

    @cached_property
    def counts(self) -> np.ndarray:
        """The (pos, neg, neu) counts of each session, one row per session."""
        rows = [(s.pos, s.neg, s.neu) for s in self.sessions]
        return np.asarray(rows, dtype=float).reshape(-1, 3)


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
    stream: IO[str],
    header: Sequence[str],
    parse_row: Callable[[list[str]], _T],
    follows: Callable[[_T | None, _T], None] = lambda previous, value: None,
) -> Iterator[_T]:
    """Parse a CSV with a fixed header, yielding one ``parse_row`` value per row.

    Blank and ``#`` lines are skipped and fields stripped.  A wrong or
    missing header, a wrong field count, and a ValueError or OverflowError
    (a timestamp outside years 1-9999 in UTC) from ``parse_row``, or from
    ``follows(previous value or None, value)``, are DataErrors naming the
    physical line where the reader stopped.
    """
    reader = csv.reader(stream)
    lines = ([text.strip() for text in raw] for raw in reader)
    lines = (f for f in lines if f not in ([], [""]) and not f[0].startswith("#"))
    try:
        if next(lines, None) != list(header):
            raise ValueError(f"expected header {','.join(header)!r}")
        previous = None
        for fields in lines:
            if len(fields) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
            value = parse_row(fields)
            follows(previous, value)
            yield value
            previous = value
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
    ticks = np.fromiter(_read_csv(stream, ("timestamp", "price"), _tick_row),
                        [("instant", "datetime64[us]"), ("price", float)])
    return ticks["instant"], ticks["price"]


def parse_buckets(stream: IO[str]) -> tuple[np.ndarray, np.ndarray]:
    """Parse a ``bucket_start,positive,negative,neutral`` CSV into two columns
    in input order: the UTC starts as ``datetime64[us]`` and (buckets, 3) counts."""
    header = ("bucket_start", "positive", "negative", "neutral")
    buckets = np.fromiter(_read_csv(stream, header, _bucket_row),
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
    spans = []  # (kind, open time, close time, open price, close price)
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
        if spans:
            spans.append((SessionKind.NIGHT, spans[-1][2], open_instant, spans[-1][4], open_price))
        spans.append((SessionKind.DAY, open_instant, close_instant, open_price, close_price))
    if len(spans) < 3:
        raise DataError(f"need at least 2 trading days, got {(len(spans) + 1) // 2}")

    starts, bucket_counts = buckets[0].astype("datetime64[us]").view(np.int64), buckets[1]
    positions = np.searchsorted([_micros(span[1]) for span in spans], starts, side="right") - 1
    inside = (positions >= 0) & (starts < _micros(spans[-1][2]))
    # Python ints, as an int64 sum of counts up to 2**53 wraps past 1,024 buckets.
    counts = [[0, 0, 0] for _ in spans]
    for position, row in zip(positions[inside].tolist(), bucket_counts[inside].tolist()):
        counts[position] = [total + count for total, count in zip(counts[position], row)]
    discarded = len(starts) - int(np.count_nonzero(inside))
    if discarded:
        log.warning("%d sentiment bucket(s) outside the session range discarded", discarded)

    return SessionSeries(tuple(Session(i, *s, *c) for i, (s, c) in enumerate(zip(spans, counts))))


def write_sessions_csv(series: SessionSeries, stream: IO[str], comments: Iterable[str] = ()) -> None:
    """Write the re-ingestible sessions CSV (optionally preceded by # comments)."""
    write_csv(stream, SESSIONS_HEADER, (
        (s.index, s.kind.value, format_utc(s.open_time), format_utc(s.close_time),
         s.open_price, s.close_price, s.pos, s.neg, s.neu)
        for s in series.sessions
    ), comments)


def read_sessions_csv(stream: IO[str]) -> SessionSeries:
    """Parse a sessions CSV back into a SessionSeries; a break in the series names its line."""
    sessions = _read_csv(stream, SESSIONS_HEADER, lambda row: Session(
        int(row[0]), SessionKind(row[1]), parse_utc(row[2]), parse_utc(row[3]),
        float(row[4]), float(row[5]), *map(int, row[6:])), check_next_session)
    return SessionSeries(tuple(sessions))
