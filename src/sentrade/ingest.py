"""Sessions from raw price ticks and half-hour sentiment buckets: what ``aggregate`` reads.

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

import logging
import math
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from functools import cached_property
from typing import IO
from zoneinfo import ZoneInfo

import numpy as np

from .errors import ConfigError, DataError
from .sessions import (
    _EPOCH,
    _MICROSECOND,
    UTC,
    VALUE_CAP,
    SessionSeries,
    _capped,
    _micros,
    _parse_field,
    _read_csv,
    check_offset_minutes,
    parse_utc,
)

log = logging.getLogger(__name__)


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
