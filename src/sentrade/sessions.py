"""Sessions of one traded instrument from raw price ticks and half-hour sentiment buckets.

Each trading day yields one Day session clipped a configurable number of
minutes inside the market open/close; the gap to the next trading day
(weekends and holidays included) yields one Night session carrying the
overnight price change.  Sentiment counts are binned into sessions by
half-open [open, close) membership, and every session's simple return is
(close - open) / open.
"""

from __future__ import annotations

import csv
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from enum import Enum
from functools import cached_property
from typing import IO, Callable, Iterable, Sequence, TypeVar
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
    return instant.astimezone(UTC).strftime("%Y-%m-%dT%H:%M:%SZ")


class SessionKind(str, Enum):
    DAY = "day"
    NIGHT = "night"


@dataclass(frozen=True, order=True)
class PriceTick:
    timestamp: datetime
    price: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.price) and self.price > 0):
            raise ValueError(f"price must be positive and finite, got {self.price}")


@dataclass(frozen=True)
class SentimentBucket:
    bucket_start: datetime
    positive: int
    negative: int
    neutral: int

    def __post_init__(self) -> None:
        start = self.bucket_start
        if start.minute not in (0, 30) or start.second != 0 or start.microsecond != 0:
            raise ValueError(
                f"bucket_start must sit on a 30-minute boundary, got {start.isoformat()}"
            )
        for name in ("positive", "negative", "neutral"):
            if not 0 <= getattr(self, name) <= VALUE_CAP:
                raise ValueError(f"{name} count must be non-negative and at most 2**53")


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
            raise ValueError(f"session {self.index}: prices must be positive and finite")
        if not abs((self.close_price - self.open_price) / self.open_price) <= VALUE_CAP:
            raise ValueError(f"session {self.index}: |return| must be finite and at most 2**53")
        for name in ("pos", "neg", "neu"):
            if not 0 <= getattr(self, name) <= VALUE_CAP:
                raise ValueError(f"session {self.index}: {name} count must be non-negative "
                                 "and at most 2**53")
        if not self.open_time < self.close_time:
            raise ValueError(f"session {self.index}: open_time must precede close_time")


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
        previous: Session | None = None
        for position, session in enumerate(self.sessions):
            if session.index != position:
                raise DataError(f"session index {session.index} out of order at {position}")
            if previous is not None:
                if session.kind == previous.kind:
                    raise DataError(f"sessions {position - 1} and {position} do not alternate")
                if session.open_time != previous.close_time:
                    raise DataError(f"gap between sessions {position - 1} and {position}")
                if session.open_price != previous.close_price:
                    raise DataError(
                        f"boundary price mismatch between sessions {position - 1} and {position}"
                    )
            previous = session

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

    @cached_property
    def lagged_regressors(self) -> np.ndarray:
        """The intercept and the five lagged variables aligned with each session.

        Row i holds [1 | R1 R2 P1 N1 Z1] as seen by session i: the returns of
        sessions i-1 and i-2 and the pos/neg/neu counts of session i-1.  Rows
        run to i = len(self), the out-of-sample row; rows 0 and 1 lack history
        and hold NaN.  Every regression design is a slice of it.
        """
        return self._lagged(self.counts)

    @cached_property
    def lagged_share_regressors(self) -> np.ndarray:
        """``lagged_regressors`` with each session's counts as shares of their
        total (all zero for a session without messages)."""
        counts = self.counts
        total = counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            return self._lagged(np.where(total > 0, counts / total, 0.0))

    def _lagged(self, counts: np.ndarray) -> np.ndarray:
        r = self.returns_array
        L = np.full((len(self) + 1, 6), np.nan)
        L[2:, 0] = 1.0
        L[2:, 1] = r[1:]
        L[2:, 2] = r[:-1]
        L[2:, 3:] = counts[1:]
        L.flags.writeable = False
        return L


def parse_key_values(
    text: str,
    what: str,
    allowed: Iterable[str],
    required: Iterable[str] = (),
) -> dict[str, tuple[int, str]]:
    """Parse ``key = value`` lines into ``{key: (line number, raw value)}``.

    Blank lines and ``#`` comments are skipped.  A line without ``=``, a key
    outside ``allowed``, a repeated key and a missing ``required`` key are
    ConfigErrors that start with ``what`` and, where there is one, the line.
    """
    values: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{what} line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ConfigError(f"{what} line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{what} line {lineno}: duplicate key {key!r}")
        values[key] = (lineno, raw.strip())
    for key in required:
        if key not in values:
            raise ConfigError(f"{what}: missing required key {key!r}")
    return values


@dataclass(frozen=True)
class MarketCalendar:
    """Monday-to-Friday market hours in a local timezone, plus holiday closures.

    Every trading day opens at ``market_open`` and closes at
    ``market_close`` local wall time; weekends and holidays never trade.
    """

    timezone: str
    market_open: time
    market_close: time
    holidays: frozenset[date] = frozenset()

    def __post_init__(self) -> None:
        if not self.market_open < self.market_close:
            raise ConfigError(f"calendar: open must precede close, got open = "
                              f"{self.market_open:%H:%M}, close = {self.market_close:%H:%M}")

    @cached_property
    def tzinfo(self) -> ZoneInfo:
        try:
            return ZoneInfo(self.timezone)
        except Exception as exc:  # zoneinfo raises several lookup error types
            raise ConfigError(f"timezone: unknown zone {self.timezone!r}") from exc

    @classmethod
    def from_config(cls, text: str) -> "MarketCalendar":
        """Parse the plain-text calendar format.

        Keys: ``timezone``, ``open``, ``close`` (HH:MM wall times), and an
        optional ``holidays`` list of comma-separated ISO dates.  Unknown
        keys are rejected.
        """
        pairs = parse_key_values(
            text,
            "calendar",
            ("timezone", "open", "close", "holidays"),
            required=("timezone", "open", "close"),
        )
        values = {key: raw for key, (_, raw) in pairs.items()}

        def parse_wall_time(key: str) -> time:
            try:
                return datetime.strptime(values[key], "%H:%M").time()
            except ValueError as exc:
                raise ConfigError(f"calendar: {key} must be HH:MM, got {values[key]!r}") from exc

        holidays: set[date] = set()
        for piece in values.get("holidays", "").split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                holidays.add(date.fromisoformat(piece))
            except ValueError as exc:
                raise ConfigError(f"calendar: bad holiday date {piece!r}") from exc
        calendar = cls(
            values["timezone"], parse_wall_time("open"), parse_wall_time("close"), frozenset(holidays)
        )
        calendar.tzinfo  # fail fast on unknown zones
        return calendar

    def is_trading_day(self, day: date) -> bool:
        return day.weekday() < 5 and day not in self.holidays

    def market_open_utc(self, day: date) -> datetime:
        return datetime.combine(day, self.market_open, tzinfo=self.tzinfo).astimezone(UTC)

    def market_close_utc(self, day: date) -> datetime:
        return datetime.combine(day, self.market_close, tzinfo=self.tzinfo).astimezone(UTC)


@dataclass(frozen=True)
class DayPrices:
    """Effective open/close of one trading day, sampled inside market hours."""

    day: date
    open_time: datetime
    close_time: datetime
    open_price: float
    close_price: float


def _read_csv(
    stream: IO[str], header: Sequence[str], parse_row: Callable[[list[str]], _T]
) -> list[_T]:
    """Parse a CSV with a fixed header into one ``parse_row`` value per row.

    Blank and ``#`` lines are skipped and fields stripped.  A wrong or
    missing header, a wrong field count, and a ValueError or OverflowError
    (a timestamp outside years 1-9999 in UTC) from ``parse_row`` are
    DataErrors naming the physical line where the reader stopped.
    """
    reader = csv.reader(stream)
    lines = ([text.strip() for text in raw] for raw in reader)
    lines = (f for f in lines if f not in ([], [""]) and not f[0].startswith("#"))
    try:
        if next(lines, None) != list(header):
            raise ValueError(f"expected header {','.join(header)!r}")
        rows = []
        for fields in lines:
            if len(fields) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
            rows.append(parse_row(fields))
        return rows
    except (ValueError, OverflowError, csv.Error) as exc:
        raise DataError(f"line {max(reader.line_num, 1)}: {exc}") from None


def _parse_field(parse: Callable[[str], _T], what: str, text: str) -> _T:
    try:
        return parse(text)
    except ValueError as exc:
        detail = f" ({exc})" if parse is parse_utc else ""
        raise ValueError(f"bad {what} {text!r}{detail}") from None


def parse_ticks(stream: IO[str]) -> list[PriceTick]:
    """Parse a ``timestamp,price`` CSV into time-ordered ticks.

    Duplicate timestamps keep the value appearing last in the input.
    """
    ticks = _read_csv(stream, ("timestamp", "price"), lambda row: PriceTick(
        _parse_field(parse_utc, "timestamp", row[0]), _parse_field(float, "price", row[1])))
    return sorted({tick.timestamp: tick for tick in ticks}.values())


def parse_buckets(stream: IO[str]) -> list[SentimentBucket]:
    """Parse a ``bucket_start,positive,negative,neutral`` CSV."""
    header = ("bucket_start", "positive", "negative", "neutral")
    buckets = _read_csv(stream, header, lambda row: SentimentBucket(
        _parse_field(parse_utc, "timestamp", row[0]),
        *(_parse_field(int, "count", text) for text in row[1:])))
    return sorted(buckets, key=lambda b: b.bucket_start)


def check_offset_minutes(offset_minutes: int) -> None:
    # A local market day lasts under 25 hours even across a DST change, so
    # an offset of a day or more can never leave a session.
    if not 0 <= offset_minutes < 1440:
        raise ConfigError(f"offset_minutes: must lie in [0, 1440), got {offset_minutes}")


def session_prices(
    ticks: Sequence[PriceTick],
    calendar: MarketCalendar,
    offset_minutes: int = 30,
) -> list[DayPrices]:
    """Sample the effective open and close price of every covered trading day.

    The effective open is the latest tick at or before market open plus the
    offset, the effective close the latest tick at or before market close
    minus the offset; only ticks inside that day's market hours are
    eligible.  Days where either instant has no eligible tick are dropped
    with a warning; a run of trading days without any tick gets one warning.
    A tick whose local date or sampling instants fall outside years 1-9999
    is a DataError.
    """
    check_offset_minutes(offset_minutes)
    if not ticks:
        return []
    ordered = sorted(ticks, key=lambda t: t.timestamp)
    times = [t.timestamp for t in ordered]
    offset = timedelta(minutes=offset_minutes)

    def latest_at_or_before(lower: datetime, instant: datetime) -> PriceTick | None:
        position = bisect_right(times, instant) - 1
        if position < 0 or times[position] < lower:
            return None
        return ordered[position]

    # An eligible tick lies inside its own local day's market hours, so only
    # the local dates that hold a tick can yield prices.
    tz = calendar.tzinfo

    def out_of_range(tick: PriceTick) -> DataError:
        return DataError(f"tick {tick.timestamp.isoformat()}: its session in "
                         f"{calendar.timezone} falls outside years 1-9999")

    first_ticks: dict[date, PriceTick] = {}
    for tick in ordered:
        try:
            first_ticks.setdefault(tick.timestamp.astimezone(tz).date(), tick)
        except OverflowError:
            raise out_of_range(tick) from None
    tick_days = sorted(first_ticks)
    holidays = np.array(sorted(calendar.holidays), dtype="datetime64[D]")
    days: list[DayPrices] = []
    for previous, day in zip([None, *tick_days], tick_days):
        if previous is not None:
            skipped = int(np.busday_count(previous + timedelta(days=1), day, holidays=holidays))
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
        open_tick = latest_at_or_before(market_open, open_instant)
        close_tick = latest_at_or_before(market_open, close_instant)
        if open_tick is None or close_tick is None:
            log.warning("%s: no tick at or before the sampling instant; day dropped", day)
        else:
            days.append(
                DayPrices(day, open_instant, close_instant, open_tick.price, close_tick.price)
            )
    return days


def build_sessions(
    daily_prices: Sequence[DayPrices],
    buckets: Iterable[SentimentBucket],
    calendar: MarketCalendar,
) -> SessionSeries:
    """Assemble the alternating Day/Night series and bin sentiment counts.

    Night sessions inherit the previous close and next open price, so
    consecutive sessions always share their boundary price; weekend and
    holiday gaps become one long Night.  Buckets outside the covered range
    are discarded with a warning.
    """
    if len(daily_prices) < 2:
        raise DataError(f"need at least 2 trading days, got {len(daily_prices)}")
    ordered = sorted(daily_prices, key=lambda d: d.day)
    for dp in ordered:
        if not calendar.is_trading_day(dp.day):
            raise DataError(f"{dp.day} is not a trading day in the supplied calendar")

    skeleton: list[dict] = []
    for i, dp in enumerate(ordered):
        if i:
            prev = ordered[i - 1]
            skeleton.append(
                dict(
                    kind=SessionKind.NIGHT,
                    open_time=prev.close_time,
                    close_time=dp.open_time,
                    open_price=prev.close_price,
                    close_price=dp.open_price,
                )
            )
        skeleton.append(
            dict(
                kind=SessionKind.DAY,
                open_time=dp.open_time,
                close_time=dp.close_time,
                open_price=dp.open_price,
                close_price=dp.close_price,
            )
        )

    counts = [[0, 0, 0] for _ in skeleton]
    opens = [s["open_time"] for s in skeleton]
    last_close = skeleton[-1]["close_time"]
    discarded = 0
    for bucket in buckets:
        position = bisect_right(opens, bucket.bucket_start) - 1
        if position < 0 or bucket.bucket_start >= last_close:
            discarded += 1
            continue
        counts[position][0] += bucket.positive
        counts[position][1] += bucket.negative
        counts[position][2] += bucket.neutral
    if discarded:
        log.warning("%d sentiment bucket(s) outside the session range discarded", discarded)

    try:
        sessions = tuple(
            Session(index=i, pos=c[0], neg=c[1], neu=c[2], **fields)
            for i, (fields, c) in enumerate(zip(skeleton, counts))
        )
    except ValueError as exc:  # a summed count over VALUE_CAP
        raise DataError(str(exc)) from None
    return SessionSeries(sessions)


def write_sessions_csv(series: SessionSeries, stream: IO[str], comments: Iterable[str] = ()) -> None:
    """Write the re-ingestible sessions CSV (optionally preceded by # comments)."""
    for comment in comments:
        stream.write(f"# {comment}\n")
    stream.write(",".join(SESSIONS_HEADER) + "\n")
    for s in series.sessions:
        row = (
            str(s.index),
            s.kind.value,
            format_utc(s.open_time),
            format_utc(s.close_time),
            repr(s.open_price),
            repr(s.close_price),
            str(s.pos),
            str(s.neg),
            str(s.neu),
        )
        stream.write(",".join(row) + "\n")


def read_sessions_csv(stream: IO[str]) -> SessionSeries:
    """Parse a sessions CSV back into a SessionSeries."""
    sessions = _read_csv(stream, SESSIONS_HEADER, lambda row: Session(
        int(row[0]), SessionKind(row[1]), parse_utc(row[2]), parse_utc(row[3]),
        float(row[4]), float(row[5]), *map(int, row[6:])))
    return SessionSeries(tuple(sessions))
