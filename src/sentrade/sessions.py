"""Session assembly from raw price ticks and half-hour sentiment buckets.

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
import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from datetime import date, datetime, time, timedelta, timezone
from enum import Enum
from functools import cached_property
from typing import IO, Iterable, Mapping, Sequence
from zoneinfo import ZoneInfo

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

UTC = timezone.utc

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
        if not self.price > 0:
            raise ValueError(f"tick price must be positive, got {self.price}")


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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} count must be non-negative")


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
        if not math.isfinite((self.close_price - self.open_price) / self.open_price):
            raise ValueError(f"session {self.index}: return (close - open) / open must be finite")
        for name in ("pos", "neg", "neu"):
            if getattr(self, name) < 0:
                raise ValueError(f"session {self.index}: {name} count must be non-negative")
        if not self.open_time < self.close_time:
            raise ValueError(f"session {self.index}: open_time must precede close_time")


@dataclass(frozen=True)
class SessionSeries:
    """An ordered, gap-free alternation of Day and Night sessions for one brand.

    ``returns`` is empty until :func:`compute_returns` fills it; once present
    it holds one simple return per session.
    """

    brand: str
    sessions: tuple[Session, ...]
    returns: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.returns and len(self.returns) != len(self.sessions):
            raise DataError("returns length must match session count")
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
        if not self.returns:
            raise DataError("returns have not been computed for this series")
        return np.asarray(self.returns, dtype=float)

    @cached_property
    def pos_array(self) -> np.ndarray:
        return np.asarray([s.pos for s in self.sessions], dtype=float)

    @cached_property
    def neg_array(self) -> np.ndarray:
        return np.asarray([s.neg for s in self.sessions], dtype=float)

    @cached_property
    def neu_array(self) -> np.ndarray:
        return np.asarray([s.neu for s in self.sessions], dtype=float)

    @cached_property
    def lagged_regressors(self) -> np.ndarray:
        """The intercept and the five lagged variables aligned with each session.

        Row i holds [1 | R1 R2 P1 N1 Z1] as seen by session i: the returns of
        sessions i-1 and i-2 and the pos/neg/neu counts of session i-1.  Rows
        run to i = len(self), the out-of-sample row; rows 0 and 1 lack history
        and hold NaN.  Every regression design is a slice of it.
        """
        counts = np.column_stack([self.pos_array, self.neg_array, self.neu_array])
        return self._lagged(counts)

    @cached_property
    def lagged_share_regressors(self) -> np.ndarray:
        """``lagged_regressors`` with each session's counts as shares of their
        total (all zero for a session without messages)."""
        counts = np.column_stack([self.pos_array, self.neg_array, self.neu_array])
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


def parse_ticks(stream: IO[str]) -> list[PriceTick]:
    """Parse a ``timestamp,price`` CSV into time-ordered ticks.

    Duplicate timestamps keep the value appearing last in the input.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["timestamp", "price"]:
        raise DataError("line 1: expected header 'timestamp,price'")
    by_time: dict[datetime, float] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DataError(f"line {lineno}: expected 2 fields, got {len(row)}")
        try:
            instant = parse_utc(row[0])
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad timestamp {row[0]!r} ({exc})") from None
        try:
            price = float(row[1])
        except ValueError:
            raise DataError(f"line {lineno}: bad price {row[1]!r}") from None
        if not np.isfinite(price) or not price > 0:
            raise DataError(f"line {lineno}: price must be positive and finite, got {row[1]}")
        by_time[instant] = price
    return [PriceTick(instant, price) for instant, price in sorted(by_time.items())]


def parse_buckets(stream: IO[str]) -> list[SentimentBucket]:
    """Parse a ``bucket_start,positive,negative,neutral`` CSV."""
    reader = csv.reader(stream)
    header = next(reader, None)
    expected = ["bucket_start", "positive", "negative", "neutral"]
    if header is None or [h.strip() for h in header] != expected:
        raise DataError("line 1: expected header 'bucket_start,positive,negative,neutral'")
    buckets = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise DataError(f"line {lineno}: expected 4 fields, got {len(row)}")
        try:
            start = parse_utc(row[0])
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad timestamp {row[0]!r} ({exc})") from None
        counts = []
        for field in row[1:]:
            try:
                counts.append(int(field))
            except ValueError:
                raise DataError(f"line {lineno}: bad count {field!r}") from None
        try:
            buckets.append(SentimentBucket(start, *counts))
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
    return sorted(buckets, key=lambda b: b.bucket_start)


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
    with a warning.
    """
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

    tz = calendar.tzinfo
    first_day = ordered[0].timestamp.astimezone(tz).date()
    last_day = ordered[-1].timestamp.astimezone(tz).date()
    days: list[DayPrices] = []
    day = first_day
    while day <= last_day:
        if calendar.is_trading_day(day):
            market_open = calendar.market_open_utc(day)
            open_instant = market_open + offset
            close_instant = calendar.market_close_utc(day) - offset
            if not open_instant < close_instant:
                raise ConfigError(
                    f"offset_minutes: {offset_minutes} leaves no session on {day}"
                )
            open_tick = latest_at_or_before(market_open, open_instant)
            close_tick = latest_at_or_before(market_open, close_instant)
            if open_tick is None or close_tick is None:
                log.warning("%s: no tick at or before the sampling instant; day dropped", day)
            else:
                days.append(
                    DayPrices(day, open_instant, close_instant, open_tick.price, close_tick.price)
                )
        day += timedelta(days=1)
    return days


def build_sessions(
    daily_prices: Sequence[DayPrices],
    buckets: Iterable[SentimentBucket],
    calendar: MarketCalendar,
    brand: str = "brand",
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

    sessions = tuple(
        Session(index=i, pos=c[0], neg=c[1], neu=c[2], **fields)
        for i, (fields, c) in enumerate(zip(skeleton, counts))
    )
    return SessionSeries(brand=brand, sessions=sessions)


def compute_returns(series: SessionSeries) -> SessionSeries:
    """Fill in the simple return (close - open) / open of every session."""
    returns = tuple(
        float((s.close_price - s.open_price) / s.open_price) for s in series.sessions
    )
    return replace(series, returns=returns)


def match_brand(text: str, brand_keywords: Mapping[str, Iterable[str]]) -> str | None:
    """Return the single brand whose keyword occurs as a whole word in text.

    Matching is case-insensitive; text matching keywords of more than one
    brand is treated as ambiguous and returns None.
    """
    lowered = text.lower()
    hits = set()
    for brand, keywords in brand_keywords.items():
        for keyword in keywords:
            pattern = rf"(?<![0-9a-z]){re.escape(keyword.lower())}(?![0-9a-z])"
            if re.search(pattern, lowered):
                hits.add(brand)
                break
    if len(hits) == 1:
        return hits.pop()
    return None


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


def read_sessions_csv(stream: IO[str], brand: str = "brand") -> SessionSeries:
    """Parse a sessions CSV back into a SessionSeries (returns not computed)."""
    sessions = []
    header_seen = False
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split(",")
        if not header_seen:
            if tuple(f.strip() for f in fields) != SESSIONS_HEADER:
                raise DataError(f"line {lineno}: expected header {','.join(SESSIONS_HEADER)!r}")
            header_seen = True
            continue
        if len(fields) != len(SESSIONS_HEADER):
            raise DataError(f"line {lineno}: expected {len(SESSIONS_HEADER)} fields")
        try:
            kind = SessionKind(fields[1])
            sessions.append(
                Session(
                    index=int(fields[0]),
                    kind=kind,
                    open_time=parse_utc(fields[2]),
                    close_time=parse_utc(fields[3]),
                    open_price=float(fields[4]),
                    close_price=float(fields[5]),
                    pos=int(fields[6]),
                    neg=int(fields[7]),
                    neu=int(fields[8]),
                )
            )
        except (ValueError, KeyError) as exc:
            raise DataError(f"line {lineno}: {exc}") from None
    if not header_seen:
        raise DataError("line 1: empty sessions file")
    return SessionSeries(brand=brand, sessions=tuple(sessions))
