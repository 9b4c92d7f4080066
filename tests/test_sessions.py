"""Session assembly, parsing, and serialization tests."""

from __future__ import annotations

import io
import logging
import random
import tracemalloc
from dataclasses import replace
from datetime import date, datetime, time, timedelta, timezone
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sentrade.adaptive import PipelineParams
from sentrade.backtest import evaluate
from sentrade.config import parse_calendar
from sentrade.errors import ConfigError, DataError
from sentrade.ingest import MarketCalendar, build_sessions, parse_buckets, parse_ticks
from sentrade.sessions import (
    SessionSeries,
    _read_csv,
    parse_utc,
    read_sessions_csv,
    write_csv,
    write_sessions_csv,
)
from sentrade.synth import SyntheticScenario, generate

UTC = timezone.utc

CALENDAR = MarketCalendar("America/New_York", time(9, 30), time(16, 0))
BUCKET_HEADER = "bucket_start,positive,negative,neutral\n"


def utc(text: str) -> datetime:
    return parse_utc(text)


def utc_text(instant: datetime) -> str:
    """A UTC instant after year 999 as the input files write it."""
    return f"{instant:%Y-%m-%dT%H:%M:%SZ}"


def written_open_time(instant: datetime) -> str:
    """The open_time field a sessions CSV holds for a session opening a
    quarter second after the UTC ``instant``."""
    opened = np.datetime64(instant.replace(tzinfo=None), "us") + np.timedelta64(250_000, "us")
    series = SessionSeries([True], [opened], [opened + np.timedelta64(1, "s")], [1.0], [1.0],
                           [[0, 0, 0]])
    buffer = io.StringIO()
    write_sessions_csv(series, buffer)
    return buffer.getvalue().splitlines()[1].split(",")[2]


def ny(day: str, wall: str) -> datetime:
    """The UTC instant of a New York wall-clock time on the given ISO date."""
    local = datetime.fromisoformat(f"{day}T{wall}").replace(tzinfo=CALENDAR.tzinfo)
    return local.astimezone(UTC)


def utc_column(rows) -> np.ndarray:
    """The UTC datetimes leading the rows, as a ``datetime64[us]`` column."""
    return np.array([row[0].replace(tzinfo=None) for row in rows], dtype="datetime64[us]")


def build(ticks, buckets=(), calendar=CALENDAR, offset_minutes=30) -> SessionSeries:
    """``build_sessions`` on (UTC instant, price) ticks and (UTC start,
    positive, negative, neutral) buckets, turned into the parsers' columns."""
    tick_columns = utc_column(ticks), np.array([price for _, price in ticks], dtype=float)
    counts = np.array([bucket[1:] for bucket in buckets], dtype=np.int64).reshape(-1, 3)
    return build_sessions(tick_columns, (utc_column(buckets), counts), calendar, offset_minutes)


def ny_ticks(day: str, *pairs) -> list[tuple[datetime, float]]:
    """Ticks at New York wall-clock times on the given ISO date."""
    return [(ny(day, wall), price) for wall, price in pairs]


def plain_day(day: str = "2012-06-19") -> list[tuple[datetime, float]]:
    """Ticks at both default sampling instants of one trading day."""
    return ny_ticks(day, ("10:00", 103.0), ("15:30", 104.0))


def sessions_of(series: SessionSeries) -> list[SimpleNamespace]:
    """Each session's fields by name: its kind as text, its times as aware UTC
    datetimes, its prices and its pos, neg and neu counts."""
    columns = (np.where(series.day, "day", "night"), series.open_times, series.close_times,
               series.open_prices, series.close_prices, *series.counts.T)
    return [
        SimpleNamespace(kind=kind, open_time=opened.replace(tzinfo=UTC),
                        close_time=closed.replace(tzinfo=UTC), open_price=open_price,
                        close_price=close_price, pos=pos, neg=neg, neu=neu)
        for kind, opened, closed, open_price, close_price, pos, neg, neu
        in zip(*(column.tolist() for column in columns))
    ]


def first_day(ticks: list[tuple[datetime, float]]) -> SimpleNamespace:
    """The first Day session built from the ticks plus a plain trading day after them."""
    sessions = sessions_of(build(ticks + plain_day()))
    assert [s.kind for s in sessions] == ["day", "night", "day"]
    return sessions[0]


def day_dates(series: SessionSeries) -> list[date]:
    """The New York dates of the series' Day sessions."""
    return [s.open_time.astimezone(CALENDAR.tzinfo).date()
            for s in sessions_of(series) if s.kind == "day"]


class TestParseUtc:
    def test_z_suffix(self):
        assert parse_utc("2012-06-18T13:30:00Z") == datetime(2012, 6, 18, 13, 30, tzinfo=UTC)

    def test_explicit_offset_is_converted(self):
        assert parse_utc("2012-06-18T15:30:00+02:00") == datetime(2012, 6, 18, 13, 30, tzinfo=UTC)

    def test_naive_rejected(self):
        with pytest.raises(ValueError):
            parse_utc("2012-06-18T13:30:00")

    def test_format_round_trip(self):
        instant = datetime(2012, 6, 18, 13, 30, tzinfo=UTC)
        assert parse_utc(written_open_time(instant)) == instant

    @pytest.mark.parametrize("year", [1, 999, 1000, 9999])
    def test_format_pads_the_year_to_four_digits(self, year):
        instant = datetime(year, 12, 31, 23, 59, 59, tzinfo=UTC)
        assert written_open_time(instant) == f"{year:04d}-12-31T23:59:59Z"
        assert parse_utc(written_open_time(instant)) == instant


class TestParseTicks:
    def test_single_row(self):
        instants, prices = parse_ticks(io.StringIO("timestamp,price\n2012-06-18T13:30:00Z,41.25\n"))
        assert instants.dtype == np.dtype("datetime64[us]") and prices.dtype == np.float64
        assert instants.tolist() == [datetime(2012, 6, 18, 13, 30)]
        assert prices.tolist() == [41.25]

    def test_header_only(self):
        instants, prices = parse_ticks(io.StringIO("timestamp,price\n"))
        assert instants.shape == prices.shape == (0,)

    def test_duplicate_timestamp_keeps_last(self):
        """The parser keeps both rows; ``build_sessions`` samples the one read last."""
        body = ("timestamp,price\n2012-06-18T14:00:00Z,10\n2012-06-18T14:00:00Z,11\n"
                "2012-06-18T19:30:00Z,12\n2012-06-19T14:00:00Z,13\n2012-06-19T19:30:00Z,14\n")
        ticks = parse_ticks(io.StringIO(body))
        assert ticks[1].tolist() == [10.0, 11.0, 12.0, 13.0, 14.0]
        series = build_sessions(ticks, parse_buckets(io.StringIO(BUCKET_HEADER)), CALENDAR)
        assert series.open_prices[0] == 11.0

    def test_output_in_input_order(self):
        body = (
            "timestamp,price\n"
            "2012-06-18T15:00:00Z,2\n"
            "2012-06-18T13:00:00Z,1\n"
        )
        instants, prices = parse_ticks(io.StringIO(body))
        assert instants.tolist() == [datetime(2012, 6, 18, 15), datetime(2012, 6, 18, 13)]
        assert prices.tolist() == [2.0, 1.0]

    def test_bad_header(self):
        with pytest.raises(DataError, match="line 1"):
            parse_ticks(io.StringIO("time,price\n"))

    def test_bad_price_reports_line(self):
        body = "timestamp,price\n2012-06-18T13:30:00Z,12\n2012-06-18T14:00:00Z,oops\n"
        with pytest.raises(DataError, match="line 3"):
            parse_ticks(io.StringIO(body))

    def test_non_positive_price_rejected(self):
        with pytest.raises(DataError, match="^line 2: price must be positive and finite, got 0.0$"):
            parse_ticks(io.StringIO("timestamp,price\n2012-06-18T13:30:00Z,0\n"))

    def test_naive_timestamp_rejected(self):
        with pytest.raises(DataError, match="line 2"):
            parse_ticks(io.StringIO("timestamp,price\n2012-06-18T13:30:00,5\n"))

    def test_comments_and_blank_lines_skipped(self):
        body = (
            "# ticks for one morning\n\n"
            "timestamp,price\n"
            "2012-06-18T13:30:00Z,41.25\n"
            "   \n"
            "# a gap in the feed\n"
            " 2012-06-18T14:00:00Z , 41.5 \n"
        )
        assert parse_ticks(io.StringIO(body))[1].tolist() == [41.25, 41.5]

    def test_bad_row_after_comment_and_blank_reports_physical_line(self):
        body = "timestamp,price\n2012-06-18T13:30:00Z,12\n# note\n\n2012-06-18T14:00:00Z,oops\n"
        with pytest.raises(DataError, match="^line 5: bad price 'oops'$"):
            parse_ticks(io.StringIO(body))

    def test_header_after_comments_reports_its_line(self):
        with pytest.raises(DataError, match="^line 3: expected header 'timestamp,price'$"):
            parse_ticks(io.StringIO("# prices\n\ntime,price\n"))

    @pytest.mark.parametrize(
        "body, line", [("", 1), ("# only a comment\n\n", 2)], ids=["empty", "comments"]
    )
    def test_missing_header_reports_where_the_file_ends(self, body, line):
        with pytest.raises(DataError, match=f"^line {line}: expected header 'timestamp,price'$"):
            parse_ticks(io.StringIO(body))

    def test_field_count_reports_line(self):
        body = "timestamp,price\n2012-06-18T13:30:00Z,12,3\n"
        with pytest.raises(DataError, match="^line 2: expected 2 fields, got 3$"):
            parse_ticks(io.StringIO(body))

    @pytest.mark.parametrize("price", ["inf", "-inf", "nan", "-1"])
    def test_non_finite_price_reports_line(self, price):
        body = f"timestamp,price\n2012-06-18T13:30:00Z,12\n2012-06-18T14:00:00Z,{price}\n"
        with pytest.raises(DataError, match="^line 3: price must be positive and finite"):
            parse_ticks(io.StringIO(body))

    def test_out_of_range_timestamp_reports_line(self):
        body = "timestamp,price\n0001-01-01T00:00:00+01:00,12\n"
        with pytest.raises(DataError, match="^line 2: date value out of range$"):
            parse_ticks(io.StringIO(body))

    def test_oversized_field_reports_line(self):
        body = "timestamp,price\n2012-06-18T13:30:00Z,12\n2012-06-18T14:00:00Z," + "1" * 200_000
        with pytest.raises(DataError, match="^line 3: field larger than field limit"):
            parse_ticks(io.StringIO(body))


    def test_memory_held_per_tick_is_bounded(self):
        """The parsed columns hold at most 40 bytes per tick (16 are the
        instant and the price), not an object per row."""
        start = datetime(2012, 1, 2, 14, 30, tzinfo=UTC)
        rows = (f"{utc_text(start + timedelta(seconds=10 * i))},{100 + i % 997 / 8!r}"
                for i in range(100_000))
        stream = io.StringIO("timestamp,price\n" + "\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            ticks = parse_ticks(stream)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / 100_000 <= 40
        assert len(ticks[0]) == 100_000

class TestParseBuckets:
    def test_basic(self):
        body = "bucket_start,positive,negative,neutral\n2012-06-18T13:30:00Z,3,1,2\n"
        starts, counts = parse_buckets(io.StringIO(body))
        assert starts.dtype == np.dtype("datetime64[us]") and counts.dtype == np.int64
        assert starts.tolist() == [datetime(2012, 6, 18, 13, 30)]
        assert counts.tolist() == [[3, 1, 2]]

    def test_header_only(self):
        starts, counts = parse_buckets(io.StringIO(BUCKET_HEADER))
        assert starts.shape == (0,) and counts.shape == (0, 3)

    def test_half_hour_alignment_enforced(self):
        body = "bucket_start,positive,negative,neutral\n2012-06-18T13:15:00Z,3,1,2\n"
        with pytest.raises(DataError, match="line 2"):
            parse_buckets(io.StringIO(body))

    def test_negative_count_rejected(self):
        body = "bucket_start,positive,negative,neutral\n2012-06-18T13:30:00Z,-1,0,0\n"
        with pytest.raises(DataError, match="line 2"):
            parse_buckets(io.StringIO(body))

    def test_bad_header(self):
        with pytest.raises(DataError, match="line 1"):
            parse_buckets(io.StringIO("start,p,n,z\n"))

    @pytest.mark.parametrize(
        "count", [2**53 + 1, 10**200, 10**400], ids=["past-cap", "1e200", "1e400"]
    )
    def test_huge_count_rejected(self, count):
        body = (
            "bucket_start,positive,negative,neutral\n2012-06-18T13:30:00Z,1,1,1\n"
            f"2012-06-18T14:00:00Z,0,{count},0\n"
        )
        with pytest.raises(DataError, match="line 3: negative count must be non-negative and at"):
            parse_buckets(io.StringIO(body))

    def test_count_at_cap_accepted(self):
        body = f"bucket_start,positive,negative,neutral\n2012-06-18T13:30:00Z,{2**53},0,0\n"
        assert parse_buckets(io.StringIO(body))[1].tolist() == [[2**53, 0, 0]]

    def test_comments_and_blank_lines_skipped(self):
        body = (
            "# buckets from the stream\n"
            "bucket_start,positive,negative,neutral\n\n"
            "2012-06-18T14:00:00Z,1,2,3\n"
            "# out of order on purpose\n"
            "2012-06-18T13:30:00Z, 3 ,1,2\n"
        )
        starts, counts = parse_buckets(io.StringIO(body))
        assert starts.tolist() == [datetime(2012, 6, 18, 14), datetime(2012, 6, 18, 13, 30)]
        assert counts.tolist() == [[1, 2, 3], [3, 1, 2]]

    def test_bad_row_after_comment_and_blank_reports_physical_line(self):
        body = (
            "bucket_start,positive,negative,neutral\n"
            "2012-06-18T13:30:00Z,3,1,2\n"
            "# note\n\n"
            "2012-06-18T14:00:00Z,3,x,2\n"
        )
        with pytest.raises(DataError, match="^line 5: bad count 'x'$"):
            parse_buckets(io.StringIO(body))


class TestMarketCalendar:
    def test_from_config(self):
        text = (
            "timezone = America/New_York\n"
            "open = 09:30\n"
            "close = 16:00\n"
            "holidays = 2012-07-04, 2012-12-25\n"
        )
        calendar = parse_calendar(text)
        assert calendar.is_trading_day(date(2012, 6, 18))
        assert not calendar.is_trading_day(date(2012, 6, 17))  # Sunday
        assert not calendar.is_trading_day(date(2012, 7, 4))

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_calendar("timezone = UTC\nopen = 09:30\nclose = 16:00\nfoo = 1\n")

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_calendar("timezone = UTC\nopen = 09:30\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_calendar("timezone = UTC\ntimezone = UTC\nopen = 09:30\nclose = 16:00\n")

    def test_bad_wall_time(self):
        with pytest.raises(ConfigError, match="HH:MM"):
            parse_calendar("timezone = UTC\nopen = 930\nclose = 16:00\n")

    def test_unknown_zone(self):
        with pytest.raises(ConfigError, match="timezone"):
            parse_calendar("timezone = Mars/Olympus\nopen = 09:30\nclose = 16:00\n")

    def test_open_after_close(self):
        message = "^calendar: open must precede close, got open = 16:00, close = 09:30$"
        with pytest.raises(ConfigError, match=message):
            parse_calendar("timezone = UTC\nopen = 16:00\nclose = 09:30\n")

    def test_open_must_precede_close(self):
        with pytest.raises(ConfigError):
            MarketCalendar("UTC", time(16, 0), time(9, 30))

    def test_unknown_zone_fails_at_construction(self):
        with pytest.raises(ConfigError, match="^timezone: unknown zone 'Mars/Olympus'$"):
            MarketCalendar("Mars/Olympus", time(9, 30), time(16, 0))

    def test_market_open_utc_handles_dst(self):
        # June: EDT is UTC-4, so 09:30 local is 13:30 UTC.
        assert CALENDAR.market_open_utc(date(2012, 6, 18)) == utc("2012-06-18T13:30:00Z")
        # December: EST is UTC-5.
        assert CALENDAR.market_open_utc(date(2012, 12, 17)) == utc("2012-12-17T14:30:00Z")


class TestSessionPrices:
    """How ``build_sessions`` samples each trading day's open and close price."""

    def test_ticks_exactly_at_offsets(self):
        day = first_day(ny_ticks("2012-06-18", ("10:00", 100.0), ("15:30", 102.0)))
        assert day.open_price == 100.0
        assert day.close_price == 102.0
        assert day.open_time == ny("2012-06-18", "10:00")
        assert day.close_time == ny("2012-06-18", "15:30")

    def test_latest_at_or_before_rule(self):
        ticks = ny_ticks("2012-06-18", ("09:59", 99.0), ("10:01", 101.0), ("15:30", 100.0))
        assert first_day(ticks).open_price == 99.0

    def test_tick_before_market_open_not_eligible(self, caplog):
        """The day is dropped with a warning, and the two-day rule counts the
        days left after sampling."""
        ticks = ny_ticks("2012-06-18", ("09:00", 98.0)) + plain_day()
        with caplog.at_level(logging.WARNING, logger="sentrade.ingest"):
            series = build(ticks + plain_day("2012-06-20"))
            with pytest.raises(DataError, match="^need at least 2 trading days, got 1$"):
                build(ticks)
        assert day_dates(series) == [date(2012, 6, 19), date(2012, 6, 20)]
        dropped = "2012-06-18: no tick at or before the sampling instant; day dropped"
        assert caplog.text.count(dropped) == 2

    def test_carry_forward_within_day(self):
        # One tick right after the open serves both sampling instants.
        day = first_day(ny_ticks("2012-06-18", ("09:45", 97.0)))
        assert day.open_price == 97.0
        assert day.close_price == 97.0

    def test_weekend_days_skipped(self, caplog):
        """Weekend days are skipped, a tick on one too, without a warning."""
        ticks = (ny_ticks("2012-06-15", ("10:00", 1.0), ("15:30", 2.0))
                 + ny_ticks("2012-06-16", ("12:00", 5.0))
                 + ny_ticks("2012-06-18", ("10:00", 3.0), ("15:30", 4.0)))
        with caplog.at_level(logging.WARNING, logger="sentrade.ingest"):
            series = build(ticks)
        assert caplog.records == []
        assert day_dates(series) == [date(2012, 6, 15), date(2012, 6, 18)]

    def test_far_tick_walks_only_days_with_ticks(self, caplog):
        """A stray tick at the end of the calendar costs one warning for the
        trading days before it, not one for each of them."""
        text = ("timestamp,price\n2012-06-18T14:00:00Z,100.0\n2012-06-18T19:30:00Z,101.0\n"
                "2012-06-19T14:00:00Z,102.0\n2012-06-19T19:30:00Z,101.5\n"
                "9999-12-31T15:00:00Z,103.0\n")
        started = perf_counter()
        with caplog.at_level(logging.WARNING, logger="sentrade.ingest"):
            ticks, buckets = parse_ticks(io.StringIO(text)), parse_buckets(io.StringIO(BUCKET_HEADER))
            series = build_sessions(ticks, buckets, CALENDAR)
        assert perf_counter() - started < 1.0
        assert day_dates(series) == [date(2012, 6, 18), date(2012, 6, 19), date(9999, 12, 31)]
        assert len(caplog.records) == 1
        assert "between 2012-06-19 and 9999-12-31 hold no tick" in caplog.text

    @pytest.mark.parametrize(
        "zone,opens,stamp,offset",
        [
            ("Asia/Tokyo", time(9, 0), "9999-12-31T20:00:00Z", 30),  # local date in year 10000
            ("America/New_York", time(9, 30), "0001-01-01T01:00:00Z", 30),  # local date in year 0
            ("Asia/Tokyo", time(8, 0), "0001-01-01T00:30:00Z", 30),  # open in year 0 UTC
            ("America/New_York", time(9, 30), "9999-12-31T15:00:00Z", 600),  # open + offset
        ],
    )
    def test_session_outside_years_1_to_9999_is_a_data_error(self, zone, opens, stamp, offset):
        calendar = MarketCalendar(zone, opens, time(16, 0))
        with pytest.raises(DataError, match=f"tick {stamp[:19]}.*outside years 1-9999"):
            build([(utc(stamp), 100.0)], calendar=calendar, offset_minutes=offset)

    def test_offset_swallowing_whole_day_rejected(self):
        ticks = ny_ticks("2012-06-18", ("10:00", 1.0)) + plain_day()
        message = "^offset_minutes: 300 leaves no session on 2012-06-18$"
        with pytest.raises(ConfigError, match=message):
            build(ticks, offset_minutes=300)

    def test_offset_is_checked_before_the_ticks(self):
        message = r"^offset_minutes: must lie in \[0, 1440\), got -5$"
        with pytest.raises(ConfigError, match=message):
            build_sessions([], [], CALENDAR, -5)


class TestBuildSessions:
    def test_two_days_three_sessions(self):
        series = build(two_day_ticks())
        kinds = [s.kind for s in sessions_of(series)]
        assert kinds == ["day", "night", "day"]
        night = sessions_of(series)[1]
        assert night.open_price == 101.0
        assert night.close_price == 103.0

    def test_weekend_becomes_one_night(self):
        ticks = ny_ticks("2012-06-15", ("10:00", 99.0), ("15:30", 100.0)) + ny_ticks(
            "2012-06-18", ("10:00", 103.0), ("15:30", 104.0)
        )
        series = build(ticks)
        assert len(series) == 3
        night = sessions_of(series)[1]
        assert night.kind == "night"
        assert night.open_price == 100.0
        assert night.close_price == 103.0
        assert (night.close_time - night.open_time) > timedelta(days=2)

    def test_single_day_rejected(self):
        ticks = ny_ticks("2012-06-18", ("10:00", 1.0), ("15:30", 2.0))
        with pytest.raises(DataError, match="^need at least 2 trading days, got 1$"):
            build(ticks)

    def test_bucket_binning_half_open(self):
        day_close = ny("2012-06-18", "15:30")
        buckets = [
            (day_close - timedelta(minutes=30), 1, 0, 0),
            (day_close, 0, 2, 0),  # boundary goes to the night
        ]
        series = build(two_day_ticks(), buckets)
        assert sessions_of(series)[0].close_time == day_close
        assert sessions_of(series)[0].pos == 1
        assert sessions_of(series)[0].neg == 0
        assert sessions_of(series)[1].neg == 2

    def test_out_of_range_buckets_discarded(self, caplog):
        buckets = [
            (ny("2012-06-18", "10:00") - timedelta(hours=1), 5, 5, 5),
            (ny("2012-06-19", "15:30"), 7, 7, 7),
        ]
        with caplog.at_level(logging.WARNING, logger="sentrade.ingest"):
            series = build(two_day_ticks(), buckets)
        assert sum(s.pos + s.neg + s.neu for s in sessions_of(series)) == 0
        assert "2 sentiment bucket(s) outside the session range discarded" in caplog.text

    def test_count_conservation(self):
        start = ny("2012-06-18", "10:00")
        buckets = [
            (start + timedelta(minutes=30 * i), i, 2 * i, 3 * i)
            for i in range(40)
            if start + timedelta(minutes=30 * i) < ny("2012-06-19", "15:30")
        ]
        series = build(two_day_ticks(), buckets)
        assert sum(s.pos for s in sessions_of(series)) == sum(b[1] for b in buckets)
        assert sum(s.neg for s in sessions_of(series)) == sum(b[2] for b in buckets)
        assert sum(s.neu for s in sessions_of(series)) == sum(b[3] for b in buckets)

    def test_summed_count_over_cap_rejected(self):
        start = ny("2012-06-18", "10:00")
        buckets = [(start, 2**52, 0, 0), (start, 2**52 + 1, 0, 0)]
        with pytest.raises(DataError, match="session 0: pos count must be non-negative and at"):
            build(two_day_ticks(), buckets)

    def test_count_sum_past_int64_rejected(self):
        """A session's summed count past 2**63 is rejected by the series rule,
        not lost to an int64 overflow."""
        buckets = [(ny("2012-06-18", "10:00"), 0, 2**53, 0)] * 1100
        with pytest.raises(DataError, match="^session 0: neg count must be non-negative and at"):
            build(two_day_ticks(), buckets)

    def test_holiday_merges_sessions(self):
        def with_holidays(holidays):
            calendar = MarketCalendar(
                "America/New_York", time(9, 30), time(16, 0), frozenset(holidays)
            )
            ticks = []
            for day in ("2012-06-18", "2012-06-19", "2012-06-20"):
                ticks += ny_ticks(day, ("10:00", 100.0), ("15:30", 100.0))
            return build(ticks, calendar=calendar)

        plain = with_holidays([])
        holiday = with_holidays([date(2012, 6, 19)])
        assert sum(plain.day) == 3
        assert sum(holiday.day) == 2
        assert len(plain) - len(holiday) == 2  # one day and one night collapsed

    def test_row_order_and_repeated_instants(self):
        """Shuffled ticks with repeated instants build the series of the
        sorted ticks in which each repeated instant keeps only the price read
        last; shuffled buckets bin as the sorted ones do."""
        rng = random.Random(21)
        days = ["2012-06-15", "2012-06-16", "2012-06-18", "2012-06-19", "2012-06-20"]
        walls = ["09:29", "09:30", "09:45", "10:00", "12:00", "15:30", "15:31", "16:05"]

        def outcome(ticks, buckets):
            try:
                return build(ticks, buckets)
            except DataError as exc:
                return str(exc)

        built = 0
        for _ in range(60):
            ticks = [(ny(rng.choice(days), rng.choice(walls)), float(rng.randint(50, 150)))
                     for _ in range(rng.randint(6, 40))]
            buckets = [(ny(rng.choice(days), rng.choice(["09:30", "12:00", "16:00"])),
                        rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9))
                       for _ in range(rng.randint(0, 10))]
            rng.shuffle(ticks)
            rng.shuffle(buckets)
            last_read = dict(ticks)  # a later tick at an instant replaces the earlier one
            want = outcome(sorted(last_read.items()), sorted(buckets))
            assert outcome(ticks, buckets) == want
            built += not isinstance(want, str)
        assert built >= 30


class TestDaylightSaving:
    """Day sessions on both sides of a DST change, in New York (one hour) and
    on Lord Howe Island (30 minutes), sampled 30 minutes inside the market hours."""

    @pytest.mark.parametrize(
        "zone, opens, ticks, days",
        [
            (  # EST to EDT on Sunday 2012-03-11
                "America/New_York", "09:30",
                ["2012-03-09T15:00:00Z,100", "2012-03-09T20:30:00Z,101",
                 "2012-03-10T02:00:00Z,99",  # Friday 21:00 in New York, Saturday in UTC
                 "2012-03-12T14:00:00Z,102", "2012-03-12T19:30:00Z,103"],
                [("2012-03-09T15:00:00Z", "2012-03-09T20:30:00Z", 100.0, 101.0),
                 ("2012-03-12T14:00:00Z", "2012-03-12T19:30:00Z", 102.0, 103.0)],
            ),
            (  # EDT to EST on Sunday 2012-11-04
                "America/New_York", "09:30",
                ["2012-11-02T14:00:00Z,100", "2012-11-02T19:30:00Z,101",
                 "2012-11-05T14:30:00Z,102",  # 09:30 EST, the open itself
                 "2012-11-05T15:00:00Z,103", "2012-11-05T20:30:00Z,104"],
                [("2012-11-02T14:00:00Z", "2012-11-02T19:30:00Z", 100.0, 101.0),
                 ("2012-11-05T15:00:00Z", "2012-11-05T20:30:00Z", 103.0, 104.0)],
            ),
            (  # +11:00 to +10:30 on Sunday 2012-04-01
                "Australia/Lord_Howe", "10:00",
                ["2012-03-29T23:30:00Z,50",  # Friday 10:30 on Lord Howe, Thursday in UTC
                 "2012-03-30T04:30:00Z,51", "2012-04-02T00:00:00Z,52",
                 "2012-04-02T05:00:00Z,53"],
                [("2012-03-29T23:30:00Z", "2012-03-30T04:30:00Z", 50.0, 51.0),
                 ("2012-04-02T00:00:00Z", "2012-04-02T05:00:00Z", 52.0, 53.0)],
            ),
            (  # +10:30 to +11:00 on Sunday 2012-10-07
                "Australia/Lord_Howe", "10:00",
                ["2012-10-05T00:00:00Z,50", "2012-10-05T05:00:00Z,51",
                 "2012-10-07T23:30:00Z,52",  # Monday 10:30 on Lord Howe, Sunday in UTC
                 "2012-10-08T04:30:00Z,53"],
                [("2012-10-05T00:00:00Z", "2012-10-05T05:00:00Z", 50.0, 51.0),
                 ("2012-10-07T23:30:00Z", "2012-10-08T04:30:00Z", 52.0, 53.0)],
            ),
        ],
        ids=["new-york-march", "new-york-november", "lord-howe-april", "lord-howe-october"],
    )
    def test_day_sessions_follow_the_local_clock(self, zone, opens, ticks, days, caplog):
        calendar = MarketCalendar(zone, time.fromisoformat(opens), time(16, 0))
        rows = "timestamp,price\n" + "\n".join(ticks) + "\n"
        with caplog.at_level(logging.WARNING, logger="sentrade.ingest"):
            series = build_sessions(parse_ticks(io.StringIO(rows)),
                                    parse_buckets(io.StringIO(BUCKET_HEADER)), calendar)
        assert caplog.records == []
        got = [(utc_text(s.open_time), utc_text(s.close_time), s.open_price, s.close_price)
               for s in sessions_of(series)]
        night = (days[0][1], days[1][0], days[0][3], days[1][2])
        assert got == [days[0], night, days[1]]


def two_day_ticks():
    return ny_ticks("2012-06-18", ("10:00", 100.0), ("15:30", 101.0)) + plain_day()


class TestSessionSeriesValidation:
    def test_alternation_enforced(self):
        series = build(two_day_ticks())
        with pytest.raises(DataError, match="alternate"):
            replace(series, day=[True, True, True])  # session 1 should be a night

    def test_boundary_price_mismatch_rejected(self):
        series = build(two_day_ticks())
        open_prices = series.open_prices.copy()
        open_prices[1] += 1
        with pytest.raises(DataError, match="price"):
            replace(series, open_prices=open_prices)


class TestComputeReturns:
    @pytest.mark.parametrize(
        "open_price,close_price,expected",
        [(100.0, 110.0, 0.10), (100.0, 100.0, 0.0), (50.0, 45.0, -0.10)],
    )
    def test_simple_return(self, open_price, close_price, expected):
        ticks = ny_ticks("2012-06-18", ("10:00", open_price), ("15:30", close_price)) + ny_ticks(
            "2012-06-19", ("10:00", close_price), ("15:30", close_price)
        )
        series = build(ticks)
        assert series.returns[0] == pytest.approx(expected, abs=1e-15)

    def test_return_identity(self, series_b):
        for session, r in zip(sessions_of(series_b), series_b.returns):
            reconstructed = session.open_price * (1.0 + r)
            assert abs(reconstructed - session.close_price) <= 1e-12 * session.close_price

    def test_series_computes_returns_from_prices(self, series_b):
        """A series holds (close - open) / open of its own sessions, bit for
        bit, also after a round trip through the sessions CSV and after
        ``replace`` swaps its prices."""
        want = repr(tuple((s.close_price - s.open_price) / s.open_price for s in sessions_of(series_b)))
        assert repr(tuple(series_b.returns.tolist())) == want
        other = generate(SyntheticScenario("C", len(series_b), seed=8))
        swapped = replace(series_b, open_prices=other.open_prices, close_prices=other.close_prices)
        assert repr(swapped.returns.tolist()) == repr(other.returns.tolist())
        buffer = io.StringIO()
        write_sessions_csv(series_b, buffer)
        buffer.seek(0)
        assert repr(tuple(read_sessions_csv(buffer).returns.tolist())) == want


class TestSessionsCsv:
    def test_memory_held_per_session_is_bounded(self):
        """A series read back holds at most 128 bytes per session (its seven
        columns come to 65), not an object per session."""
        buffer = io.StringIO()
        write_sessions_csv(generate(SyntheticScenario("B", 5000, seed=7)), buffer)
        stream = io.StringIO(buffer.getvalue())
        tracemalloc.start()
        try:
            series = read_sessions_csv(stream)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / 5000 <= 128
        assert len(series) == 5000

    def test_round_trip_exact(self, series_b):
        buffer = io.StringIO()
        write_sessions_csv(series_b, buffer)
        buffer.seek(0)
        parsed = read_sessions_csv(buffer)
        assert parsed == series_b

    def test_comments_skipped(self):
        series = build(two_day_ticks())
        buffer = io.StringIO()
        write_sessions_csv(series, buffer, comments=["generated for a test"])
        text = buffer.getvalue()
        assert text.startswith("# generated for a test\n")
        parsed = read_sessions_csv(io.StringIO(text))
        assert parsed == series

    @pytest.mark.parametrize("comment", ["run 1\nseed 7", "run 1\r\nseed 7\n"])
    def test_multi_line_comment_round_trip(self, comment):
        series = build(two_day_ticks())
        buffer = io.StringIO()
        write_sessions_csv(series, buffer, comments=[comment])
        assert buffer.getvalue().startswith("# run 1\n# seed 7\nindex,")
        buffer.seek(0)
        assert read_sessions_csv(buffer) == series

    def test_year_one_round_trip(self):
        calendar = MarketCalendar("UTC", time(10, 0), time(16, 0))
        ticks = [(datetime(1, 1, day, hour, tzinfo=UTC), 100.0 + day + hour / 100)
                 for day in (1, 2) for hour in (10, 15)]
        series = build(ticks, calendar=calendar)
        buffer = io.StringIO()
        write_sessions_csv(series, buffer)
        assert "0,day,0001-01-01T10:30:00Z,0001-01-01T15:30:00Z," in buffer.getvalue()
        buffer.seek(0)
        assert read_sessions_csv(buffer) == series

    def test_lf_line_endings(self, series_b):
        buffer = io.StringIO()
        write_sessions_csv(series_b, buffer)
        assert "\r" not in buffer.getvalue()

    def test_bad_header(self):
        with pytest.raises(DataError, match="header"):
            read_sessions_csv(io.StringIO("index,kind\n"))

    def test_empty_file(self):
        with pytest.raises(DataError):
            read_sessions_csv(io.StringIO(""))

    def test_bad_row_reports_line(self):
        text = (
            "index,kind,open_time,close_time,open_price,close_price,pos,neg,neu\n"
            "0,day,2012-03-05T14:30:00Z,2012-03-05T20:30:00Z,100.0,abc,1,2,3\n"
        )
        with pytest.raises(DataError, match="line 2"):
            read_sessions_csv(io.StringIO(text))

    def test_bad_row_after_comment_and_blank_reports_physical_line(self):
        text = (
            "# synthetic\n"
            "index,kind,open_time,close_time,open_price,close_price,pos,neg,neu\n"
            "0,day,2012-03-05T14:30:00Z,2012-03-05T20:30:00Z,100.0,101.0,1,2,3\n"
            "\n# note\n"
            "1,night,2012-03-05T20:30:00Z,2012-03-06T14:30:00Z,101.0,102.0,1,2\n"
        )
        with pytest.raises(DataError, match="^line 6: expected 9 fields, got 8$"):
            read_sessions_csv(io.StringIO(text))

    @pytest.mark.parametrize(
        "prices, counts, message",
        [
            ("100.0,101.0", f"1,{2**53 + 1},3", "neg count must be non-negative and at most"),
            ("100.0,101.0", f"{10**200},2,3", "pos count must be non-negative and at most"),
            ("100.0,101.0", f"1,2,{10**400}", "neu count must be non-negative and at most"),
            ("1e-100,1e100", "1,2,3", "\\|return\\| must be finite and at most 2\\*\\*53"),
        ],
        ids=["count-past-cap", "count-1e200", "count-1e400", "return-1e200"],
    )
    def test_huge_values_report_line(self, prices, counts, message):
        text = (
            "index,kind,open_time,close_time,open_price,close_price,pos,neg,neu\n"
            "0,day,2012-03-05T14:30:00Z,2012-03-05T20:30:00Z,100.0,100.0,1,2,3\n"
            f"1,night,2012-03-05T20:30:00Z,2012-03-06T14:30:00Z,{prices},{counts}\n"
        )
        with pytest.raises(DataError, match=f"line 3: session 1: {message}"):
            read_sessions_csv(io.StringIO(text))

    def test_a_parse_error_is_reported_before_an_earlier_series_fault(self):
        """Every row is parsed before the series is checked, so a malformed
        later row wins over a series rule broken on an earlier one."""
        buffer = io.StringIO()
        write_sessions_csv(generate(SyntheticScenario("B", 10, seed=7)), buffer)
        rows = buffer.getvalue().splitlines()
        rows[2] = rows[2].replace(",night,", ",day,")  # session 1 no longer alternates
        with pytest.raises(DataError, match="^line 3: sessions 0 and 1 do not alternate$"):
            read_sessions_csv(io.StringIO("\n".join(rows) + "\n"))
        rows[8] += ",1"
        with pytest.raises(DataError, match="^line 9: expected 9 fields, got 10$"):
            read_sessions_csv(io.StringIO("\n".join(rows) + "\n"))

    @pytest.mark.parametrize(
        "index, column, text, message",
        [
            (4, 0, "7", "session index 7 out of order at 4"),
            (5, 1, "day", "sessions 4 and 5 do not alternate"),
            (3, 2, "2012-03-06T21:00:00Z", "gap between sessions 2 and 3"),
            (7, 4, "123.0", "boundary price mismatch between sessions 6 and 7"),
        ],
        ids=["index", "alternation", "gap", "boundary-price"],
    )
    def test_series_break_names_the_line(self, index, column, text, message):
        """The comment is line 1 and the header line 2, so session i sits on line i + 3."""
        buffer = io.StringIO()
        write_sessions_csv(generate(SyntheticScenario("B", 10, seed=7)), buffer, ["synth"])
        rows = buffer.getvalue().splitlines()
        fields = rows[index + 2].split(",")
        fields[column] = text
        rows[index + 2] = ",".join(fields)
        with pytest.raises(DataError, match=f"^line {index + 3}: {message}$"):
            read_sessions_csv(io.StringIO("\n".join(rows) + "\n"))


MUTATIONS = ("inf", "nan", "-5", "1e-320", "0", "junk", "1" + "0" * 200)
MUTATED_N = 40
SMALL_WINDOWS = PipelineParams(beta=0.4, gamma=0.5, tfw_min=8, tfw_max=10)


def _sessions_rows(n: int) -> list[str]:
    buffer = io.StringIO()
    write_sessions_csv(generate(SyntheticScenario("B", n, seed=7)), buffer)
    return buffer.getvalue().splitlines()


_BASE_ROWS = _sessions_rows(MUTATED_N)

# One field of one session; a close price and the next session's open
# together, so that a mutated price can also pass the boundary check; or all
# three counts of one session set to 0, which loads, so that runs get past
# loading often enough to exercise evaluation.
_field_edit = st.tuples(
    st.integers(0, MUTATED_N - 1), st.integers(0, 8), st.sampled_from(MUTATIONS)
).map(lambda edit: [edit])
_price_pair_edit = st.tuples(st.integers(0, MUTATED_N - 2), st.sampled_from(MUTATIONS)).map(
    lambda edit: [(edit[0], 5, edit[1]), (edit[0] + 1, 4, edit[1])]
)
_zero_counts_edit = st.integers(0, MUTATED_N - 1).map(
    lambda index: [(index, column, "0") for column in (6, 7, 8)]
)
_edits = st.lists(
    st.one_of(_field_edit, _price_pair_edit, _zero_counts_edit), min_size=1, max_size=3
).map(
    lambda groups: [edit for group in groups for edit in group]
)


class TestCsvWriter:
    """write_csv writes every CSV output; _read_csv reads every CSV input."""

    @given(st.lists(st.tuples(st.floats(), st.integers(-(2**63), 2**63 - 1))))
    @example([(0.1, 0), (1e16, -1), (1e-05, 2**53), (-0.0, 7), (5e-324, 1)])
    def test_numpy_and_python_numbers_write_the_same_text(self, rows):
        written = []
        for row_type in (tuple, lambda row: (np.float64(row[0]), np.int64(row[1]))):
            buffer = io.StringIO()
            write_csv(buffer, ("value", "count"), map(row_type, rows))
            written.append(buffer.getvalue())
        assert written[0] == written[1] == "value,count\n" + "".join(
            f"{value!r},{count}\n" for value, count in rows)

    def test_read_csv_reads_back_what_it_wrote(self):
        header = ("when", "value", "count", "token")
        rows = [("2012-03-05T14:30:00Z", 0.1, np.int64(3), "none"),
                ("0001-01-01T00:00:00Z", np.float64(-2.5e-17), 0, "true")]
        buffer = io.StringIO()
        write_csv(buffer, header, rows, comments=["one line", "two\nlines"])
        text = buffer.getvalue()
        assert text.startswith("# one line\n# two\n# lines\nwhen,value,count,token\n")
        assert "\r" not in text
        buffer.seek(0)
        assert list(_read_csv(buffer, header, tuple)) == [
            (line, tuple(map(str, row))) for line, row in zip((5, 6), rows)]

    @pytest.mark.parametrize("comment", ['a,"b', '"', 'x,"y\nz"'])
    def test_a_comment_with_quotes_reads_back(self, comment):
        """Comment lines are dropped before the CSV parser sees them, so an
        open quote in one cannot swallow the header."""
        buffer = io.StringIO()
        write_csv(buffer, ("a", "b"), [(1, 2)], [comment])
        buffer.seek(0)
        lines = len(comment.splitlines())
        assert list(_read_csv(buffer, ("a", "b"), tuple)) == [(lines + 2, ("1", "2"))]


class TestMutatedSessionsCsv:
    @settings(deadline=None, max_examples=150)
    @given(edits=_edits, normalize=st.booleans())
    @example(edits=[(10, 5, "1e-320"), (11, 4, "1e-320")], normalize=False)
    def test_fails_at_load_or_runs(self, edits, normalize):
        """A mutated file raises DataError while loading, or evaluates."""
        rows = list(_BASE_ROWS)
        for index, column, text in edits:
            fields = rows[index + 1].split(",")
            fields[column] = text
            rows[index + 1] = ",".join(fields)
        try:
            series = read_sessions_csv(io.StringIO("\n".join(rows) + "\n"))
        except DataError:
            return
        try:
            evaluate(series, replace(SMALL_WINDOWS, normalize_sentiment=normalize))
        except DataError as exc:
            assert "no sessions to evaluate" in str(exc)


# Trading days 2012-06-18 to 2012-06-22: a tick every 30 minutes of New York
# market hours (13:30Z to 20:00Z) and a bucket every three hours of the sessions.
_WEEK = datetime(2012, 6, 18, tzinfo=UTC)
_TICK_ROWS = ["timestamp,price"] + [
    f"{utc_text(_WEEK + timedelta(days=day, hours=13.5 + half / 2))},{100 + day + half / 8!r}"
    for day in range(5)
    for half in range(14)
]
_BUCKET_ROWS = ["bucket_start,positive,negative,neutral"] + [
    f"{utc_text(_WEEK + timedelta(hours=13.5 + 3 * k))},{k % 7},{k % 5},{k % 3}"
    for k in range(34)
]
TEXT_MUTATIONS = MUTATIONS + (
    "",
    '"',
    "# note",
    str(2**53),
    "2012-06-18T14:00:00",  # no UTC offset
    "2012-06-18T14:15:00Z",  # off the half hour
    "2012-06-16T15:00:00Z",  # a Saturday
    "2012-06-20T03:00:00Z",  # overnight, outside market hours
    "0001-01-01T00:00:00+01:00",  # before year 1 in UTC
    "0999-06-18T14:40:00Z",  # a trading day in year 999, in New York's local mean time
)
_text_field_edit = st.tuples(
    st.booleans(), st.integers(1, 70), st.integers(0, 3), st.sampled_from(TEXT_MUTATIONS)
).map(lambda edit: ("field",) + edit)
_text_line_edit = st.tuples(
    st.sampled_from(["blank", "comment", "drop", "repeat", "extra"]),
    st.booleans(),
    st.integers(0, 70),
).map(lambda edit: (edit[0], edit[1], edit[2], 0, ""))
_text_edits = st.lists(st.one_of(_text_field_edit, _text_line_edit), min_size=1, max_size=3)


def _edited(rows: list[str], edit) -> list[str]:
    kind, _, line, column, text = edit
    rows = list(rows)
    line = min(line, len(rows) - 1)
    if kind == "field":
        fields = rows[line].split(",")
        fields[column % len(fields)] = text
        rows[line] = ",".join(fields)
    elif kind in ("blank", "comment"):
        rows.insert(line, "" if kind == "blank" else "# inserted")
    elif kind == "drop":
        del rows[line]
    elif kind == "repeat":
        rows.insert(line, rows[line])
    else:
        rows[line] += ",1"
    return rows


class TestMutatedTickAndBucketCsv:
    @settings(deadline=None, max_examples=200)
    @given(edits=_text_edits)
    @example(edits=[("field", True, 3, 1, "1e-320")])
    @example(edits=[("field", True, 3, 0, "0001-01-01T00:00:00+01:00")])
    @example(edits=[("field", True, 3, 0, "0999-06-18T14:40:00Z")])
    @example(edits=[("field", False, 5, 1, str(2**53)), ("field", False, 6, 1, str(2**53))])
    def test_fails_at_load_or_aggregates(self, edits):
        """Mutated tick and bucket files raise DataError while loading, or
        aggregate into a series that its sessions CSV reads back; aggregation
        fails only on a sum or a price ratio that no single row shows."""
        ticks, buckets = _TICK_ROWS, _BUCKET_ROWS
        for edit in edits:
            if edit[1]:
                ticks = _edited(ticks, edit)
            else:
                buckets = _edited(buckets, edit)
        try:
            loaded_ticks = parse_ticks(io.StringIO("\n".join(ticks) + "\n"))
            loaded_buckets = parse_buckets(io.StringIO("\n".join(buckets) + "\n"))
        except DataError:
            return
        try:
            series = build_sessions(loaded_ticks, loaded_buckets, CALENDAR)
        except DataError as exc:
            message = str(exc)
            assert "|return| must be finite" in message or "count must be non-negative" in message
            return
        assert len(series) >= 7
        assert all(abs(r) <= 2**53 for r in series.returns)
        buffer = io.StringIO()
        write_sessions_csv(series, buffer)
        buffer.seek(0)
        assert read_sessions_csv(buffer) == series
