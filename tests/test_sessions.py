"""Session assembly, parsing, and serialization tests."""

from __future__ import annotations

import io
import logging
import math
from dataclasses import replace
from datetime import date, datetime, time, timedelta, timezone
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from sentrade.adaptive import PipelineParams
from sentrade.backtest import evaluate
from sentrade.errors import ConfigError, DataError
from sentrade.sessions import (
    MarketCalendar,
    PriceTick,
    SentimentBucket,
    Session,
    SessionKind,
    SessionSeries,
    build_sessions,
    format_utc,
    parse_buckets,
    parse_ticks,
    parse_utc,
    read_sessions_csv,
    session_prices,
    write_sessions_csv,
)
from sentrade.synth import SyntheticScenario, generate

UTC = timezone.utc

CALENDAR = MarketCalendar("America/New_York", time(9, 30), time(16, 0))


def utc(text: str) -> datetime:
    return parse_utc(text)


def ny_ticks(day: str, *pairs) -> list[PriceTick]:
    """Ticks at New York wall-clock times on the given ISO date."""
    ticks = []
    for wall, price in pairs:
        local = datetime.fromisoformat(f"{day}T{wall}").replace(tzinfo=CALENDAR.tzinfo)
        ticks.append(PriceTick(local.astimezone(UTC), price))
    return ticks


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
        assert parse_utc(format_utc(instant)) == instant


class TestParseTicks:
    def test_single_row(self):
        ticks = parse_ticks(io.StringIO("timestamp,price\n2012-06-18T13:30:00Z,41.25\n"))
        assert ticks == [PriceTick(utc("2012-06-18T13:30:00Z"), 41.25)]

    def test_header_only(self):
        assert parse_ticks(io.StringIO("timestamp,price\n")) == []

    def test_duplicate_timestamp_keeps_last(self):
        body = "timestamp,price\n2012-06-18T13:30:00Z,10\n2012-06-18T13:30:00Z,11\n"
        ticks = parse_ticks(io.StringIO(body))
        assert len(ticks) == 1
        assert ticks[0].price == 11.0

    def test_output_sorted(self):
        body = (
            "timestamp,price\n"
            "2012-06-18T15:00:00Z,2\n"
            "2012-06-18T13:00:00Z,1\n"
        )
        ticks = parse_ticks(io.StringIO(body))
        assert [t.price for t in ticks] == [1.0, 2.0]

    def test_bad_header(self):
        with pytest.raises(DataError, match="line 1"):
            parse_ticks(io.StringIO("time,price\n"))

    def test_bad_price_reports_line(self):
        body = "timestamp,price\n2012-06-18T13:30:00Z,12\n2012-06-18T14:00:00Z,oops\n"
        with pytest.raises(DataError, match="line 3"):
            parse_ticks(io.StringIO(body))

    def test_non_positive_price_rejected(self):
        with pytest.raises(DataError, match="line 2"):
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
        assert [t.price for t in parse_ticks(io.StringIO(body))] == [41.25, 41.5]

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


class TestPriceTick:
    @pytest.mark.parametrize("price", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_price_must_be_positive_and_finite(self, price):
        with pytest.raises(ValueError, match="price must be positive and finite"):
            PriceTick(utc("2012-06-18T13:30:00Z"), price)


class TestParseBuckets:
    def test_basic(self):
        body = "bucket_start,positive,negative,neutral\n2012-06-18T13:30:00Z,3,1,2\n"
        buckets = parse_buckets(io.StringIO(body))
        assert buckets == [SentimentBucket(utc("2012-06-18T13:30:00Z"), 3, 1, 2)]

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
        assert parse_buckets(io.StringIO(body))[0].positive == 2**53

    def test_comments_and_blank_lines_skipped(self):
        body = (
            "# buckets from the stream\n"
            "bucket_start,positive,negative,neutral\n\n"
            "2012-06-18T14:00:00Z,1,2,3\n"
            "# out of order on purpose\n"
            "2012-06-18T13:30:00Z, 3 ,1,2\n"
        )
        assert parse_buckets(io.StringIO(body)) == [
            SentimentBucket(utc("2012-06-18T13:30:00Z"), 3, 1, 2),
            SentimentBucket(utc("2012-06-18T14:00:00Z"), 1, 2, 3),
        ]

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
        calendar = MarketCalendar.from_config(text)
        assert calendar.is_trading_day(date(2012, 6, 18))
        assert not calendar.is_trading_day(date(2012, 6, 17))  # Sunday
        assert not calendar.is_trading_day(date(2012, 7, 4))

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            MarketCalendar.from_config("timezone = UTC\nopen = 09:30\nclose = 16:00\nfoo = 1\n")

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="missing required key"):
            MarketCalendar.from_config("timezone = UTC\nopen = 09:30\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            MarketCalendar.from_config("timezone = UTC\ntimezone = UTC\nopen = 09:30\nclose = 16:00\n")

    def test_bad_wall_time(self):
        with pytest.raises(ConfigError, match="HH:MM"):
            MarketCalendar.from_config("timezone = UTC\nopen = 930\nclose = 16:00\n")

    def test_unknown_zone(self):
        with pytest.raises(ConfigError, match="timezone"):
            MarketCalendar.from_config("timezone = Mars/Olympus\nopen = 09:30\nclose = 16:00\n")

    def test_open_after_close(self):
        message = "^calendar: open must precede close, got open = 16:00, close = 09:30$"
        with pytest.raises(ConfigError, match=message):
            MarketCalendar.from_config("timezone = UTC\nopen = 16:00\nclose = 09:30\n")

    def test_open_must_precede_close(self):
        with pytest.raises(ConfigError):
            MarketCalendar("UTC", time(16, 0), time(9, 30))

    def test_market_open_utc_handles_dst(self):
        # June: EDT is UTC-4, so 09:30 local is 13:30 UTC.
        assert CALENDAR.market_open_utc(date(2012, 6, 18)) == utc("2012-06-18T13:30:00Z")
        # December: EST is UTC-5.
        assert CALENDAR.market_open_utc(date(2012, 12, 17)) == utc("2012-12-17T14:30:00Z")


class TestSessionPrices:
    def test_ticks_exactly_at_offsets(self):
        ticks = ny_ticks("2012-06-18", ("10:00", 100.0), ("15:30", 102.0))
        days = session_prices(ticks, CALENDAR)
        assert len(days) == 1
        day = days[0]
        assert day.open_price == 100.0
        assert day.close_price == 102.0
        assert day.open_time == ny_ticks("2012-06-18", ("10:00", 1))[0].timestamp
        assert day.close_time == ny_ticks("2012-06-18", ("15:30", 1))[0].timestamp

    def test_latest_at_or_before_rule(self):
        ticks = ny_ticks("2012-06-18", ("09:59", 99.0), ("10:01", 101.0), ("15:30", 100.0))
        days = session_prices(ticks, CALENDAR)
        assert days[0].open_price == 99.0

    def test_tick_before_market_open_not_eligible(self, caplog):
        ticks = ny_ticks("2012-06-18", ("09:00", 98.0))
        with caplog.at_level(logging.WARNING, logger="sentrade.sessions"):
            days = session_prices(ticks, CALENDAR)
        assert days == []
        assert "dropped" in caplog.text

    def test_carry_forward_within_day(self):
        # One tick right after the open serves both sampling instants.
        ticks = ny_ticks("2012-06-18", ("09:45", 97.0))
        days = session_prices(ticks, CALENDAR)
        assert days[0].open_price == 97.0
        assert days[0].close_price == 97.0

    def test_weekend_days_skipped(self):
        ticks = ny_ticks("2012-06-15", ("10:00", 1.0), ("15:30", 2.0)) + ny_ticks(
            "2012-06-18", ("10:00", 3.0), ("15:30", 4.0)
        )
        days = session_prices(ticks, CALENDAR)
        assert [d.day for d in days] == [date(2012, 6, 15), date(2012, 6, 18)]

    def test_far_tick_walks_only_days_with_ticks(self, caplog):
        """A stray tick at the end of the calendar costs one warning for the
        trading days before it, not one for each of them."""
        text = ("timestamp,price\n2012-06-18T14:00:00Z,100.0\n2012-06-18T19:30:00Z,101.0\n"
                "2012-06-19T14:00:00Z,102.0\n2012-06-19T19:30:00Z,101.5\n"
                "9999-12-31T15:00:00Z,103.0\n")
        started = perf_counter()
        with caplog.at_level(logging.WARNING, logger="sentrade.sessions"):
            days = session_prices(parse_ticks(io.StringIO(text)), CALENDAR)
        assert perf_counter() - started < 1.0
        assert [d.day for d in days] == [date(2012, 6, 18), date(2012, 6, 19), date(9999, 12, 31)]
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
            session_prices([PriceTick(utc(stamp), 100.0)], calendar, offset)

    def test_offset_swallowing_whole_day_rejected(self):
        ticks = ny_ticks("2012-06-18", ("10:00", 1.0))
        with pytest.raises(ConfigError, match="offset_minutes"):
            session_prices(ticks, CALENDAR, offset_minutes=300)


def two_day_prices():
    ticks = ny_ticks("2012-06-18", ("10:00", 100.0), ("15:30", 101.0)) + ny_ticks(
        "2012-06-19", ("10:00", 103.0), ("15:30", 104.0)
    )
    return session_prices(ticks, CALENDAR)


class TestBuildSessions:
    def test_two_days_three_sessions(self):
        series = build_sessions(two_day_prices(), [], CALENDAR)
        kinds = [s.kind for s in series.sessions]
        assert kinds == [SessionKind.DAY, SessionKind.NIGHT, SessionKind.DAY]
        night = series.sessions[1]
        assert night.open_price == 101.0
        assert night.close_price == 103.0

    def test_weekend_becomes_one_night(self):
        ticks = ny_ticks("2012-06-15", ("10:00", 99.0), ("15:30", 100.0)) + ny_ticks(
            "2012-06-18", ("10:00", 103.0), ("15:30", 104.0)
        )
        series = build_sessions(session_prices(ticks, CALENDAR), [], CALENDAR)
        assert len(series) == 3
        night = series.sessions[1]
        assert night.kind is SessionKind.NIGHT
        assert night.open_price == 100.0
        assert night.close_price == 103.0
        assert (night.close_time - night.open_time) > timedelta(days=2)

    def test_single_day_rejected(self):
        ticks = ny_ticks("2012-06-18", ("10:00", 1.0), ("15:30", 2.0))
        with pytest.raises(DataError, match="at least 2"):
            build_sessions(session_prices(ticks, CALENDAR), [], CALENDAR)

    def test_bucket_binning_half_open(self):
        daily = two_day_prices()
        day_close = daily[0].close_time
        buckets = [
            SentimentBucket(day_close - timedelta(minutes=30), 1, 0, 0),
            SentimentBucket(day_close, 0, 2, 0),  # boundary goes to the night
        ]
        series = build_sessions(daily, buckets, CALENDAR)
        assert series.sessions[0].pos == 1
        assert series.sessions[0].neg == 0
        assert series.sessions[1].neg == 2

    def test_out_of_range_buckets_discarded(self, caplog):
        daily = two_day_prices()
        buckets = [
            SentimentBucket(daily[0].open_time - timedelta(hours=1), 5, 5, 5),
            SentimentBucket(daily[1].close_time, 7, 7, 7),
        ]
        with caplog.at_level(logging.WARNING, logger="sentrade.sessions"):
            series = build_sessions(daily, buckets, CALENDAR)
        assert sum(s.pos + s.neg + s.neu for s in series.sessions) == 0
        assert "discarded" in caplog.text

    def test_count_conservation(self):
        daily = two_day_prices()
        start = daily[0].open_time
        buckets = [
            SentimentBucket(start + timedelta(minutes=30 * i), i, 2 * i, 3 * i)
            for i in range(40)
            if start + timedelta(minutes=30 * i) < daily[1].close_time
        ]
        series = build_sessions(daily, buckets, CALENDAR)
        assert sum(s.pos for s in series.sessions) == sum(b.positive for b in buckets)
        assert sum(s.neg for s in series.sessions) == sum(b.negative for b in buckets)
        assert sum(s.neu for s in series.sessions) == sum(b.neutral for b in buckets)

    def test_summed_count_over_cap_rejected(self):
        daily = two_day_prices()
        start = daily[0].open_time
        buckets = [SentimentBucket(start, 2**52, 0, 0), SentimentBucket(start, 2**52 + 1, 0, 0)]
        with pytest.raises(DataError, match="session 0: pos count must be non-negative and at"):
            build_sessions(daily, buckets, CALENDAR)

    def test_holiday_merges_sessions(self):
        def build(holidays):
            calendar = MarketCalendar(
                "America/New_York", time(9, 30), time(16, 0), frozenset(holidays)
            )
            ticks = []
            for day in ("2012-06-18", "2012-06-19", "2012-06-20"):
                ticks += ny_ticks(day, ("10:00", 100.0), ("15:30", 100.0))
            return build_sessions(session_prices(ticks, calendar), [], calendar)

        plain = build([])
        holiday = build([date(2012, 6, 19)])
        assert sum(s.kind is SessionKind.DAY for s in plain.sessions) == 3
        assert sum(s.kind is SessionKind.DAY for s in holiday.sessions) == 2
        assert len(plain) - len(holiday) == 2  # one day and one night collapsed


class TestSessionSeriesValidation:
    def test_alternation_enforced(self):
        series = build_sessions(two_day_prices(), [], CALENDAR)
        broken = list(series.sessions)
        broken[1] = Session(
            index=1,
            kind=SessionKind.DAY,  # should be night
            open_time=broken[1].open_time,
            close_time=broken[1].close_time,
            open_price=broken[1].open_price,
            close_price=broken[1].close_price,
            pos=0,
            neg=0,
            neu=0,
        )
        with pytest.raises(DataError, match="alternate"):
            SessionSeries(tuple(broken))

    def test_boundary_price_mismatch_rejected(self):
        series = build_sessions(two_day_prices(), [], CALENDAR)
        broken = list(series.sessions)
        s = broken[1]
        broken[1] = Session(
            index=1,
            kind=s.kind,
            open_time=s.open_time,
            close_time=s.close_time,
            open_price=s.open_price + 1,
            close_price=s.close_price,
            pos=0,
            neg=0,
            neu=0,
        )
        with pytest.raises(DataError, match="price"):
            SessionSeries(tuple(broken))


class TestComputeReturns:
    @pytest.mark.parametrize(
        "open_price,close_price,expected",
        [(100.0, 110.0, 0.10), (100.0, 100.0, 0.0), (50.0, 45.0, -0.10)],
    )
    def test_simple_return(self, open_price, close_price, expected):
        ticks = ny_ticks("2012-06-18", ("10:00", open_price), ("15:30", close_price)) + ny_ticks(
            "2012-06-19", ("10:00", close_price), ("15:30", close_price)
        )
        series = build_sessions(session_prices(ticks, CALENDAR), [], CALENDAR)
        assert series.returns[0] == pytest.approx(expected, abs=1e-15)

    def test_return_identity(self, series_b):
        for session, r in zip(series_b.sessions, series_b.returns):
            reconstructed = session.open_price * (1.0 + r)
            assert abs(reconstructed - session.close_price) <= 1e-12 * session.close_price

    def test_series_computes_returns_from_prices(self, series_b):
        """A series holds (close - open) / open of its own sessions, bit for
        bit, also after a round trip through the sessions CSV and after
        ``replace`` swaps its sessions."""
        want = repr(tuple(float((s.close_price - s.open_price) / s.open_price)
                          for s in series_b.sessions))
        assert repr(SessionSeries(series_b.sessions).returns) == want
        other = generate(SyntheticScenario("C", 60, seed=8))
        assert repr(replace(series_b, sessions=other.sessions).returns) == repr(other.returns)
        buffer = io.StringIO()
        write_sessions_csv(series_b, buffer)
        buffer.seek(0)
        assert repr(read_sessions_csv(buffer).returns) == want
        assert repr(tuple(series_b.returns_array.tolist())) == want


class TestSessionsCsv:
    def test_round_trip_exact(self, series_b):
        buffer = io.StringIO()
        write_sessions_csv(series_b, buffer)
        buffer.seek(0)
        parsed = read_sessions_csv(buffer)
        assert parsed.sessions == series_b.sessions

    def test_comments_skipped(self):
        series = build_sessions(two_day_prices(), [], CALENDAR)
        buffer = io.StringIO()
        write_sessions_csv(series, buffer, comments=["generated for a test"])
        text = buffer.getvalue()
        assert text.startswith("# generated for a test\n")
        parsed = read_sessions_csv(io.StringIO(text))
        assert parsed.sessions == series.sessions

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
    f"{format_utc(_WEEK + timedelta(days=day, hours=13.5 + half / 2))},{100 + day + half / 8!r}"
    for day in range(5)
    for half in range(14)
]
_BUCKET_ROWS = ["bucket_start,positive,negative,neutral"] + [
    f"{format_utc(_WEEK + timedelta(hours=13.5 + 3 * k))},{k % 7},{k % 5},{k % 3}"
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
    @example(edits=[("field", False, 5, 1, str(2**53)), ("field", False, 6, 1, str(2**53))])
    def test_fails_at_load_or_aggregates(self, edits):
        """Mutated tick and bucket files raise DataError while loading, or
        aggregate into a series; aggregation fails only on a sum or a price
        ratio that no single row shows."""
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
            daily = session_prices(loaded_ticks, CALENDAR)
            series = build_sessions(daily, loaded_buckets, CALENDAR)
        except DataError as exc:
            message = str(exc)
            assert "|return| must be finite" in message or "count must be non-negative" in message
            return
        assert len(series) >= 7
        assert all(abs(r) <= 2**53 for r in series.returns)
