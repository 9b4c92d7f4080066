"""Session assembly, parsing, and serialization tests."""

from __future__ import annotations

import io
import logging
from dataclasses import replace
from datetime import date, datetime, time, timedelta, timezone

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
    compute_returns,
    format_utc,
    match_brand,
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
            SessionSeries("x", tuple(broken))

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
            SessionSeries("x", tuple(broken))

    def test_returns_length_checked(self):
        series = build_sessions(two_day_prices(), [], CALENDAR)
        with pytest.raises(DataError, match="length"):
            SessionSeries("x", series.sessions, returns=(0.1,))


class TestComputeReturns:
    @pytest.mark.parametrize(
        "open_price,close_price,expected",
        [(100.0, 110.0, 0.10), (100.0, 100.0, 0.0), (50.0, 45.0, -0.10)],
    )
    def test_simple_return(self, open_price, close_price, expected):
        ticks = ny_ticks("2012-06-18", ("10:00", open_price), ("15:30", close_price)) + ny_ticks(
            "2012-06-19", ("10:00", close_price), ("15:30", close_price)
        )
        series = compute_returns(build_sessions(session_prices(ticks, CALENDAR), [], CALENDAR))
        assert series.returns[0] == pytest.approx(expected, abs=1e-15)

    def test_return_identity(self, series_b):
        for session, r in zip(series_b.sessions, series_b.returns):
            reconstructed = session.open_price * (1.0 + r)
            assert abs(reconstructed - session.close_price) <= 1e-12 * session.close_price


class TestMatchBrand:
    KEYWORDS = {
        "brandia": {"brandia", "model x"},
        "rivalco": {"rivalco"},
    }

    def test_direct_hit(self):
        assert match_brand("new model from Brandia is great", self.KEYWORDS) == "brandia"

    def test_no_match(self):
        assert match_brand("nothing relevant here", self.KEYWORDS) is None

    def test_ambiguous(self):
        assert match_brand("brandia versus rivalco", self.KEYWORDS) is None

    def test_whole_word_only(self):
        assert match_brand("rebrandiare is not a brand", self.KEYWORDS) is None

    def test_phrase_keyword(self):
        assert match_brand("the model x launch", self.KEYWORDS) == "brandia"


class TestSessionsCsv:
    def test_round_trip_exact(self, series_b):
        buffer = io.StringIO()
        write_sessions_csv(series_b, buffer)
        buffer.seek(0)
        parsed = read_sessions_csv(buffer, brand=series_b.brand)
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


MUTATIONS = ("inf", "nan", "-5", "1e-320", "0", "junk")
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
            series = compute_returns(read_sessions_csv(io.StringIO("\n".join(rows) + "\n")))
        except DataError:
            return
        try:
            evaluate(series, replace(SMALL_WINDOWS, normalize_sentiment=normalize))
        except DataError as exc:
            assert "no sessions to evaluate" in str(exc)
