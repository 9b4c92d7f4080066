"""Configuration file parsing and validation tests."""

from __future__ import annotations

import math
from dataclasses import replace
from datetime import time

import pytest

from sentrade.adaptive import PipelineParams
from sentrade.backtest import simulate, split_point
from sentrade.config import format_params, parse_config, parse_params_file
from sentrade.errors import ConfigError
from sentrade.ingest import MarketCalendar, build_sessions
from sentrade.reference import TfwEngine


def same_rule_elsewhere(kwargs):
    """The calls that check the rule PipelineParams applies to kwargs, given the same values.

    The first is PipelineParams itself with trained decays, so each rule reads
    the same whether beta and gamma are set or not.
    """
    calls = [lambda: PipelineParams(**{"beta": 0.0, "gamma": 0.0, **kwargs})]
    if set(kwargs) <= {"beta", "gamma"}:
        calls.append(lambda: TfwEngine(w=20, **{"beta": 0.0, "gamma": 0.0, **kwargs}))
    if "train_fraction" in kwargs:
        calls.append(lambda: split_point(100, kwargs["train_fraction"]))
    if "cost_per_trade" in kwargs:
        calls.append(lambda: simulate([], [], kwargs["cost_per_trade"]))
    if "offset_minutes" in kwargs:
        calendar = MarketCalendar("America/New_York", time(9, 30), time(16, 0))
        calls.append(lambda: build_sessions([], [], calendar, kwargs["offset_minutes"]))
    return calls


class TestConfig:
    def test_defaults(self):
        config = PipelineParams()
        assert config.p_threshold == 0.10
        assert (config.tfw_min, config.tfw_max) == (20, 40)
        assert config.beta is None and config.gamma is None
        assert config.train_fraction == 0.30
        assert config.offset_minutes == 30
        assert config.cost_per_trade == 0.0
        assert config.spread_scope == "per_tfw"
        with pytest.raises(ConfigError, match="unset"):
            config.decays

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"p_threshold": 0.0}, "p_threshold"),
            ({"p_threshold": 1.0}, "p_threshold"),
            ({"tfw_min": 2}, "tfw_min"),
            ({"tfw_min": 30, "tfw_max": 20}, "tfw_max"),
            ({"beta": 1.5}, "beta"),
            ({"gamma": -0.1}, "gamma"),
            ({"train_fraction": 1.0}, "train_fraction"),
            ({"offset_minutes": -5}, "offset_minutes"),
            ({"spread_scope": "everywhere"}, "spread_scope"),
            ({"cost_per_trade": -0.01}, "cost_per_trade"),
            ({"cost_per_trade": math.nan}, "cost_per_trade"),
            ({"cost_per_trade": math.inf}, "cost_per_trade"),
            ({"initial_spread": math.nan}, "initial_spread"),
            ({"initial_spread": math.inf}, "initial_spread"),
            ({"offset_minutes": 1440}, "offset_minutes"),
            ({"offset_minutes": 99999999999999}, "offset_minutes"),
            ({"cost_per_trade": 1e308}, "cost_per_trade"),
        ],
    )
    def test_validation_names_the_field(self, kwargs, field):
        with pytest.raises(ConfigError, match=field) as from_config:
            PipelineParams(**kwargs)
        # each rule has one message, whichever entry point checks it
        calls = same_rule_elsewhere(kwargs)
        assert calls
        for call in calls:
            with pytest.raises(ConfigError) as elsewhere:
                call()
            assert str(elsewhere.value) == str(from_config.value)

    @pytest.mark.parametrize("kwargs", [{"beta": 0.4}, {"gamma": 0.0}])
    def test_half_set_pair_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="beta and gamma must be set together"):
            PipelineParams(**kwargs)

    def test_with_params(self):
        config = replace(PipelineParams(), beta=0.4, gamma=0.0)
        assert config.decays == (0.4, 0.0)
        assert (config.beta, config.gamma) == (0.4, 0.0)

    def test_pipeline_params_requires_training(self):
        with pytest.raises(ConfigError, match="train") as unset:
            PipelineParams().decays
        assert str(unset.value) == (
            "beta and gamma are unset; train and pass --params, or set them in the config"
        )

    def test_pipeline_params_carries_fields(self):
        config = PipelineParams(tfw_min=10, tfw_max=15, p_threshold=0.05)
        params = replace(config, beta=0.3, gamma=0.2)
        assert params.decays == (0.3, 0.2)
        assert (params.tfw_min, params.tfw_max) == (10, 15)
        assert params.p_threshold == 0.05

    def test_set_decay_out_of_range_is_named_before_the_pair_rule(self):
        with pytest.raises(ConfigError, match=r"^beta: must lie in \[0, 1\], got 1.5$"):
            PipelineParams(beta=1.5)
        with pytest.raises(ConfigError, match="^beta and gamma must be set together$"):
            PipelineParams(beta=1.0)


class TestParseConfig:
    def test_full_file(self):
        config = parse_config(
            """
            # run parameters
            p_threshold = 0.05
            tfw_min = 10
            tfw_max = 12
            beta = 0.4
            gamma = 0.0

            normalize_sentiment = true
            spread_scope = global
            """
        )
        assert config.p_threshold == 0.05
        assert (config.tfw_min, config.tfw_max) == (10, 12)
        assert config.decays == (0.4, 0.0)
        assert config.normalize_sentiment is True
        assert config.spread_scope == "global"

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == PipelineParams()

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'betta'"):
            parse_config("beta = 0.4\nbetta = 0.2")

    def test_seed_is_unknown_key(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown key 'seed'"):
            parse_config("seed = 42")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match=r"line 3: duplicate key 'beta'"):
            parse_config("beta = 0.4\ngamma = 0.1\nbeta = 0.5")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("beta 0.4")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="tfw_min: expected an integer"):
            parse_config("tfw_min = many")

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="beta: expected a number"):
            parse_config("beta = x")

    @pytest.mark.parametrize("word,expected", [("true", True), ("No", False), ("1", True)])
    def test_bool_words(self, word, expected):
        assert parse_config(f"normalize_sentiment = {word}").normalize_sentiment is expected

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="normalize_sentiment"):
            parse_config("normalize_sentiment = maybe")


class TestParseParamsFile:
    def test_round_trip(self):
        assert parse_params_file("beta = 0.4\ngamma = 0.2\n") == (0.4, 0.2)

    def test_comments_allowed(self):
        assert parse_params_file("# trained\nbeta = 0.1\ngamma = 0.9\n") == (0.1, 0.9)

    @pytest.mark.parametrize(
        "beta, gamma", [(0.4, 0.2), (0.1 + 0.2, 1 / 3), (5e-324, 1.0 - 2**-53), (0.0, 1.0)]
    )
    def test_format_round_trip(self, beta, gamma):
        assert repr(parse_params_file(format_params(beta, gamma))) == repr((beta, gamma))

    def test_format_layout(self):
        assert format_params(0.4, 0.2) == "beta = 0.4\ngamma = 0.2\n"

    def test_missing_gamma(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_params_file("beta = 0.4\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_params_file("beta = 0.4\ngamma = 0.2\ndelta = 1\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_params_file("beta = high\ngamma = 0.2\n")
