"""Configuration file parsing and validation tests."""

from __future__ import annotations

import math
from datetime import time

import pytest

from sentrade.adaptive import PipelineParams, TfwEngine
from sentrade.backtest import simulate, split_point
from sentrade.config import Config, load_config, parse_config, parse_params_file
from sentrade.errors import ConfigError
from sentrade.sessions import MarketCalendar, session_prices

PIPELINE_FIELDS = {
    "p_threshold", "tfw_min", "tfw_max", "beta", "gamma", "initial_spread", "spread_scope"
}


def same_rule_elsewhere(kwargs):
    """The library calls that check the rule Config applies to kwargs, given the same values."""
    calls = []
    if set(kwargs) <= PIPELINE_FIELDS:
        calls.append(lambda: PipelineParams(**{"beta": 0.0, "gamma": 0.0, **kwargs}))
    if set(kwargs) <= {"beta", "gamma"}:
        calls.append(lambda: TfwEngine(w=20, **{"beta": 0.0, "gamma": 0.0, **kwargs}))
    if "train_fraction" in kwargs:
        calls.append(lambda: split_point(100, kwargs["train_fraction"]))
    if "cost_per_trade" in kwargs:
        calls.append(lambda: simulate([], [], kwargs["cost_per_trade"]))
    if "offset_minutes" in kwargs:
        calendar = MarketCalendar("America/New_York", time(9, 30), time(16, 0))
        calls.append(lambda: session_prices([], calendar, kwargs["offset_minutes"]))
    return calls


class TestConfig:
    def test_defaults(self):
        config = Config()
        assert config.p_threshold == 0.10
        assert (config.tfw_min, config.tfw_max) == (20, 40)
        assert config.beta is None and config.gamma is None
        assert config.train_fraction == 0.30
        assert config.spread_scope == "per_tfw"
        assert not config.has_params

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
        ],
    )
    def test_validation_names_the_field(self, kwargs, field):
        with pytest.raises(ConfigError, match=field) as from_config:
            Config(**kwargs)
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
            Config(**kwargs)

    def test_with_params(self):
        config = Config().with_params(0.4, 0.0)
        assert config.has_params
        assert (config.beta, config.gamma) == (0.4, 0.0)

    def test_pipeline_params_requires_training(self):
        with pytest.raises(ConfigError, match="train"):
            Config().pipeline_params()

    def test_pipeline_params_carries_fields(self):
        config = Config(tfw_min=10, tfw_max=15, p_threshold=0.05).with_params(0.3, 0.2)
        params = config.pipeline_params()
        assert (params.beta, params.gamma) == (0.3, 0.2)
        assert (params.tfw_min, params.tfw_max) == (10, 15)
        assert params.p_threshold == 0.05


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
        assert config.has_params
        assert config.normalize_sentiment is True
        assert config.spread_scope == "global"

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == Config()

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

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("beta = 0.4\ngamma = 0.0\n", encoding="utf-8")
        assert load_config(str(path)).has_params

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "absent.cfg"))


class TestParseParamsFile:
    def test_round_trip(self):
        assert parse_params_file("beta = 0.4\ngamma = 0.2\n") == (0.4, 0.2)

    def test_comments_allowed(self):
        assert parse_params_file("# trained\nbeta = 0.1\ngamma = 0.9\n") == (0.1, 0.9)

    def test_missing_gamma(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_params_file("beta = 0.4\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_params_file("beta = 0.4\ngamma = 0.2\ndelta = 1\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_params_file("beta = high\ngamma = 0.2\n")
