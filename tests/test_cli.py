"""End-to-end command-line tests: every subcommand, exit codes, determinism."""

from __future__ import annotations

import logging
from datetime import datetime, timedelta, timezone

import pytest

from sentrade.cli import main
from sentrade.model_space import fit_window
from sentrade.sessions import read_sessions_csv

CALENDAR = """
timezone = America/New_York
open = 09:30
close = 16:00
"""

# tfw small enough that sixty synthetic sessions train and evaluate quickly
CONFIG = """
tfw_min = 10
tfw_max = 12
beta = 0.4
gamma = 0.0
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "calendar.txt").write_text(CALENDAR, encoding="utf-8")
    (tmp_path / "run.cfg").write_text(CONFIG, encoding="utf-8")
    return tmp_path


def write_week_inputs(tmp_path):
    """Tick and bucket files for the trading week of 2012-03-05."""
    tick_rows = ["timestamp,price"]
    bucket_rows = ["bucket_start,positive,negative,neutral"]
    for day in range(5):  # Monday through Friday
        base = datetime(2012, 3, 5, tzinfo=timezone.utc) + timedelta(days=day)
        open_instant = base + timedelta(hours=15)  # 10:00 New York, EST
        close_instant = base + timedelta(hours=20, minutes=30)  # 15:30 New York
        tick_rows.append(f"{open_instant:%Y-%m-%dT%H:%M:%SZ},{100.0 + day!r}")
        tick_rows.append(f"{close_instant:%Y-%m-%dT%H:%M:%SZ},{100.5 + day!r}")
        bucket_rows.append(f"{open_instant + timedelta(hours=1):%Y-%m-%dT%H:%M:%SZ},5,3,1")
        bucket_rows.append(f"{close_instant + timedelta(hours=4, minutes=30):%Y-%m-%dT%H:%M:%SZ},2,7,0")
    (tmp_path / "ticks.csv").write_text("\n".join(tick_rows) + "\n", encoding="utf-8")
    (tmp_path / "buckets.csv").write_text("\n".join(bucket_rows) + "\n", encoding="utf-8")


def corrupt_sessions(path, edits):
    """Overwrite (session index, column, text) fields of a synthetic sessions CSV.

    The synth comment is line 1 and the header line 2, so session i sits on
    line i + 3.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    for index, column, text in edits:
        fields = lines[index + 2].split(",")
        fields[column] = text
        lines[index + 2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def synth_sessions(tmp_path, name="data_", n=60, seed=7):
    code = main(
        ["synth", "--kind", "B", "--n", str(n), "--seed", str(seed), "--out", str(tmp_path / name)]
    )
    assert code == 0
    return tmp_path / f"{name}sessions.csv"


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["synth", "--kind", "B", "--n", "10", "--frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "aggregate" in capsys.readouterr().out


class TestSynthCommand:
    def test_writes_deterministic_file(self, tmp_path, capsys):
        first = synth_sessions(tmp_path, "one_")
        second = synth_sessions(tmp_path, "two_")
        assert first.read_bytes() == second.read_bytes()
        assert "wrote 60 sessions" in capsys.readouterr().err

    def test_embeds_scenario_comment(self, tmp_path):
        path = synth_sessions(tmp_path, seed=3)
        first_line = path.read_text(encoding="utf-8").splitlines()[0]
        assert first_line.startswith("# synth kind=B")
        assert "seed=3" in first_line

    def test_invalid_scenario(self, tmp_path, capsys):
        code = main(["synth", "--kind", "A", "--n", "10", "--signal-strength", "2.0",
                     "--out", str(tmp_path / "x_")])
        assert code == 1
        assert "stationary" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--noise-sigma", "--signal-strength", "--ar2"])
    def test_non_finite_parameter_exits_one(self, tmp_path, capsys, flag):
        code = main(["synth", "--kind", "B", "--n", "60", flag, "nan", "--out", str(tmp_path / "x_")])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x_sessions.csv").exists()

    def test_overflowing_return_exits_two(self, tmp_path, capsys):
        code = main(["synth", "--kind", "B", "--n", "1", "--noise-sigma", "1e200", "--seed", "3",
                     "--out", str(tmp_path / "x_")])
        assert code == 2
        assert "|return| must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x_sessions.csv").exists()


class TestAggregateCommand:
    def test_week_produces_nine_sessions(self, workspace, capsys):
        write_week_inputs(workspace)
        code = main(
            [
                "aggregate",
                "--prices", str(workspace / "ticks.csv"),
                "--sentiment", str(workspace / "buckets.csv"),
                "--calendar", str(workspace / "calendar.txt"),
                "--out", str(workspace / "agg_"),
            ]
        )
        assert code == 0
        assert "wrote 9 sessions" in capsys.readouterr().err
        lines = (workspace / "agg_sessions.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 10  # header plus nine sessions
        assert lines[0].startswith("index,kind,")
        assert lines[1].split(",")[1] == "day"
        assert lines[2].split(",")[1] == "night"

    def test_missing_prices_file(self, workspace, capsys):
        write_week_inputs(workspace)
        code = main(
            [
                "aggregate",
                "--prices", str(workspace / "absent.csv"),
                "--sentiment", str(workspace / "buckets.csv"),
                "--calendar", str(workspace / "calendar.txt"),
                "--out", str(workspace / "agg_"),
            ]
        )
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_bad_config_exits_one(self, workspace, capsys):
        write_week_inputs(workspace)
        (workspace / "bad.cfg").write_text("betta = 0.4\n", encoding="utf-8")
        code = main(
            [
                "aggregate",
                "--prices", str(workspace / "ticks.csv"),
                "--sentiment", str(workspace / "buckets.csv"),
                "--calendar", str(workspace / "calendar.txt"),
                "--config", str(workspace / "bad.cfg"),
                "--out", str(workspace / "agg_"),
            ]
        )
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "zone,stamp",
        [("Asia/Tokyo", "9999-12-31T20:00:00Z"), ("America/New_York", "0001-01-01T01:00:00Z")],
    )
    def test_tick_outside_the_calendar_range_exits_two(self, workspace, capsys, zone, stamp):
        write_week_inputs(workspace)
        with open(workspace / "ticks.csv", "a", encoding="utf-8") as handle:
            handle.write(f"{stamp},100.0\n")
        (workspace / "zone.txt").write_text(
            CALENDAR.replace("America/New_York", zone), encoding="utf-8"
        )
        code = main(
            [
                "aggregate",
                "--prices", str(workspace / "ticks.csv"),
                "--sentiment", str(workspace / "buckets.csv"),
                "--calendar", str(workspace / "zone.txt"),
                "--out", str(workspace / "agg_"),
            ]
        )
        assert code == 2
        assert f"tick {stamp[:19]}" in capsys.readouterr().err
        assert not (workspace / "agg_sessions.csv").exists()

    def test_offset_of_a_day_exits_one(self, workspace, capsys):
        write_week_inputs(workspace)
        (workspace / "far.cfg").write_text("offset_minutes = 99999999999999\n", encoding="utf-8")
        code = main(
            [
                "aggregate",
                "--prices", str(workspace / "ticks.csv"),
                "--sentiment", str(workspace / "buckets.csv"),
                "--calendar", str(workspace / "calendar.txt"),
                "--config", str(workspace / "far.cfg"),
                "--out", str(workspace / "agg_"),
            ]
        )
        assert code == 1
        assert "offset_minutes: must lie in [0, 1440)" in capsys.readouterr().err


class TestTrainCommand:
    def test_configured_params_become_singleton_search(self, workspace, capsys):
        sessions = synth_sessions(workspace)
        code = main(
            [
                "train",
                "--sessions", str(sessions),
                "--config", str(workspace / "run.cfg"),
                "--out", str(workspace / "t_"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "beta = 0.4" in out
        assert "gamma = 0.0" in out
        training = (workspace / "t_training.csv").read_text(encoding="utf-8").splitlines()
        assert training[0] == "beta,gamma,train_return"
        assert len(training) == 2
        params = (workspace / "t_params.txt").read_text(encoding="utf-8")
        assert "beta = 0.4" in params

    def test_params_destination_flag(self, workspace):
        sessions = synth_sessions(workspace)
        code = main(
            [
                "train",
                "--sessions", str(sessions),
                "--config", str(workspace / "run.cfg"),
                "--out", str(workspace / "t_"),
                "--params", str(workspace / "chosen.txt"),
            ]
        )
        assert code == 0
        assert (workspace / "chosen.txt").exists()

    def test_log_counts_scored_sessions(self, workspace, caplog):
        sessions = synth_sessions(workspace)
        with caplog.at_level(logging.INFO, logger="sentrade.cli"):
            code = main(
                ["train", "--sessions", str(sessions), "--config", str(workspace / "run.cfg"),
                 "--out", str(workspace / "t_")]
            )
        assert code == 0
        # the 30% split is session 18; windows up to 12 start scoring at 14
        assert "trained on 4 scored sessions" in caplog.text

    @pytest.mark.parametrize(
        "seed, summary, warns",
        [
            (7, "66 of 121 grid points tie at the best, 3 distinct train returns", False),
            (1, "121 of 121 grid points tie at the best, 1 distinct train returns", True),
        ],
        ids=["mixed", "all-tie"],
    )
    def test_log_reports_grid_ties(self, workspace, caplog, seed, summary, warns):
        sessions = synth_sessions(workspace, seed=seed)
        config = workspace / "search.cfg"
        config.write_text("tfw_min = 10\ntfw_max = 12\n", encoding="utf-8")
        with caplog.at_level(logging.INFO, logger="sentrade.cli"):
            code = main(["train", "--sessions", str(sessions), "--config", str(config),
                         "--out", str(workspace / "t_")])
        assert code == 0
        assert summary in caplog.text
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert bool(warnings) == warns
        if warns:
            assert "all 121 grid points tie" in warnings[0].getMessage()
            assert "beta=0.0 gamma=0.0 won on the tie-break alone" in warnings[0].getMessage()

    @pytest.mark.parametrize(
        "edits, line, message",
        [
            ([(10, 5, "inf"), (11, 4, "inf")], 13, "finite"),
            ([(5, 6, "-5")], 8, "non-negative"),
            ([(10, 5, "1e-320"), (11, 4, "1e-320")], 14, "must be finite"),
        ],
        ids=["infinite-price-pair", "negative-count", "overflowing-return"],
    )
    def test_bad_sessions_rejected_at_load(self, workspace, capsys, edits, line, message):
        sessions = synth_sessions(workspace)
        corrupt_sessions(sessions, edits)
        code = main(
            ["train", "--sessions", str(sessions), "--config", str(workspace / "run.cfg"),
             "--out", str(workspace / "t_")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"line {line}:" in err and message in err

    def test_invalid_threads_exit_one(self, workspace, capsys):
        sessions = synth_sessions(workspace)
        code = main(
            ["train", "--sessions", str(sessions), "--config", str(workspace / "run.cfg"),
             "--threads", "0", "--out", str(workspace / "t_")]
        )
        assert code == 1
        assert "threads must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "backtest"])
    def test_invalid_threads_rejected_before_reading_files(self, workspace, capsys, command):
        code = main(
            [command, "--sessions", str(workspace / "absent.csv"), "--threads", "0",
             "--out", str(workspace / "t_")]
        )
        assert code == 1
        assert "threads must be at least 1" in capsys.readouterr().err

    def test_half_set_pair_exit_one(self, workspace, capsys):
        sessions = synth_sessions(workspace)
        (workspace / "half.cfg").write_text(
            "tfw_min = 10\ntfw_max = 12\nbeta = 0.4\n", encoding="utf-8"
        )
        code = main(
            ["train", "--sessions", str(sessions), "--config", str(workspace / "half.cfg"),
             "--out", str(workspace / "t_")]
        )
        assert code == 1
        assert "beta and gamma must be set together" in capsys.readouterr().err
        assert not (workspace / "t_training.csv").exists()

    def test_series_too_short(self, workspace, capsys):
        sessions = synth_sessions(workspace, n=30)
        code = main(
            ["train", "--sessions", str(sessions), "--config", str(workspace / "run.cfg"),
             "--out", str(workspace / "t_")]
        )
        assert code == 2
        assert "at least" in capsys.readouterr().err


class TestBacktestCommand:
    def run_backtest(self, workspace, sessions, *extra):
        return main(
            [
                "backtest",
                "--sessions", str(sessions),
                "--config", str(workspace / "run.cfg"),
                "--out", str(workspace / "b_"),
                *extra,
            ]
        )

    def test_produces_reports(self, workspace, capsys):
        sessions = synth_sessions(workspace)
        assert self.run_backtest(workspace, sessions) == 0
        out = capsys.readouterr().out
        assert "strategy" in out and "hit_rate" in out
        predictions = (workspace / "b_predictions.csv").read_text(encoding="utf-8").splitlines()
        assert predictions[0] == "index,chosen_tfw,chosen_class,predicted_sign,realized_return,correct"
        assert len(predictions) == 1 + 60 - 18  # eval span after the 30% split
        report = (workspace / "b_report.csv").read_text(encoding="utf-8").splitlines()
        assert report[0].startswith("index,decision,step_pnl,")
        assert len(report) == len(predictions)

    def test_dump_models(self, workspace):
        sessions = synth_sessions(workspace)
        assert self.run_backtest(workspace, sessions, "--dump-models") == 0
        models = (workspace / "b_models.csv").read_text(encoding="utf-8").splitlines()
        assert models[0] == "window_end,tfw,variables,class,p_max,predicted_next,passed"
        assert len(models) > 1
        # every (session, window) pair carries one row per candidate
        assert (len(models) - 1) == (60 - 18) * 3 * 29
        with open(sessions, encoding="utf-8") as handle:
            series = read_sessions_csv(handle)
        expected = []
        for t in range(18, 60):
            for w in range(10, 13):
                for model in fit_window(series, t, w):
                    rank_ok = model.fit is not None and model.fit.rank_ok
                    expected.append(
                        f"{t},{w},{model.candidate.label},{model.candidate.model_class.value},"
                        f"{repr(model.fit.max_p_value) if rank_ok else 'na'},"
                        f"{'na' if model.predicted_next is None else repr(model.predicted_next)},"
                        f"{'true' if model.passed_filter else 'false'}"
                    )
        assert models[1:] == expected

    def test_log_reports_fit_table(self, workspace, caplog):
        sessions = synth_sessions(workspace)
        with caplog.at_level(logging.INFO, logger="sentrade.cli"):
            assert self.run_backtest(workspace, sessions) == 0
        assert "evaluated 42 sessions: fit table" in caplog.text
        assert "of 126 cells refitted by the reference" in caplog.text

    def test_unset_params_exit_one(self, workspace, capsys):
        sessions = synth_sessions(workspace)
        (workspace / "bare.cfg").write_text("tfw_min = 10\ntfw_max = 12\n", encoding="utf-8")
        code = main(
            ["backtest", "--sessions", str(sessions), "--config", str(workspace / "bare.cfg"),
             "--out", str(workspace / "b_")]
        )
        assert code == 1
        assert "unset" in capsys.readouterr().err

    def test_non_finite_cost_exit_one(self, workspace, capsys):
        sessions = synth_sessions(workspace)
        (workspace / "nan.cfg").write_text(CONFIG + "cost_per_trade = nan\n", encoding="utf-8")
        code = main(
            ["backtest", "--sessions", str(sessions), "--config", str(workspace / "nan.cfg"),
             "--out", str(workspace / "b_")]
        )
        assert code == 1
        assert "cost_per_trade: must" in capsys.readouterr().err
        assert not (workspace / "b_report.csv").exists()

    def test_params_file_overrides(self, workspace):
        sessions = synth_sessions(workspace)
        (workspace / "bare.cfg").write_text("tfw_min = 10\ntfw_max = 12\n", encoding="utf-8")
        (workspace / "p.txt").write_text("beta = 0.4\ngamma = 0.0\n", encoding="utf-8")
        code = main(
            ["backtest", "--sessions", str(sessions), "--config", str(workspace / "bare.cfg"),
             "--params", str(workspace / "p.txt"), "--out", str(workspace / "b_")]
        )
        assert code == 0

    def test_eval_span_too_short_exit_two(self, workspace, capsys):
        sessions = synth_sessions(workspace, n=40)
        (workspace / "p.txt").write_text("beta = 0.4\ngamma = 0.0\n", encoding="utf-8")
        # default windows reach 40, so the warm-up swallows all 40 sessions
        code = main(
            ["backtest", "--sessions", str(sessions), "--params", str(workspace / "p.txt"),
             "--out", str(workspace / "b_")]
        )
        assert code == 2
        assert "no sessions to evaluate" in capsys.readouterr().err

    def test_missing_sessions_file(self, workspace, capsys):
        code = self.run_backtest(workspace, workspace / "absent.csv")
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edits, line, message",
        [
            ([(50, 6, "1" + "0" * 180)], 53, "pos count must be non-negative and at most 2**53"),
            ([(50, 7, "1" + "0" * 400)], 53, "neg count must be non-negative and at most 2**53"),
            ([(50, 5, "1e180"), (51, 4, "1e180")], 53, "must be finite and at most 2**53"),
        ],
        ids=["count-1e180", "count-1e400", "price-pair-1e180"],
    )
    def test_huge_values_exit_two(self, workspace, capsys, edits, line, message):
        sessions = synth_sessions(workspace, n=80)
        corrupt_sessions(sessions, edits)
        (workspace / "wide.cfg").write_text(
            "tfw_min = 20\ntfw_max = 24\nbeta = 0.4\ngamma = 0.5\n", encoding="utf-8"
        )
        code = main(
            ["backtest", "--sessions", str(sessions), "--config", str(workspace / "wide.cfg"),
             "--out", str(workspace / "b_")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"line {line}:" in err and message in err


class TestPipelineReproducibility:
    def test_readme_quick_start(self, tmp_path, capsys):
        out = str(tmp_path / "demo_")
        assert main(["synth", "--kind", "B", "--n", "200", "--seed", "7", "--out", out]) == 0
        assert main(["train", "--sessions", f"{out}sessions.csv", "--out", out]) == 0
        capsys.readouterr()
        assert main(
            ["backtest", "--sessions", f"{out}sessions.csv", "--params", f"{out}params.txt",
             "--out", out]
        ) == 0
        assert capsys.readouterr().out == (
            "strategy +1.6966 benchmark -0.2014 optimal +1.8115 trades 139 hit_rate 0.878\n"
        )

    def test_train_then_backtest_is_byte_stable(self, workspace, no_threads):
        sessions = synth_sessions(workspace)

        def run(prefix, threads):
            assert main(
                ["train", "--sessions", str(sessions), "--config", str(workspace / "run.cfg"),
                 "--threads", str(threads), "--out", str(workspace / prefix)]
            ) == 0
            assert main(
                ["backtest", "--sessions", str(sessions), "--config", str(workspace / "run.cfg"),
                 "--params", str(workspace / f"{prefix}params.txt"),
                 "--threads", str(threads), "--out", str(workspace / prefix)]
            ) == 0
            return {
                name: (workspace / f"{prefix}{name}").read_bytes()
                for name in ("training.csv", "params.txt", "predictions.csv", "report.csv")
            }

        first = run("r1_", threads=1)
        second = run("r2_", threads=1)
        threaded = run("r4_", threads=4)
        assert first == second
        assert first == threaded
