"""End-to-end command-line tests: every subcommand, exit codes, determinism."""

from __future__ import annotations

import logging
import os
import re
import signal
import subprocess
import sys
import threading
import time
from datetime import datetime, timedelta, timezone

import pytest

import sentrade
from sentrade.cli import main
from sentrade.reference import fit_window
from sentrade.sessions import read_sessions_csv

CALENDAR = """
timezone = America/New_York
open = 09:30
close = 16:00
"""

BOM = "\ufeff".encode("utf-8")

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


def test_importing_the_cli_loads_no_scipy():
    """Only fitting reads scipy.special, so synth and aggregate never import it."""
    src = os.path.dirname(os.path.dirname(sentrade.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import sentrade.cli; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_importing_the_cli_loads_only_the_fast_path():
    """``import sentrade`` loads no submodule, and ``import sentrade.cli`` only
    what train and backtest run: neither scipy, zoneinfo, the reference, the
    tick ingest nor synth."""
    src = os.path.dirname(os.path.dirname(sentrade.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "loaded = lambda: print(sorted(name for name in sys.modules "
            "if name.split('.')[0] in ('sentrade', 'scipy', 'zoneinfo'))); "
            "import sentrade; loaded(); import sentrade.cli; loaded()")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    fast_path = ["adaptive", "backtest", "cli", "config", "errors", "model_space", "sessions"]
    assert result.stdout.splitlines() == [
        str(["sentrade"]), str(["sentrade", *(f"sentrade.{name}" for name in fast_path)])
    ]


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

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        code = main(["synth", "--kind", "B", "--n", "10", "--seed", "-1",
                     "--out", str(tmp_path / "x_")])
        assert code == 1
        assert capsys.readouterr().err == "error: seed: must be non-negative, got -1\n"
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
        "name, content, detail",
        [("absent.txt", None, "absent.txt"), ("latin1.txt", b"# caf\xe9\n", "can't decode")],
        ids=["missing", "not-utf8"],
    )
    def test_unreadable_calendar_exits_one(self, workspace, capsys, name, content, detail):
        write_week_inputs(workspace)
        if content is not None:
            (workspace / name).write_bytes(content)
        code = main(
            [
                "aggregate",
                "--prices", str(workspace / "ticks.csv"),
                "--sentiment", str(workspace / "buckets.csv"),
                "--calendar", str(workspace / name),
                "--out", str(workspace / "agg_"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read calendar: ") and detail in err
        assert not (workspace / "agg_sessions.csv").exists()

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

    def test_byte_order_marks_change_nothing(self, workspace):
        write_week_inputs(workspace)
        for name in ("ticks.csv", "buckets.csv", "calendar.txt"):
            (workspace / f"bom_{name}").write_bytes(BOM + (workspace / name).read_bytes())

        def aggregate(prefix):
            assert main(
                [
                    "aggregate",
                    "--prices", str(workspace / f"{prefix}ticks.csv"),
                    "--sentiment", str(workspace / f"{prefix}buckets.csv"),
                    "--calendar", str(workspace / f"{prefix}calendar.txt"),
                    "--out", str(workspace / f"{prefix}agg_"),
                ]
            ) == 0
            return (workspace / f"{prefix}agg_sessions.csv").read_bytes()

        assert aggregate("bom_") == aggregate("")


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

    def test_log_reports_fit_table(self, workspace, caplog):
        sessions = synth_sessions(workspace)
        with caplog.at_level(logging.INFO, logger="sentrade.cli"):
            code = main(
                ["train", "--sessions", str(sessions), "--config", str(workspace / "run.cfg"),
                 "--out", str(workspace / "t_")]
            )
        assert code == 0
        # 4 sessions of windows 10-12
        assert re.search(
            r"trained on 4 scored sessions: fit table \d+\.\d\d ms \(0 of 12 cells refitted "
            r"by the reference, 0 rank verdicts eigensolved, 0 cells exact-bounded\), "
            r"replay \d+\.\d\d ms; "
            r"best train return ",
            caplog.text,
        )

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
        assert ("of 126 cells refitted by the reference, 0 rank verdicts eigensolved, "
                "0 cells exact-bounded)") in caplog.text
        assert re.search(r"evaluated 42 sessions: fit table \d+\.\d\d ms \(", caplog.text)
        assert re.search(r"exact-bounded\), replay \d+\.\d\d ms\n", caplog.text)

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

    @pytest.mark.parametrize("what", ["config", "params"])
    @pytest.mark.parametrize(
        "content", [None, b"beta = 0.4 # caf\xe9\n"], ids=["missing", "not-utf8"]
    )
    def test_unreadable_settings_exit_one(self, workspace, capsys, what, content):
        sessions = synth_sessions(workspace)
        capsys.readouterr()
        path = workspace / f"unreadable.{what}"
        if content is not None:
            path.write_bytes(content)
        code = self.run_backtest(workspace, sessions, f"--{what}", str(path))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {what}: ")
        assert not (workspace / "b_report.csv").exists()

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


class TestOutputChecks:
    """Every output is checked before a data input is read or a series
    generated, a failed check creates and truncates nothing, and a run moves
    its outputs into place together or not at all."""

    @pytest.fixture
    def no_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the fit table was built")

        monkeypatch.setattr("sentrade.backtest.FitTable", refuse)

    @pytest.mark.parametrize(
        "command, extra, blocked, what",
        [
            ("train", ["--params", "{missing}/p.txt"], None, "params"),
            ("train", ["--out", "{missing}/t_"], None, "training"),
            ("train", [], "t_params.txt", "params"),
            ("backtest", ["--out", "{missing}/b_"], None, "predictions"),
            ("backtest", [], "b_report.csv", "report"),
            ("backtest", ["--dump-models"], "b_models.csv", "models"),
        ],
        ids=["train-params-dir", "train-out-dir", "train-params-is-dir", "backtest-out-dir",
             "backtest-report-is-dir", "backtest-models-is-dir"],
    )
    def test_unwritable_output_exits_before_any_fit(
        self, workspace, capsys, no_table, command, extra, blocked, what
    ):
        sessions = synth_sessions(workspace)
        capsys.readouterr()
        if blocked:
            (workspace / blocked).mkdir()
        before = sorted(workspace.rglob("*"))
        prefix = "t_" if command == "train" else "b_"
        missing = str(workspace / "missing")
        code = main(
            [command, "--sessions", str(sessions), "--config", str(workspace / "run.cfg"),
             "--out", str(workspace / prefix), *(a.format(missing=missing) for a in extra)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {what}: ")
        assert sorted(workspace.rglob("*")) == before

    def test_existing_outputs_are_not_truncated(self, workspace, capsys, no_table):
        sessions = synth_sessions(workspace)
        (workspace / "b_predictions.csv").write_text("earlier\n", encoding="utf-8")
        (workspace / "b_report.csv").mkdir()
        code = main(
            ["backtest", "--sessions", str(sessions), "--config", str(workspace / "run.cfg"),
             "--out", str(workspace / "b_")]
        )
        assert code == 2
        assert "cannot write report" in capsys.readouterr().err
        assert (workspace / "b_predictions.csv").read_text(encoding="utf-8") == "earlier\n"

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_outputs_naming_one_file_are_refused_by_name(self, workspace, capsys, no_table, link):
        """--params naming the training output, as a path or through a symlink,
        is refused by name before any partial file is made."""
        sessions = synth_sessions(workspace)
        capsys.readouterr()
        params = workspace / ("t_params.txt" if link else "t_training.csv")
        if link:
            params.symlink_to(workspace / "t_training.csv")
        before = sorted(workspace.rglob("*"))
        code = main(
            ["train", "--sessions", str(sessions), "--config", str(workspace / "run.cfg"),
             "--out", str(workspace / "t_"), "--params", str(params)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write params: {params}: also the training output\n"
        )
        assert sorted(workspace.rglob("*")) == before

    @pytest.mark.parametrize(
        "command, given, output, link",
        [
            ("aggregate", "sentiment", "sessions.csv", False),
            ("train", "sessions", "params.txt", False),
            ("train", "sessions", "params.txt", True),
            ("backtest", "sessions", "predictions.csv", False),
            ("backtest", "params", "report.csv", False),
        ],
        ids=["aggregate", "train", "train-symlink", "backtest", "backtest-params"],
    )
    def test_output_naming_an_input_is_refused_by_name(
        self, workspace, capsys, no_table, command, given, output, link
    ):
        """An output that is one of the command's inputs, as a path or through a
        symlink, is refused by name before any partial file is made."""
        write_week_inputs(workspace)
        synth_sessions(workspace)
        capsys.readouterr()
        (workspace / "p.txt").write_text("beta = 0.4\ngamma = 0.0\n", encoding="utf-8")
        inputs = {"prices": "ticks.csv", "sentiment": "buckets.csv", "calendar": "calendar.txt",
                  "config": "run.cfg", "sessions": "data_sessions.csv", "params": "p.txt"}
        inputs = {what: workspace / name for what, name in inputs.items()}
        colliding = workspace / f"x_{output}"
        if link:
            colliding.symlink_to(inputs[given])
        else:
            inputs[given] = inputs[given].rename(colliding)
        names = {"aggregate": ("prices", "sentiment", "calendar", "config"),
                 "train": ("sessions", "config"), "backtest": ("sessions", "config", "params")}
        args = [command, *(a for what in names[command] for a in (f"--{what}", str(inputs[what])))]
        kept = inputs[given].read_bytes()
        before = sorted(workspace.rglob("*"))
        assert main([*args, "--out", str(workspace / "x_")]) == 2
        what = output.split(".")[0]
        assert capsys.readouterr().err == (
            f"error: cannot write {what}: {colliding}: also the {given} input\n"
        )
        assert inputs[given].read_bytes() == kept
        assert sorted(workspace.rglob("*")) == before  # no partial file either

    def test_out_of_memory_is_one_line(self, tmp_path, capsys):
        """numpy refuses a synth of 10**15 sessions (7 PiB) at once, allocating nothing."""
        assert main(["synth", "--kind", "B", "--n", str(10**15), "--out", str(tmp_path / "x_")]) == 2
        assert re.fullmatch(r"error: out of memory: Unable to allocate .+\n", capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("what", ["sessions", "prices", "sentiment"])
    def test_missing_data_input_names_itself(self, workspace, capsys, what):
        write_week_inputs(workspace)
        absent = str(workspace / "absent.csv")
        if what == "sessions":
            args = ["train", "--sessions", absent, "--config", str(workspace / "run.cfg")]
        else:
            inputs = {"prices": str(workspace / "ticks.csv"),
                      "sentiment": str(workspace / "buckets.csv"), what: absent}
            args = ["aggregate", "--prices", inputs["prices"], "--sentiment", inputs["sentiment"],
                    "--calendar", str(workspace / "calendar.txt")]
        before = sorted(workspace.rglob("*"))
        assert main([*args, "--out", str(workspace / "x_")]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {what}: {absent}: No such file or directory\n"
        )
        assert sorted(workspace.rglob("*")) == before

    @pytest.mark.parametrize("command", ["synth", "aggregate"])
    @pytest.mark.parametrize("blocker", [None, os.mkdir, os.mkfifo],
                             ids=["out-dir", "out-is-dir", "out-is-fifo"])
    def test_unwritable_output_exits_before_any_input(
        self, workspace, capsys, monkeypatch, command, blocker
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("an input was read or a series generated")

        monkeypatch.setattr("sentrade.synth.generate", refuse)
        monkeypatch.setattr("sentrade.ingest.parse_ticks", refuse)
        write_week_inputs(workspace)
        if blocker:
            blocker(workspace / "s_sessions.csv")
        before = sorted(workspace.rglob("*"))
        out = str(workspace / ("s_" if blocker else "missing/s_"))
        args = {
            "synth": ["synth", "--kind", "B", "--n", "60"],
            "aggregate": ["aggregate", "--prices", str(workspace / "ticks.csv"),
                          "--sentiment", str(workspace / "buckets.csv"),
                          "--calendar", str(workspace / "calendar.txt")],
        }[command]
        assert main([*args, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write sessions: {out}")
        assert sorted(workspace.rglob("*")) == before

    def test_failed_write_keeps_earlier_outputs(self, workspace, capsys, monkeypatch):
        sessions = synth_sessions(workspace)
        args = ["backtest", "--sessions", str(sessions), "--config", str(workspace / "run.cfg"),
                "--out", str(workspace / "b_")]
        assert main(args) == 0
        before = {path: path.read_bytes() for path in workspace.iterdir()}
        written = []

        def failing(ledger, stream):
            written.append(stream.name)
            raise OSError("disk full")

        monkeypatch.setattr("sentrade.cli.write_report_csv", failing)
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert written and written[0].endswith(".partial")
        assert {path: path.read_bytes() for path in workspace.iterdir()} == before

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["TERM", "INT"])
    def test_sigterm_leaves_no_partial_file(self, workspace, signum):
        """An aggregate reading a FIFO as its ticks blocks once its partial
        output exists; SIGTERM then ends it with exit 143, and SIGINT with 130,
        leaving no partial file and no traceback.  The child takes Python's
        own SIGINT handler, which a shell leaves out when it starts a
        background job with SIGINT ignored."""
        os.mkfifo(workspace / "ticks.csv")
        src = os.path.dirname(os.path.dirname(sentrade.__file__))
        argv = ["aggregate", "--prices", str(workspace / "ticks.csv"), "--sentiment",
                str(workspace / "buckets.csv"), "--calendar", str(workspace / "calendar.txt"),
                "--out", str(workspace / "s_")]
        code = f"import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); " \
               f"sys.path.insert(0, {src!r}); from sentrade.cli import main; " \
               f"sys.exit(main({argv!r}))"
        process = subprocess.Popen([sys.executable, "-c", code], stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while not list(workspace.glob("*.partial")):
                assert process.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            process.send_signal(signum)
            _, err = process.communicate(timeout=60)
            assert process.returncode == 128 + signum
        finally:
            process.kill()
            process.wait()
        assert b"Traceback" not in err
        assert not list(workspace.glob("*.partial"))

    def test_command_runs_off_the_main_thread(self, tmp_path):
        """Only the main thread may set a signal handler, so elsewhere main leaves SIGTERM be."""
        codes = []
        argv = ["synth", "--kind", "B", "--n", "60", "--out", str(tmp_path / "x_")]
        worker = threading.Thread(target=lambda: codes.append(main(argv)))
        worker.start()
        worker.join(timeout=60)
        assert codes == [0]

    def test_outputs_get_the_mode_of_a_plain_open(self, workspace):
        with open(workspace / "plain.csv", "w"):
            pass
        synth_sessions(workspace)
        mode = (workspace / "plain.csv").stat().st_mode
        assert (workspace / "data_sessions.csv").stat().st_mode == mode

    def test_symlinked_output_keeps_its_link(self, workspace):
        (workspace / "real").mkdir()
        link = workspace / "data_sessions.csv"
        link.symlink_to(workspace / "real" / "target.csv")
        synth_sessions(workspace)
        assert link.is_symlink()
        assert (workspace / "real" / "target.csv").read_text(encoding="utf-8").startswith("# synth")
        assert sorted(p.name for p in workspace.rglob("*")) == sorted(
            ["calendar.txt", "run.cfg", "data_sessions.csv", "real", "target.csv"]
        )


# One file of each settings kind, with a comment on line 1.
SETTINGS_FILES = {
    "config": "# run settings\ntfw_min = 10\ntfw_max = 12\np_threshold = 0.1\n"
              "normalize_sentiment = false\nbeta = 0.4\ngamma = 0.0\n",
    "params": "# trained\nbeta = 0.4\ngamma = 0.0\n",
    "calendar": "# market\ntimezone = America/New_York\nopen = 09:30\nclose = 16:00\n"
                "holidays = 2012-07-04\n",
}


class TestSettingsValues:
    @pytest.mark.parametrize(
        "what, line, key, raw, expected",
        [
            ("config", 2, "tfw_min", "1e3", "an integer"),
            ("config", 4, "p_threshold", "5%", "a number"),
            ("config", 5, "normalize_sentiment", "maybe", "true or false"),
            ("params", 3, "gamma", "high", "a number"),
            ("calendar", 3, "open", "930", "HH:MM"),
            ("calendar", 5, "holidays", "2012-07-04, 2012-13-01", "comma-separated ISO dates"),
        ],
        ids=["integer", "number", "true-false", "params-number", "wall-time", "iso-dates"],
    )
    def test_bad_value_names_file_line_and_key(
        self, workspace, capsys, what, line, key, raw, expected
    ):
        lines = SETTINGS_FILES[what].splitlines()
        assert lines[line - 1].startswith(f"{key} = ")
        lines[line - 1] = f"{key} = {raw}"
        path = workspace / f"bad.{what}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_week_inputs(workspace)
        sessions = synth_sessions(workspace)
        capsys.readouterr()
        out = str(workspace / "out_")
        command = {
            "config": ["train", "--sessions", str(sessions), "--config", str(path)],
            "params": ["backtest", "--sessions", str(sessions), "--config",
                       str(workspace / "run.cfg"), "--params", str(path)],
            "calendar": ["aggregate", "--prices", str(workspace / "ticks.csv"),
                         "--sentiment", str(workspace / "buckets.csv"), "--calendar", str(path)],
        }[what]
        assert main([*command, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {what} line {line}: {key}: expected {expected}, got {raw!r}\n"
        )
        assert not list(workspace.glob("out_*"))


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

    @staticmethod
    def train_and_backtest(workspace, prefix, sessions, config, threads=1):
        """The four files a train then backtest run writes, by name."""
        assert main(
            ["train", "--sessions", str(sessions), "--config", str(config),
             "--threads", str(threads), "--out", str(workspace / prefix)]
        ) == 0
        assert main(
            ["backtest", "--sessions", str(sessions), "--config", str(config),
             "--params", str(workspace / f"{prefix}params.txt"),
             "--threads", str(threads), "--out", str(workspace / prefix)]
        ) == 0
        return {
            name: (workspace / f"{prefix}{name}").read_bytes()
            for name in ("training.csv", "params.txt", "predictions.csv", "report.csv")
        }

    def test_train_then_backtest_is_byte_stable(self, workspace):
        sessions = synth_sessions(workspace)
        config = workspace / "run.cfg"
        first = self.train_and_backtest(workspace, "r1_", sessions, config, threads=1)
        second = self.train_and_backtest(workspace, "r2_", sessions, config, threads=1)
        threaded = self.train_and_backtest(workspace, "r4_", sessions, config, threads=4)
        assert first == second
        assert first == threaded

    def test_byte_order_marks_change_nothing(self, workspace):
        sessions = synth_sessions(workspace)  # its first line is a # comment
        config = workspace / "run.cfg"
        for path in (sessions, config):
            (workspace / f"bom_{path.name}").write_bytes(BOM + path.read_bytes())
        plain = self.train_and_backtest(workspace, "plain_", sessions, config)
        marked = self.train_and_backtest(
            workspace, "bom_", workspace / f"bom_{sessions.name}", workspace / f"bom_{config.name}"
        )
        assert marked == plain
