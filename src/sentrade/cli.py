"""Command-line surface: aggregate, train, backtest, and synth subcommands.

Exit codes: 0 on success, 1 for usage or configuration problems, 2 for
data problems (unreadable or malformed inputs, an output that names an
input, spans too short to run, running out of memory), 130 when a command
is ended by SIGINT (Ctrl-C), 143 when by SIGTERM.

Importing this module loads only what ``train`` and ``backtest`` run:
``aggregate``, ``synth`` and ``backtest --dump-models`` import their own
modules when they run.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys
import threading
from contextlib import contextmanager, suppress
from dataclasses import replace
from typing import IO, Iterator, Sequence

from .adaptive import PipelineParams, write_predictions_csv
from .backtest import (
    evaluate,
    train_params,
    write_report_csv,
    write_training_csv,
)
from .config import format_params, parse_calendar, parse_config, parse_params_file
from .errors import ConfigError, DataError
from .model_space import FitTable
from .sessions import SessionSeries, read_sessions_csv, write_csv, write_sessions_csv

log = logging.getLogger(__name__)

MODELS_HEADER = ("window_end", "tfw", "variables", "class", "p_max", "predicted_next", "passed")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as ConfigError (exit 1)."""

    def error(self, message: str):
        raise ConfigError(message)


def _thread_count(raw: str) -> int:
    """Check --threads, kept for compatibility; nothing reads it, as runs are single-threaded."""
    try:
        count = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"threads: expected an integer, got {raw!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"threads must be at least 1, got {count}")
    return count


def build_parser() -> _Parser:
    parser = _Parser(prog="sentrade", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    agg = sub.add_parser("aggregate", help="build the sessions CSV from raw inputs")
    agg.add_argument("--prices", required=True, help="tick CSV: timestamp,price")
    agg.add_argument("--sentiment", required=True, help="bucket CSV: bucket_start,positive,negative,neutral")
    agg.add_argument("--calendar", required=True, help="market calendar file (timezone/open/close/holidays)")
    agg.add_argument("--config", help="run configuration file")
    agg.add_argument("--out", default="", help="output path prefix")
    agg.set_defaults(func=cmd_aggregate)

    train = sub.add_parser("train", help="grid-search beta and gamma on the training prefix")
    train.add_argument("--sessions", required=True, help="sessions CSV from the aggregate step")
    train.add_argument("--config", help="run configuration file")
    train.add_argument("--threads", type=_thread_count, default=1)
    train.add_argument("--out", default="", help="output path prefix")
    train.add_argument("--params", help="where to write the chosen parameters")
    train.set_defaults(func=cmd_train)

    backtest = sub.add_parser("backtest", help="trade the prediction series on the evaluation span")
    backtest.add_argument("--sessions", required=True, help="sessions CSV from the aggregate step")
    backtest.add_argument("--config", help="run configuration file")
    backtest.add_argument("--params", help="parameters file written by train")
    backtest.add_argument("--threads", type=_thread_count, default=1)
    backtest.add_argument("--out", default="", help="output path prefix")
    backtest.add_argument("--dump-models", action="store_true", help="also write per-window model diagnostics")
    backtest.set_defaults(func=cmd_backtest)

    synth = sub.add_parser("synth", help="generate a synthetic sessions CSV")
    synth.add_argument("--kind", required=True, choices=("A", "B", "C"))
    synth.add_argument("--n", required=True, type=int, help="number of sessions")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--signal-strength", type=float, default=0.02)
    synth.add_argument("--noise-sigma", type=float, default=0.004)
    synth.add_argument("--ar2", type=float, default=0.0)
    synth.add_argument("--out", default="", help="output path prefix")
    synth.set_defaults(func=cmd_synth)

    return parser


def _open_input(path: str, what: str) -> IO[str]:
    """The input ``what`` as UTF-8 text, a leading byte-order mark dropped; one that
    cannot be opened is an OSError naming it (exit 2)."""
    try:
        return open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise OSError(f"cannot read {what}: {path}: {exc.strerror or exc}") from None


def _read_setting(path: str, what: str) -> str:
    """The text of a config, params or calendar file; these are configuration (exit 1)."""
    try:
        with _open_input(path, what) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {what}: {path}: {exc}") from None
    except OSError as exc:  # from _open_input, which names the file
        raise ConfigError(str(exc)) from None


def _load_config(path: str | None) -> PipelineParams:
    return PipelineParams() if path is None else parse_config(_read_setting(path, "config"))


def _load_series(path: str):
    with _open_input(path, "sessions") as handle:
        return read_sessions_csv(handle)


@contextmanager
def _outputs(inputs: dict[str, str | None], **paths: str) -> Iterator[dict[str, IO[str]]]:
    """Each output as a new ``<path>.<pid>.partial`` file beside its target, whose
    creation checks that it can be written.  A clean exit moves every file into
    place; any exception removes them all, leaving earlier outputs as they were.
    An output that resolves to the file of one of the command's ``inputs`` (None
    for one not given), or of another output, is refused before any is created."""
    targets = {what: os.path.realpath(path) for what, path in paths.items()}
    owners = {os.path.realpath(path): f"{what} input" for what, path in inputs.items() if path}
    for what, target in targets.items():
        first = owners.setdefault(target, f"{what} output")
        if first != f"{what} output":
            raise OSError(f"cannot write {what}: {paths[what]}: also the {first}")
    partial: dict[str, IO[str]] = {}
    try:
        for what, path in paths.items():
            try:
                if os.path.isdir(path):
                    raise OSError("is a directory")
                if os.path.exists(path) and not (os.path.isfile(path) and os.access(path, os.W_OK)):
                    raise OSError("not a writable file")
                sibling = f"{targets[what]}.{os.getpid()}.partial"
                partial[what] = open(sibling, "x", encoding="utf-8", newline="")
            except OSError as exc:
                raise OSError(f"cannot write {what}: {path}: {exc.strerror or exc}") from None
        yield partial
        for handle in partial.values():  # all closed first: a full disk fails the flush
            handle.close()
        for what, handle in partial.items():
            os.replace(handle.name, targets[what])
    except BaseException:
        for handle in partial.values():
            with suppress(OSError):  # removed first: closing flushes, which fails on a full disk
                os.remove(handle.name)
                handle.close()
        raise


def _table_summary(table: FitTable, replay_seconds: float) -> str:
    """A FitTable's build time, cells, refitted cells and eigensolves, and the
    replay time."""
    return (
        f"fit table {1e3 * table.build_seconds:.2f} ms ({len(table.fallback_cells)} of "
        f"{len(table.sessions) * len(table.windows)} cells refitted by the reference, "
        f"{table.eigensolved} rank verdicts eigensolved), replay {1e3 * replay_seconds:.2f} ms"
    )


def cmd_aggregate(args: argparse.Namespace) -> int:
    from .ingest import build_sessions, parse_buckets, parse_ticks

    params = _load_config(args.config)
    calendar = parse_calendar(_read_setting(args.calendar, "calendar"))
    out_path = f"{args.out}sessions.csv"
    inputs = {"prices": args.prices, "sentiment": args.sentiment, "calendar": args.calendar,
              "config": args.config}
    with _outputs(inputs, sessions=out_path) as out:
        with _open_input(args.prices, "prices") as handle:
            ticks = parse_ticks(handle)
        with _open_input(args.sentiment, "sentiment") as handle:
            buckets = parse_buckets(handle)
        series = build_sessions(ticks, buckets, calendar, params.offset_minutes)
        write_sessions_csv(series, out["sessions"])
    print(f"wrote {len(series)} sessions to {out_path}", file=sys.stderr)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    params = _load_config(args.config)
    params_path = args.params or f"{args.out}params.txt"
    inputs = {"sessions": args.sessions, "config": args.config}
    with _outputs(inputs, training=f"{args.out}training.csv", params=params_path) as out:
        series = _load_series(args.sessions)
        result = train_params(series, params, grid=None if params.beta is None else [params.decays])
        write_training_csv(result, out["training"])
        params_text = format_params(result.beta, result.gamma)
        out["params"].write(params_text)
    print(params_text, end="")
    train_returns = [train_return for _, _, train_return in result.grid]
    ties = train_returns.count(result.train_return)
    log.info(
        "trained on %d scored sessions: %s; best train return %s at beta=%s gamma=%s; "
        "%d of %d grid points tie at the best, %d distinct train returns",
        result.scored_sessions,
        _table_summary(result.fit_table, result.replay_seconds),
        result.train_return,
        result.beta,
        result.gamma,
        ties,
        len(train_returns),
        len(set(train_returns)),
    )
    if len(train_returns) > 1 and ties == len(train_returns):
        log.warning(
            "all %d grid points tie at train return %s: beta=%s gamma=%s won on the tie-break alone",
            ties,
            result.train_return,
            result.beta,
            result.gamma,
        )
    return 0


def _write_models_csv(
    series: SessionSeries, params: PipelineParams, start: int, end: int, stream: IO[str]
) -> None:
    """One row per candidate per window per session, from the reference fit_window."""
    from .reference import fit_window

    write_csv(stream, MODELS_HEADER, (
        (
            t,
            w,
            model.candidate.label,
            model.candidate.model_class.value,
            model.fit.max_p_value if model.fit is not None and model.fit.rank_ok else "na",
            "na" if model.predicted_next is None else model.predicted_next,
            "true" if model.passed_filter else "false",
        )
        for t in range(start, end)
        for w in params.windows
        for model in fit_window(
            series, t, w, params.p_threshold, normalize=params.normalize_sentiment
        )
    ))


def cmd_backtest(args: argparse.Namespace) -> int:
    params = _load_config(args.config)
    if args.params:
        beta, gamma = parse_params_file(_read_setting(args.params, "params"))
        params = replace(params, beta=beta, gamma=gamma)
    params.decays  # an untrained run fails before the sessions file is read
    names = ("predictions", "report", "models")[: 3 if args.dump_models else 2]
    inputs = {"sessions": args.sessions, "config": args.config, "params": args.params}
    with _outputs(inputs, **{name: f"{args.out}{name}.csv" for name in names}) as out:
        series = _load_series(args.sessions)
        result = evaluate(series, params)
        write_predictions_csv(result.records, out["predictions"])
        write_report_csv(result.ledger, out["report"])
        if args.dump_models:
            _write_models_csv(series, params, result.start, len(series), out["models"])
    ledger = result.ledger
    log.info(
        "evaluated %d sessions: %s",
        len(result.records),
        _table_summary(result.fit_table, result.replay_seconds),
    )
    hit = "na" if ledger.hit_rate is None else f"{ledger.hit_rate:.3f}"
    print(
        f"strategy {ledger.final_strategy:+.4f} benchmark {ledger.final_benchmark:+.4f} "
        f"optimal {ledger.final_optimal:+.4f} trades {ledger.n_trades} hit_rate {hit}"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SyntheticScenario, generate

    scenario = SyntheticScenario(
        kind=args.kind,
        n_sessions=args.n,
        signal_strength=args.signal_strength,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        ar2=args.ar2,
    )
    comment = (
        f"synth kind={scenario.kind} n={scenario.n_sessions} "
        f"signal_strength={scenario.signal_strength!r} noise_sigma={scenario.noise_sigma!r} "
        f"seed={scenario.seed} ar2={scenario.ar2!r}"
    )
    out_path = f"{args.out}sessions.csv"
    with _outputs({}, sessions=out_path) as out:
        series = generate(scenario)
        write_sessions_csv(series, out["sessions"], comments=[comment])
    print(f"wrote {len(series)} sessions to {out_path}", file=sys.stderr)
    return 0


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # SIGTERM becomes SystemExit(143) for the command, so _outputs removes its partial
        # files; Python sets handlers, and runs them, in the main thread only.
        main_thread = threading.current_thread() is threading.main_thread()
        previous = signal.signal(signal.SIGTERM, _terminate) if main_thread else None
        try:
            return args.func(args)
        finally:
            if main_thread:  # None: a handler not set from Python, which it cannot restore
                signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)
    except SystemExit as exc:  # argparse --help, or SIGTERM
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except KeyboardInterrupt:  # SIGINT, where Python's own handler is in place
        return 128 + signal.SIGINT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
