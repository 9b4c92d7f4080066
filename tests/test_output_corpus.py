"""End-to-end outputs pinned by SHA-256 at the sizes where the fast path's guards fire.

Every input is generated in-tree.  Each case runs the commands a user
would run and pins the digest of every output file and of each command's
stdout against ``output_corpus.json``:

- ``synth`` kinds A, B and C at n = 200, seed 7;
- ``aggregate`` on ``test_cli``'s trading week;
- ``train`` then ``backtest`` on B1000 (a refitted cell), C1000 and C2000
  with raw counts (refitted cells and eigensolved rank verdicts), C1000
  with count shares and global spread scope, and kind A at n = 1000.

A change that moves a digest names the case, the file and the cause.
``PYTHONPATH=src python tests/test_output_corpus.py`` rewrites the digest file.
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sentrade.cli import main
from test_cli import CALENDAR, write_week_inputs

DIGESTS = Path(__file__).resolve().parent / "output_corpus.json"

SYNTH = {f"synth-{kind}": (kind, 200, ()) for kind in "ABC"}
TRAINED = {
    "B1000": ("B", 1000, (), ""),
    "C1000-raw": ("C", 1000, (), ""),
    "C2000-raw": ("C", 2000, (), ""),
    "C1000-shares-global": ("C", 1000, (), "normalize_sentiment = true\nspread_scope = global\n"),
    "A1000": ("A", 1000, ("--signal-strength", "1.0", "--ar2", "-0.8"), ""),
}
CASES = [*SYNTH, "aggregate-week", *TRAINED]


def _run(argv: list[str], outputs: dict[str, str]) -> None:
    """Run one command, keeping its stdout under ``<command> stdout``."""
    with redirect_stdout(io.StringIO()) as stdout:
        assert main(argv) == 0
    outputs[f"{argv[0]} stdout"] = stdout.getvalue()


def _synth(directory: Path, kind: str, n: int, extra, outputs: dict[str, str]) -> None:
    _run(["synth", "--kind", kind, "--n", str(n), "--seed", "7", *extra,
          "--out", f"{directory}/"], outputs)


def run_case(name: str, directory: Path) -> dict[str, str]:
    """The SHA-256 of every output file and stdout of one case, run in ``directory``."""
    outputs: dict[str, str] = {}
    if name in SYNTH:
        _synth(directory, *SYNTH[name], outputs)
    elif name == "aggregate-week":
        write_week_inputs(directory)
        (directory / "calendar.txt").write_text(CALENDAR, encoding="utf-8")
        _run(["aggregate", "--prices", f"{directory}/ticks.csv",
              "--sentiment", f"{directory}/buckets.csv",
              "--calendar", f"{directory}/calendar.txt", "--out", f"{directory}/"], outputs)
    else:
        kind, n, extra, config = TRAINED[name]
        _synth(directory, kind, n, extra, outputs)
        (directory / "run.cfg").write_text(config, encoding="utf-8")
        common = ["--sessions", f"{directory}/sessions.csv", "--config", f"{directory}/run.cfg",
                  "--out", f"{directory}/"]
        _run(["train", *common], outputs)
        _run(["backtest", *common, "--params", f"{directory}/params.txt"], outputs)
    digests = {key: hashlib.sha256(text.encode("utf-8")).hexdigest()
               for key, text in outputs.items()}
    for path in sorted(directory.glob("*")):
        if path.suffix in (".csv", ".txt") and path.name not in ("ticks.csv", "buckets.csv",
                                                                 "calendar.txt"):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_the_corpus(tmp_path, name):
    assert run_case(name, tmp_path) == json.loads(DIGESTS.read_text(encoding="utf-8"))[name]


if __name__ == "__main__":
    corpus = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            corpus[case] = run_case(case, Path(scratch))
    DIGESTS.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8")
