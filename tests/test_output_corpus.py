"""End-to-end outputs pinned by SHA-256 at the sizes where the fast path's guards fire.

Every input is generated in-tree.  Each case runs the commands a user
would run and pins the digest of every output file and of each command's
stdout against ``output_corpus.json``:

- ``synth`` kinds A, B and C at n = 200, seed 7;
- ``aggregate`` on ``test_cli``'s trading week;
- ``train`` then ``backtest`` on B1000 (a refitted cell), C1000 and C2000
  with raw counts (refitted cells and eigensolved rank verdicts), C1000
  with count shares and global spread scope, and kind A at n = 1000;
- ``train`` then ``backtest --dump-models`` on B200 at windows 10-14 (a
  refitted cell).

Each ``train`` and ``backtest`` case also pins its fit table's counts of
refitted cells, eigensolved rank verdicts and cells whose exact error
bounds were formed.  ``models.csv`` holds SVD floats whose last bits
follow the LAPACK build, so only its decision columns are pinned by
digest, and its floats are checked against ``fit_window`` on a sample.

A change that moves a digest names the case, the file and the cause.
``PYTHONPATH=src python tests/test_output_corpus.py`` rewrites the digest file.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from unittest import mock

import numpy as np
import pytest

from sentrade import backtest
from sentrade.cli import main
from sentrade.config import parse_config
from sentrade.model_space import FitTable
from sentrade.reference import fit_window
from sentrade.sessions import read_sessions_csv
from test_cli import CALENDAR, write_week_inputs

DIGESTS = Path(__file__).resolve().parent / "output_corpus.json"

SYNTH = {f"synth-{kind}": (kind, 200, ()) for kind in "ABC"}
TRAINED = {  # (kind, n, synth flags, config, backtest flags)
    "B1000": ("B", 1000, (), "", ()),
    "C1000-raw": ("C", 1000, (), "", ()),
    "C2000-raw": ("C", 2000, (), "", ()),
    "C1000-shares-global": (
        "C", 1000, (), "normalize_sentiment = true\nspread_scope = global\n", ()
    ),
    "A1000": ("A", 1000, ("--signal-strength", "1.0", "--ar2", "-0.8"), "", ()),
    "B200-dump-models": ("B", 200, (), "tfw_min = 10\ntfw_max = 14\n", ("--dump-models",)),
}
# Every SAMPLE_EVERY-th (session, window) cell of models.csv is checked against fit_window.
SAMPLE_EVERY = 17
CASES = [*SYNTH, "aggregate-week", *TRAINED]


def _run(argv: list[str], outputs: dict[str, str]) -> dict[str, int] | None:
    """Run one command, keeping its stdout under ``<command> stdout``.  Returns
    the counts of the fit table it built, if any."""
    tables = []

    class Recorded(FitTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    with redirect_stdout(io.StringIO()) as stdout:
        with mock.patch.object(backtest, "FitTable", Recorded):
            assert main(argv) == 0
    outputs[f"{argv[0]} stdout"] = stdout.getvalue()
    if not tables:
        return None
    (table,) = tables
    return {"refitted": len(table.fallback_cells), "eigensolved": table.eigensolved,
            "exact_bounded": table.exact_bounded}


def _model_decisions(directory: Path) -> str:
    """The SHA-256 of models.csv's decision columns: the cell, the candidate,
    whether it was fitted rank-ok, whether it passed, and a passing model's
    predicted sign.  Each SAMPLE_EVERY-th cell's p_max and predicted_next
    must be those of fit_window."""
    params = parse_config((directory / "run.cfg").read_text(encoding="utf-8"))
    with open(directory / "sessions.csv", encoding="utf-8") as handle:
        series = read_sessions_csv(handle)
    lines = (directory / "models.csv").read_text(encoding="utf-8").splitlines()[1:]
    rows = [line.split(",") for line in lines]
    decisions = []
    for first in range(0, len(rows), 29):
        cell = rows[first : first + 29]
        t, w = int(cell[0][0]), int(cell[0][1])
        if first // 29 % SAMPLE_EVERY == 0:
            models = fit_window(series, t, w, params.p_threshold,
                                normalize=params.normalize_sentiment)
            for (*_, p_max, predicted, _), model in zip(cell, models, strict=True):
                fitted = model.fit is not None and model.fit.rank_ok
                assert p_max == (str(model.fit.max_p_value) if fitted else "na"), (t, w)
                assert predicted == ("na" if model.predicted_next is None
                                     else str(model.predicted_next)), (t, w)
        for *labels, p_max, predicted, passed in cell:
            sign = str(np.sign(float(predicted))) if passed == "true" else ""
            decisions.append(",".join((*labels, str(p_max != "na"), passed, sign)))
    return hashlib.sha256("\n".join(decisions).encode("utf-8")).hexdigest()


def _synth(directory: Path, kind: str, n: int, extra, outputs: dict[str, str]) -> None:
    _run(["synth", "--kind", kind, "--n", str(n), "--seed", "7", *extra,
          "--out", f"{directory}/"], outputs)


def run_case(name: str, directory: Path) -> dict[str, object]:
    """The SHA-256 of every output file and stdout of one case, run in
    ``directory``, and the counts of each fit table it built."""
    outputs: dict[str, str] = {}
    counts: dict[str, dict[str, int] | None] = {}
    if name in SYNTH:
        _synth(directory, *SYNTH[name], outputs)
    elif name == "aggregate-week":
        write_week_inputs(directory)
        (directory / "calendar.txt").write_text(CALENDAR, encoding="utf-8")
        _run(["aggregate", "--prices", f"{directory}/ticks.csv",
              "--sentiment", f"{directory}/buckets.csv",
              "--calendar", f"{directory}/calendar.txt", "--out", f"{directory}/"], outputs)
    else:
        kind, n, extra, config, flags = TRAINED[name]
        _synth(directory, kind, n, extra, outputs)
        (directory / "run.cfg").write_text(config, encoding="utf-8")
        common = ["--sessions", f"{directory}/sessions.csv", "--config", f"{directory}/run.cfg",
                  "--out", f"{directory}/"]
        counts["train fit table"] = _run(["train", *common], outputs)
        counts["backtest fit table"] = _run(
            ["backtest", *common, "--params", f"{directory}/params.txt", *flags], outputs
        )
    digests = {key: hashlib.sha256(text.encode("utf-8")).hexdigest()
               for key, text in outputs.items()}
    for path in sorted(directory.glob("*")):
        if path.name == "models.csv":
            digests["models.csv decisions"] = _model_decisions(directory)
        elif path.suffix in (".csv", ".txt") and path.name not in ("ticks.csv", "buckets.csv",
                                                                   "calendar.txt"):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests | counts


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_the_corpus(tmp_path, name):
    assert run_case(name, tmp_path) == json.loads(DIGESTS.read_text(encoding="utf-8"))[name]


# The cases whose commands load synth, the tick ingest or the reference on first use.
COLD_CASES = ("synth-B", "aggregate-week", "B1000", "B200-dump-models")
_COLD_RUN = """\
import json, sys
from contextlib import redirect_stdout
from io import StringIO
sys.path.insert(0, {src!r})
import sentrade.cli
with redirect_stdout(StringIO()) as stdout:
    code = sentrade.cli.main({argv!r})
print(json.dumps([code, stdout.getvalue(), sorted(sys.modules)]))
"""
_TABLE_LOG = re.compile(r"\((\d+) of \d+ cells refitted by the reference, (\d+) rank verdicts "
                        r"eigensolved, (\d+) cells exact-bounded\)")


def test_on_demand_paths_match_the_corpus_from_a_cold_interpreter(tmp_path, monkeypatch):
    """Each command of the cases that need synth, the tick ingest or the
    reference runs in a fresh interpreter that has imported ``sentrade.cli``
    alone, so those modules load inside the command, as they do for a user.
    The fit table counts are read off the command's log line."""
    src = os.path.dirname(os.path.dirname(backtest.__file__))
    loaded: dict[str, set[str]] = {}

    def cold(argv: list[str], outputs: dict[str, str]) -> dict[str, int] | None:
        result = subprocess.run([sys.executable, "-c", _COLD_RUN.format(src=src, argv=argv)],
                                capture_output=True, text=True, check=True)
        code, stdout, modules = json.loads(result.stdout)
        assert code == 0, result.stderr
        outputs[f"{argv[0]} stdout"] = stdout
        loaded.setdefault(argv[0], set()).update(modules)
        table = _TABLE_LOG.search(result.stderr)
        keys = ("refitted", "eigensolved", "exact_bounded")
        return table and dict(zip(keys, map(int, table.groups())))

    monkeypatch.setitem(globals(), "_run", cold)
    corpus = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for name in COLD_CASES:
        (tmp_path / name).mkdir()
        assert run_case(name, tmp_path / name) == corpus[name], name
    assert "sentrade.synth" in loaded["synth"] and "sentrade.ingest" in loaded["aggregate"]
    assert "sentrade.reference" in loaded["backtest"]


if __name__ == "__main__":
    corpus = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            corpus[case] = run_case(case, Path(scratch))
    DIGESTS.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8")
