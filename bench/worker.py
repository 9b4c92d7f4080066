"""One timed sentrade process: import, ``train``, ``backtest``.

Usage: python3 bench/worker.py ROOT WORKDIR TRACE

Imports sentrade from ROOT/src, then runs the user's own command path,
``sentrade.cli.main(["train", ...])`` followed by
``main(["backtest", ...])`` with ``--threads 1``, on WORKDIR/sessions.csv
and WORKDIR/run.cfg. Prints one JSON line: the monotonic instant the
imports finished (the parent subtracts its spawn instant to get set-up
time), each command's wall time, exit code and standard output, the peak
RSS of this process, and with TRACE=1 the per-layer spans of each command.
With WORKDIR "-" it stops after the imports, which warms the bytecode cache.
"""

import time  # first, so nothing else is imported before set-up is timed

import contextlib
import io
import json
import os
import resource
import sys
from dataclasses import dataclass

CALIBRATION_ROUNDS = 700


@dataclass(frozen=True)
class _Row:
    index: int
    value: float


def calibrate() -> float:
    """Wall time of a fixed kernel shaped like sentrade's hot loop.

    Small SVD solves, scalar incomplete-beta calls and frozen-dataclass
    churn, none of it sentrade code: a change to the program cannot move
    it, only the speed of the host can.
    """
    import numpy as np
    from scipy.special import betainc

    rng = np.random.default_rng(0)
    columns = [rng.normal(size=30) for _ in range(4)]
    y = rng.normal(size=30)
    start = time.perf_counter()
    total = 0.0
    for _ in range(CALIBRATION_ROUNDS):
        a = np.column_stack([np.ones(30), *columns])
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        total += float((vt.T @ ((u.T @ y) / s))[0])
        for j in range(4):
            total += float(betainc(12.5, 0.5, 0.3 + j * 1e-3))
        rows = [_Row(j, j * 0.5) for j in range(30)]
        total += sum(r.value for r in rows if r.index % 3)
    return time.perf_counter() - start


def main() -> int:
    root, workdir, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401

    import sentrade.cli

    ready = time.monotonic()
    if not os.path.abspath(sentrade.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"sentrade imported from {sentrade.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    if workdir == "-":
        return 0

    calibration = [calibrate()]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    prefix = os.path.join(workdir, "run_")
    common = [
        "--sessions", os.path.join(workdir, "sessions.csv"),
        "--config", os.path.join(workdir, "run.cfg"),
        "--threads", "1",
        "--out", prefix,
    ]
    result = {"ready": ready, "absent": tracer.absent if tracer else []}
    for command, extra in (("train", []), ("backtest", ["--params", prefix + "params.txt"])):
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = sentrade.cli.main([command, *common, *extra])
        result[command] = {
            "s": time.perf_counter() - start,
            "code": code,
            "stdout": captured.getvalue(),
            "layers": tracer.take() if tracer else {},
        }
        if code != 0:
            break
    calibration.append(calibrate())
    result["calibration_s"] = calibration
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
