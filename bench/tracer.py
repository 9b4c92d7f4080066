"""Per-layer call counts and times for one traced sentrade process.

The tracer wraps public functions of the sentrade modules from outside the
package. Every module attribute (or class attribute) bound to a wrapped
function is replaced, because a name imported with ``from .x import f`` is
a separate binding: patching only the defining module would silently miss
calls made through the importing one.

Each wrapper records its calls, its inclusive time, and the time spent in
wrapped callees it called directly, which gives its self time. Spans stay
in memory; ``take`` returns the totals and starts a new set.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path, span name). A target missing from the program is
# reported as absent instead of failing the run.
TARGETS = (
    ("sessions", "read_sessions_csv", "sessions.read_sessions_csv"),
    ("regression", "fit_ols", "regression.fit_ols"),
    ("regression", "two_sided_t_pvalue", "regression.two_sided_t_pvalue"),
    ("model_space", "build_design", "model_space.build_design"),
    ("model_space", "fit_window", "model_space.fit_window"),
    ("adaptive", "run_pipeline", "adaptive.run_pipeline"),
    ("adaptive", "TfwEngine.propose", "adaptive.propose"),
    ("adaptive", "TfwEngine.resolve", "adaptive.resolve"),
    ("adaptive", "select_tfw", "adaptive.select_tfw"),
    ("adaptive", "write_predictions_csv", "adaptive.write_predictions_csv"),
    ("backtest", "FitCache.__call__", "backtest.fitcache"),
    ("backtest", "simulate", "backtest.simulate"),
    ("backtest", "write_report_csv", "backtest.write_report_csv"),
    ("backtest", "write_training_csv", "backtest.write_training_csv"),
)

# Spans that fit models; run_pipeline's replay time excludes them.
FIT_SPANS = frozenset({"backtest.fitcache", "model_space.fit_window"})


class Span:
    """Running totals of one wrapped function."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.fit_child = 0.0
        self.counters: dict[str, int] = {}

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.total - self.child,
            "nonfit_s": self.total - self.fit_child,
            **self.counters,
        }


def _observe_fit_ols(span: Span, fit) -> None:
    if not fit.rank_ok:
        span.count("rank_deficient", 1)


def _observe_fit_window(span: Span, models) -> None:
    span.count("fitted", sum(1 for m in models if m.fit is not None))
    span.count("passed", sum(1 for m in models if m.passed_filter))


def _observe_run_pipeline(span: Span, result) -> None:
    span.count("records", len(result.records))
    span.count("abstained", sum(1 for r in result.records if r.predicted_sign is None))
    span.counters["last_records"] = len(result.records)


OBSERVERS = {
    "regression.fit_ols": _observe_fit_ols,
    "model_space.fit_window": _observe_fit_window,
    "adaptive.run_pipeline": _observe_run_pipeline,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []

    def install(self) -> None:
        """Wrap every target in every loaded sentrade module."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sentrade" and m]
        for module_name, path, name in TARGETS:
            owner = sys.modules.get(f"sentrade.{module_name}")
            *class_path, attr = path.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            span = self.spans[name] = Span()
            wrapper = self._wrap(name, span, original)
            if class_path:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name: str, span: Span, fn):
        stack = self._stack
        is_fit = name in FIT_SPANS
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.calls += 1
                span.total += elapsed
                span.child += frame[0]
                span.fit_child += frame[1]
                if stack:
                    stack[-1][0] += elapsed
                    if is_fit:
                        stack[-1][1] += elapsed
            if observe is not None:
                observe(span, result)
            return result

        return wrapper

    def take(self) -> dict:
        """Totals since the last call, then reset."""
        snapshot = {name: span.as_dict() for name, span in self.spans.items()}
        for span in self.spans.values():
            span.reset()
        return snapshot
