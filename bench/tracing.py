"""Spans around the calls into each hpcwatch layer, and their self times.

The traced run wraps public functions at the names they are called through
(``hpcwatch.cli.*`` for the command glue, ``hpcwatch.detector.*`` for
``run_offline`` and the streaming primitives it calls) and runs ``cli.main``
in-process.  A span records its hook name, start, end and the span that was
open when it started.  A layer's self time is the duration of its spans
minus the part of that interval their child spans cover.

A hook whose target no longer exists is skipped; every metric that needs it
is left out and named, so a refactor that removes an internal function
degrades the trace instead of breaking it.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


@dataclass
class Recorder:
    """Spans kept in memory, plus counts taken at the same boundaries."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)

    def add(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere, such as process start-up."""
        self.spans.append(Span(name, start, end, self._stack[-1] if self._stack else -1))

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, now(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = now()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((s.end - s.start) - covered)
    return out


# --- counts taken where the work happens -------------------------------------

def _count_scores(counts, args, result) -> None:
    counts["lof.scores_computed"] += len(result)


def _count_push(counts, args, result) -> None:
    if result is not None and math.isinf(result[1]):
        counts["detector.inf_scores"] += 1


def _count_points(counts, args, result) -> None:
    counts["detector.points"] += result is not None


def _count_alerts(counts, args, result) -> None:
    counts["detector.alerts"] += result is not None


def _file_bytes(key: str, arg: int) -> Callable:
    def count(counts, args, result) -> None:
        counts[key] += os.path.getsize(args[arg])
    return count


# (span name, module, attribute, count).  A function imported into two
# modules is hooked in both, under one span name.
HOOKS: list[tuple[str, str, str, Callable | None]] = [
    ("cli.main", "hpcwatch.cli", "main", None),
    ("trace.parse_file", "hpcwatch.cli", "parse_file", None),
    ("trace.parse_line", "hpcwatch.cli", "parse_line", None),
    ("trace.parse_line", "hpcwatch.trace", "parse_line", None),
    ("trace.merge", "hpcwatch.cli", "merge_traces", None),
    ("trace.align", "hpcwatch.cli", "align", None),
    ("detector.run_offline", "hpcwatch.cli", "run_offline", None),
    ("detector.push_sample", "hpcwatch.cli", "push_sample", None),
    ("detector.push_value", "hpcwatch.detector", "push_value", _count_push),
    ("detector.evaluate_tick", "hpcwatch.cli", "evaluate_tick", _count_points),
    ("detector.evaluate_tick", "hpcwatch.detector", "evaluate_tick", _count_points),
    ("detector.threshold_check", "hpcwatch.cli", "threshold_check", _count_alerts),
    ("detector.threshold_check", "hpcwatch.detector", "threshold_check", _count_alerts),
    ("lof.lof_scores", "hpcwatch.detector", "lof_scores", _count_scores),
    ("lof.lof_all", "hpcwatch.detector", "lof_all", None),
    ("lof.lof_all", "hpcwatch.cli", "lof_all", None),
    ("report.write_attack_factor", "hpcwatch.cli", "write_attack_factor_csv",
     _file_bytes("report.bytes", 0)),
    ("report.write_alerts", "hpcwatch.cli", "write_alerts_csv", _file_bytes("report.bytes", 0)),
    ("report.write_outliers", "hpcwatch.cli", "write_outliers_csv",
     _file_bytes("report.bytes", 0)),
    ("report.alert_row", "hpcwatch.cli", "alert_row", None),
    ("svgplot.emit_plot", "hpcwatch.cli", "emit_plot", _file_bytes("svgplot.bytes", 4)),
]


def install_hooks(recorder: Recorder) -> list[str]:
    """Wrap every hook target that exists; return ``module.attr`` of the rest."""
    missing = []
    for name, module, attr, count in HOOKS:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if not callable(fn):
            missing.append(f"{module}.{attr}")
            continue
        setattr(mod, attr, recorder.wrap(name, fn, count))
    return missing


# --- per-layer metrics --------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


@dataclass
class Aggregate:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


def aggregate(spans: list[Span]) -> dict[str, Aggregate]:
    agg: dict[str, Aggregate] = defaultdict(Aggregate)
    for s, own in zip(spans, self_times(spans)):
        a = agg[s.name]
        a.calls += 1
        a.self_s += own
        a.durations.append(s.end - s.start)
    return agg


def _self(agg, *names) -> float:
    return sum(agg[n].self_s for n in names)


def _calls(agg, name) -> int:
    return agg[name].calls


def _us(agg, name, q) -> float:
    return percentile(agg[name].durations, q) * 1e6


# name -> (unit, span names it needs, value from (aggregates, counts, n_counters))
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], Callable]] = {
    "trace.parse_s": ("s", ("trace.parse_file", "trace.parse_line"),
                      lambda a, c, n: _self(a, "trace.parse_file", "trace.parse_line")),
    "trace.lines": ("count", ("trace.parse_line",),
                    lambda a, c, n: _calls(a, "trace.parse_line")),
    "trace.align_s": ("s", ("trace.merge", "trace.align"),
                      lambda a, c, n: _self(a, "trace.merge", "trace.align")),
    "lof.series_s": ("s", ("lof.lof_all",), lambda a, c, n: _self(a, "lof.lof_all")),
    "lof.series_calls": ("count", ("lof.lof_all",), lambda a, c, n: _calls(a, "lof.lof_all")),
    "lof.series_calls_per_counter": ("count", ("lof.lof_all",),
                                     lambda a, c, n: _calls(a, "lof.lof_all") / n),
    "lof.window_s": ("s", ("lof.lof_scores",), lambda a, c, n: _self(a, "lof.lof_scores")),
    "lof.window_calls": ("count", ("lof.lof_scores",),
                         lambda a, c, n: _calls(a, "lof.lof_scores")),
    "lof.window_us_p50": ("us", ("lof.lof_scores",),
                          lambda a, c, n: _us(a, "lof.lof_scores", 50)),
    "lof.window_us_p99": ("us", ("lof.lof_scores",),
                          lambda a, c, n: _us(a, "lof.lof_scores", 99)),
    # one score of each rescored window is used: the lagged point
    "lof.window_scores_used_ratio": (
        "ratio", ("lof.lof_scores",),
        lambda a, c, n: _calls(a, "lof.lof_scores") / c["lof.scores_computed"]
        if c["lof.scores_computed"] else 0.0),
    "detector.pushes": ("count", ("detector.push_value",),
                        lambda a, c, n: _calls(a, "detector.push_value")),
    "detector.push_self_s": ("s", ("detector.push_value", "detector.push_sample"),
                             lambda a, c, n: _self(a, "detector.push_value",
                                                   "detector.push_sample")),
    "detector.push_us_p50": ("us", ("detector.push_value",),
                             lambda a, c, n: _us(a, "detector.push_value", 50)),
    "detector.push_us_p99": ("us", ("detector.push_value",),
                             lambda a, c, n: _us(a, "detector.push_value", 99)),
    "detector.evaluate_s": ("s", ("detector.evaluate_tick", "detector.threshold_check"),
                            lambda a, c, n: _self(a, "detector.evaluate_tick",
                                                  "detector.threshold_check")),
    "detector.points": ("count", ("detector.evaluate_tick",),
                        lambda a, c, n: c["detector.points"]),
    "detector.alerts": ("count", ("detector.threshold_check",),
                        lambda a, c, n: c["detector.alerts"]),
    "detector.inf_scores": ("count", ("detector.push_value",),
                            lambda a, c, n: c["detector.inf_scores"]),
    "detector.run_offline_self_s": ("s", ("detector.run_offline",),
                                    lambda a, c, n: _self(a, "detector.run_offline")),
    "report.write_s": ("s", ("report.write_attack_factor", "report.write_alerts",
                             "report.write_outliers", "report.alert_row"),
                       lambda a, c, n: _self(a, "report.write_attack_factor",
                                             "report.write_alerts", "report.write_outliers",
                                             "report.alert_row")),
    "report.bytes": ("B", ("report.write_attack_factor", "report.write_alerts",
                           "report.write_outliers"),
                     lambda a, c, n: c["report.bytes"]),
    "svgplot.emit_s": ("s", ("svgplot.emit_plot",), lambda a, c, n: _self(a, "svgplot.emit_plot")),
    "svgplot.bytes": ("B", ("svgplot.emit_plot",), lambda a, c, n: c["svgplot.bytes"]),
    "cli.self_s": ("s", ("cli.main",), lambda a, c, n: _self(a, "cli.main")),
    "cli.import_s": ("s", (), lambda a, c, n: _self(a, "cli.import")),
}


def layer_metrics(
    recorder: Recorder, missing: list[str], n_counters: int
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics, and the names of those left out for missing hooks."""
    absent = {name for name, module, attr, _ in HOOKS if f"{module}.{attr}" in missing}
    agg = aggregate(recorder.spans)
    out: dict[str, tuple[float, str]] = {}
    omitted = []
    for metric, (unit, needs, value) in LAYER_METRICS.items():
        if absent.intersection(needs):
            omitted.append(metric)
        else:
            out[metric] = (float(value(agg, recorder.counts, n_counters)), unit)
    out["spans.self_sum_s"] = (sum(a.self_s for a in agg.values()), "s")
    out["spans.count"] = (float(len(recorder.spans)), "count")
    return out, omitted
