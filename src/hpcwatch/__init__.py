"""Sliding-window LOF anomaly detection over hardware counter traces."""

from .detector import (
    Alert,
    AttackFactorPoint,
    Detector,
    DetectorConfig,
    WindowState,
    run_offline,
)
from .events import CANDIDATE_EVENTS, KNOWN_EVENTS, EventKind
from .lof import LofResult, lof_all, top_n_outliers
from .synth import EvalMetrics, GroundTruth, SynthConfig, evaluate, generate_trace
from .trace import (
    AlignedTrace,
    CounterSeries,
    ParseDiagnostics,
    Sample,
    Trace,
    align,
    merge_traces,
    parse_file,
    parse_line,
    parse_stream,
)

__version__ = "0.1.0"

__all__ = [
    "Alert",
    "AlignedTrace",
    "AttackFactorPoint",
    "CANDIDATE_EVENTS",
    "CounterSeries",
    "Detector",
    "DetectorConfig",
    "EvalMetrics",
    "EventKind",
    "GroundTruth",
    "KNOWN_EVENTS",
    "LofResult",
    "ParseDiagnostics",
    "Sample",
    "SynthConfig",
    "Trace",
    "WindowState",
    "align",
    "evaluate",
    "generate_trace",
    "lof_all",
    "merge_traces",
    "parse_file",
    "parse_line",
    "parse_stream",
    "run_offline",
    "top_n_outliers",
]
