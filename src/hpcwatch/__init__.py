"""Sliding-window LOF anomaly detection over hardware counter traces."""

from .detector import (
    Alert,
    Detector,
    DetectorConfig,
    run_offline,
)
from .events import CANDIDATE_EVENTS
from .lof import LofResult, lof_all, top_n_outliers
from .trace import (
    AlignedTrace,
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
    "CANDIDATE_EVENTS",
    "Detector",
    "DetectorConfig",
    "LofResult",
    "ParseDiagnostics",
    "Sample",
    "Trace",
    "align",
    "lof_all",
    "merge_traces",
    "parse_file",
    "parse_line",
    "parse_stream",
    "run_offline",
    "top_n_outliers",
]
