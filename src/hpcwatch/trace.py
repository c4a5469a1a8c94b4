"""Interval-counter trace ingestion.

The wire format is the interval CSV a profiler emits: one line per readout
with the timestamp in seconds since trace start, the event-count delta over
the interval, and the event name::

    # started on Sun Apr 19 01:23:16 2015

         0.001225993,1621,branch-load-misses
         0.002574349,5149,branch-load-misses

``#`` lines are comments, blank lines are skipped, extra trailing fields
(units, ratios appended by newer profiler versions) are ignored.  A delta of
``<not counted>`` marks an interval the kernel could not measure; it is kept
as an explicit missing value because zero is a legitimate measurement.

Parsing is forgiving per line and strict in accounting: every malformed line
is recorded with its line number and reason, and the diagnostics identity

    lines_read == samples_parsed + comments_skipped + malformed + blank_lines

holds for ``parse_stream`` on arbitrary input.  ``read_samples`` is its line
reader: it yields each usable sample and each malformed line's error as the
line arrives.  ``parse_stream`` collects its output into a trace and keeps
the errors; the live ``detect`` loop pushes the samples and only counts the
errors, so its memory stays flat however many lines are malformed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

import numpy as np

from .events import EventKind

MISSING_DELTA_TOKEN = "<not counted>"


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    """One (timestamp, delta, event) readout.

    ``delta`` is ``None`` for an interval the profiler reported as not
    counted.
    """

    timestamp: float
    delta: int | None
    event: EventKind


@dataclass
class CounterSeries:
    """All samples of one event, in time order."""

    event: EventKind
    samples: list[Sample]

    def __post_init__(self) -> None:
        for a, b in zip(self.samples, self.samples[1:]):
            if b.timestamp <= a.timestamp:
                raise ValueError(
                    f"timestamps not strictly increasing for {self.event}: "
                    f"{a.timestamp} then {b.timestamp}"
                )
        for s in self.samples:
            if s.event != self.event:
                raise ValueError(f"sample event {s.event} in series {self.event}")

    @property
    def nominal_interval(self) -> float:
        """Median gap between consecutive samples, 0.0 for short series."""
        if len(self.samples) < 2:
            return 0.0
        gaps = np.diff([s.timestamp for s in self.samples])
        return float(np.median(gaps))


@dataclass
class Trace:
    """A collection of counter series, at most one per event name."""

    series: dict[str, CounterSeries] = field(default_factory=dict)
    origin: list[str] = field(default_factory=list)

    def events(self) -> list[EventKind]:
        return [s.event for s in self.series.values()]


@dataclass
class AlignedTrace:
    """Per-event delta values on a common tick grid.

    ``values[name]`` is a float array with one slot per tick; NaN marks a
    tick with no sample for that event.  Tick ``i`` represents the instant
    ``i * tick_interval``.
    """

    tick_interval: float
    n_ticks: int
    values: dict[str, np.ndarray]

    def tick_time(self, tick: int) -> float:
        return tick * self.tick_interval

    def events(self) -> list[str]:
        return list(self.values)


@dataclass
class ParseDiagnostics:
    lines_read: int = 0
    samples_parsed: int = 0
    comments_skipped: int = 0
    blank_lines: int = 0
    malformed: list[tuple[int, str]] = field(default_factory=list)
    not_counted: int = 0


class SkippedLine(enum.Enum):
    COMMENT = "comment"
    BLANK = "blank"


@dataclass(frozen=True)
class LineError:
    line_no: int
    reason: str


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_line(
    line: str,
    line_no: int,
    event_hint: EventKind | None = None,
) -> Sample | SkippedLine | LineError:
    """Classify and parse one physical line (without its terminator).

    Returns a :class:`Sample`, a :class:`SkippedLine` marker for comments and
    blank lines, or a :class:`LineError` carrying ``line_no`` and a reason.
    Two-field lines (timestamp, delta) are accepted only when ``event_hint``
    supplies the event; extra trailing fields beyond the third are ignored.
    """
    stripped = line.strip()
    if not stripped:
        return SkippedLine.BLANK
    if stripped.startswith("#"):
        return SkippedLine.COMMENT

    fields = [f.strip() for f in line.split(",")]
    if len(fields) < 3 and not (len(fields) == 2 and event_hint is not None):
        return LineError(line_no, f"expected 3 fields, got {len(fields)}")

    try:
        timestamp = float(fields[0])
    except ValueError:
        return LineError(line_no, f"non-numeric timestamp {fields[0]!r}")
    if not math.isfinite(timestamp):
        return LineError(line_no, f"non-finite timestamp {fields[0]!r}")
    if timestamp < 0:
        return LineError(line_no, f"negative timestamp {fields[0]!r}")

    delta: int | None
    if fields[1] == MISSING_DELTA_TOKEN:
        delta = None
    else:
        try:
            delta = int(fields[1])
        except ValueError:
            return LineError(line_no, f"non-numeric delta {fields[1]!r}")
        if delta < 0:
            return LineError(line_no, f"negative delta {fields[1]!r}")

    if len(fields) >= 3:
        event = EventKind(fields[2])
        if not event.name:
            return LineError(line_no, "empty event name")
    else:
        assert event_hint is not None
        event = event_hint

    return Sample(timestamp=timestamp, delta=delta, event=event)


def read_samples(
    reader: Iterable[str] | IO[str],
    diags: ParseDiagnostics,
    event_hint: EventKind | None = None,
) -> Iterator[Sample | LineError]:
    """Yield each usable sample, or the error of a malformed line, as read.

    Comments, blank lines and usable samples are counted in ``diags``;
    malformed lines are left to the caller, which may keep or count the
    errors.  A line whose timestamp does not increase on its event's last
    usable one is malformed too, so each event's samples strictly increase
    in time.
    """
    last_ts: dict[str, float] = {}
    for line_no, raw in enumerate(reader, start=1):
        diags.lines_read += 1
        parsed = parse_line(raw.rstrip("\r\n"), line_no, event_hint)
        if parsed is SkippedLine.COMMENT:
            diags.comments_skipped += 1
        elif parsed is SkippedLine.BLANK:
            diags.blank_lines += 1
        elif isinstance(parsed, LineError):
            yield parsed
        elif parsed.event.name in last_ts and parsed.timestamp <= last_ts[parsed.event.name]:
            # series timestamps must strictly increase; a stale line is
            # unusable but must not abort the stream
            yield LineError(line_no, f"non-increasing timestamp for {parsed.event.name}")
        else:
            diags.samples_parsed += 1
            last_ts[parsed.event.name] = parsed.timestamp
            if parsed.delta is None:
                diags.not_counted += 1
            yield parsed


def parse_stream(
    reader: Iterable[str] | IO[str],
    event_hint: EventKind | None = None,
    origin: str = "<stream>",
) -> tuple[Trace, ParseDiagnostics]:
    """Parse a line source into a trace, one series per event seen.

    Per-line errors are collected in the diagnostics and parsing continues;
    only an unreadable source raises.
    """
    diags = ParseDiagnostics()
    by_event: dict[str, list[Sample]] = {}
    for item in read_samples(reader, diags, event_hint):
        if isinstance(item, LineError):
            diags.malformed.append((item.line_no, item.reason))
        else:
            by_event.setdefault(item.event.name, []).append(item)

    trace = Trace(origin=[origin])
    for name, samples in by_event.items():
        trace.series[name] = CounterSeries(event=EventKind(name), samples=samples)
    return trace, diags


def parse_file(
    path: str,
    event_hint: EventKind | None = None,
) -> tuple[Trace, ParseDiagnostics]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_stream(fh, event_hint=event_hint, origin=path)


# ---------------------------------------------------------------------------
# Combination and alignment
# ---------------------------------------------------------------------------

def merge_traces(traces: Iterable[Trace]) -> Trace:
    """Union of disjoint traces; duplicate event names are an error."""
    merged = Trace()
    for trace in traces:
        for name, series in trace.series.items():
            if name in merged.series:
                raise ValueError(f"duplicate event across traces: {name}")
            merged.series[name] = series
        merged.origin.extend(trace.origin)
    return merged


def tick_of(timestamp: float, tick_interval: float) -> int:
    """Grid index of a timestamp: half-up rounding to the nearest tick."""
    return int(math.floor(timestamp / tick_interval + 0.5))


def align(trace: Trace, tick_interval: float) -> AlignedTrace:
    """Snap every series onto the tick grid ``round(t / tick_interval)``.

    Deltas of samples landing on the same tick sum; ticks with no sample for
    an event stay missing (NaN).  Missing-delta samples claim no tick.  The
    grid runs from tick 0 to the maximum mapped tick over all series.
    """
    if tick_interval <= 0:
        raise ValueError(f"tick_interval must be > 0, got {tick_interval}")
    for name, series in trace.series.items():
        if not series.samples:
            raise ValueError(f"empty series for event {name}")

    mapped: dict[str, list[tuple[int, int]]] = {}
    max_tick = 0
    for name, series in trace.series.items():
        pairs = [
            (tick_of(s.timestamp, tick_interval), s.delta)
            for s in series.samples
            if s.delta is not None
        ]
        mapped[name] = pairs
        if pairs:
            max_tick = max(max_tick, max(t for t, _ in pairs))

    n_ticks = max_tick + 1
    values: dict[str, np.ndarray] = {}
    for name, pairs in mapped.items():
        col = np.full(n_ticks, np.nan)
        for tick, delta in pairs:
            col[tick] = delta if np.isnan(col[tick]) else col[tick] + delta
        values[name] = col

    return AlignedTrace(tick_interval=tick_interval, n_ticks=n_ticks, values=values)


# ---------------------------------------------------------------------------
# Serialization (same format as the input)
# ---------------------------------------------------------------------------

def serialize_sample(sample: Sample) -> str:
    delta = MISSING_DELTA_TOKEN if sample.delta is None else str(sample.delta)
    return f"{sample.timestamp!r},{delta},{sample.event.name}"


def iter_serialized(trace: Trace, events: Iterable[str] | None = None) -> Iterator[str]:
    """Lines for the given events (default all), interleaved in time order."""
    names = list(events) if events is not None else sorted(trace.series)
    heap = sorted(
        (s for name in names for s in trace.series[name].samples),
        key=lambda s: (s.timestamp, s.event.name),
    )
    for sample in heap:
        yield serialize_sample(sample)


def write_trace(trace: Trace, path: str, events: Iterable[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in iter_serialized(trace, events):
            fh.write(line + "\n")
