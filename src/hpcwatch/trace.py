"""Interval-counter trace ingestion.

The wire format is the interval CSV a profiler emits: one line per readout
with the timestamp in seconds since trace start, the event-count delta over
the interval, and the event name::

    # started on Sun Apr 19 01:23:16 2015

         0.001225993,1621,branch-load-misses
         0.002574349,5149,branch-load-misses

``#`` lines are comments and blank lines are skipped.  Every other line
needs all three fields; extra trailing fields (units, ratios appended by
newer profiler versions) are ignored.  ``perf stat -x, -I`` writes an empty
unit field between the delta and the event, so an empty third field
followed by a fourth names the event in the fourth.  A delta of
``<not counted>`` marks an interval the kernel could not measure, and
``<not supported>`` an event it cannot count at all; either is kept as an
explicit missing value because zero is a legitimate measurement.

Parsing is forgiving per line and strict in accounting: every malformed line
is recorded with its line number and reason, and the diagnostics identity

    lines_read == samples_parsed + comments_skipped + malformed + blank_lines

holds for ``parse_stream`` on arbitrary input.  ``read_samples`` is its line
reader: it yields each usable sample and each malformed line's error as the
line arrives.  ``parse_stream`` collects its output into a trace of arrays
and keeps the errors; the live ``detect`` loop pushes the samples and only
counts the errors, so its memory stays flat however many lines are malformed.

``align`` snaps every event onto one tick grid, keeping per counter only
the ticks with a counted sample and their summed deltas: an ``AlignedTrace``
grows with the samples, so a gap in a capture costs nothing.
"""

from __future__ import annotations

import enum
import math
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

MISSING_DELTA_TOKEN = "<not counted>"
# perf's delta for an event the host cannot count; read as missing too
UNSUPPORTED_DELTA_TOKEN = "<not supported>"


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

class Sample(NamedTuple):
    """One (timestamp, delta, event) readout.

    ``delta`` is ``None`` for an interval the profiler reported as not
    counted or not supported.
    """

    timestamp: float
    delta: int | None
    event: str


@dataclass
class Trace:
    """Per event, its readouts' strictly increasing float timestamps and
    their float deltas, NaN for a delta not counted."""

    timestamps: dict[str, np.ndarray] = field(default_factory=dict)
    deltas: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.timestamps.keys() != self.deltas.keys():
            raise ValueError("timestamps and deltas must name the same events")
        for name, stamps in self.timestamps.items():
            if stamps.ndim != 1 or stamps.shape != self.deltas[name].shape:
                raise ValueError(f"{name}: timestamps and deltas must be 1-D and of one length")
            if not (np.diff(stamps) > 0).all():
                raise ValueError(f"{name}: timestamps must strictly increase")


@dataclass
class AlignedTrace:
    """Per-event deltas at the ticks that have a sample of that event.

    ``ticks[name]`` holds strictly increasing ints in ``[0, n_ticks)`` and
    ``values[name]`` their float deltas, one per tick; a tick with no sample
    of an event has no entry.  Tick ``i`` is the instant ``i * tick_interval``.
    """

    tick_interval: float
    n_ticks: int
    ticks: dict[str, np.ndarray]
    values: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.ticks.keys() != self.values.keys():
            raise ValueError("ticks and values must name the same events")
        for name, at in self.ticks.items():
            if at.ndim != 1 or at.shape != self.values[name].shape:
                raise ValueError(f"{name}: ticks and values must be 1-D and of one length")
            if (np.diff(at, prepend=-1, append=self.n_ticks) <= 0).any():
                raise ValueError(f"{name}: ticks must strictly increase within [0, {self.n_ticks})")


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

# A delta must convert to a finite float.
_MAX_DELTA = int(sys.float_info.max)


def _long_int(text: str) -> int | None:
    """The value of an integer literal longer than ``int()`` reads, else None.

    ``float()`` reads any sign, digits and underscores that ``int()`` does,
    at any length and in linear time.  A finite result is below 10**309,
    so every digit but the last 310 is a zero and ``int()`` reads the
    rest; an infinite one is past every delta's range.
    """
    sign = text[:1] if text[:1] in ("+", "-") else ""
    digits = text[len(sign):].replace("_", "")
    if not digits.isdecimal():
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    if math.isinf(value):
        return -_MAX_DELTA - 1 if value < 0 else _MAX_DELTA + 1
    return int(sign + digits[-310:])


def parse_line(line: str, line_no: int) -> Sample | SkippedLine | LineError:
    """Classify and parse one physical line (without its terminator).

    Returns a :class:`Sample`, a :class:`SkippedLine` marker for comments and
    blank lines, or a :class:`LineError` carrying ``line_no`` and a reason.
    A data line needs all three fields, the event name included; extra
    trailing fields beyond the third are ignored, except that an empty
    third field before a fourth, perf's unit column, leaves the name to the
    fourth.

    Fields are read without their surrounding whitespace, and reasons quote
    them so.  ``float()`` and ``int()`` skip that whitespace themselves,
    except ``\x1c``-``\x1f``, which ``str.strip()`` counts as whitespace
    too: a number field they reject is tried again stripped before it is an
    error.
    """
    fields = line.split(",")
    n_fields = len(fields)
    if n_fields < 3:
        head = fields[0].lstrip()
        if not head and n_fields == 1:
            return SkippedLine.BLANK
        if head.startswith("#"):
            return SkippedLine.COMMENT
        return LineError(line_no, f"expected 3 fields, got {n_fields}")

    try:
        timestamp = float(fields[0])
    except ValueError:
        text = fields[0].strip()
        if text.startswith("#"):
            return SkippedLine.COMMENT
        try:
            timestamp = float(text)
        except ValueError:
            return LineError(line_no, f"non-numeric timestamp {text!r}")
    if not math.isfinite(timestamp):
        return LineError(line_no, f"non-finite timestamp {fields[0].strip()!r}")
    if timestamp < 0:
        return LineError(line_no, f"negative timestamp {fields[0].strip()!r}")

    delta: int | None
    try:
        delta = int(fields[1])
    except ValueError:
        text = fields[1].strip()
        if text == MISSING_DELTA_TOKEN or text == UNSUPPORTED_DELTA_TOKEN:
            delta = None
        else:
            try:
                delta = int(text)
            except ValueError:
                delta = _long_int(text)
                if delta is None:
                    return LineError(line_no, f"non-numeric delta {text!r}")
    if delta is not None and not 0 <= delta <= _MAX_DELTA:
        reason = "negative delta" if delta < 0 else "delta out of range"
        return LineError(line_no, f"{reason} {fields[1].strip()!r}")

    name = fields[2].strip()
    if not name:
        if n_fields > 3:
            name = fields[3].strip()
        if not name:
            return LineError(line_no, "empty event name")
    return Sample(timestamp, delta, name)


def read_samples(
    reader: Iterable[str] | IO[str],
    diags: ParseDiagnostics,
    events: Iterable[str] | None = None,
) -> Iterator[Sample | LineError]:
    """Yield each usable sample, or the error of a malformed line, as read.

    Comments, blank lines and usable samples are counted in ``diags``;
    malformed lines are left to the caller, which may keep or count the
    errors.  A line whose timestamp does not increase on its event's last
    usable one is malformed too, so each event's samples strictly increase
    in time.  Given ``events``, only those events are held to that order:
    a caller that drops every other event, as ``detect`` does, then keeps
    no state for each new name a stream brings.
    """
    # timestamps are never negative, so -inf lets any first one through
    last_ts: dict[str, float] = {} if events is None else dict.fromkeys(events, -math.inf)
    every_event = events is None
    for line_no, raw in enumerate(reader, start=1):
        diags.lines_read += 1
        # through the module global, not a local alias, so a wrapper put on
        # parse_line sees every line
        parsed = parse_line(raw.rstrip("\r\n"), line_no)
        kind = type(parsed)
        if kind is Sample:
            name = parsed.event
            last = last_ts.get(name)
            if last is not None and parsed.timestamp <= last:
                # series timestamps must strictly increase; a stale line is
                # unusable but must not abort the stream
                yield LineError(line_no, f"non-increasing timestamp for {name}")
                continue
            diags.samples_parsed += 1
            if every_event or last is not None:
                last_ts[name] = parsed.timestamp
            if parsed.delta is None:
                diags.not_counted += 1
            yield parsed
        elif kind is LineError:
            yield parsed
        elif parsed is SkippedLine.COMMENT:
            diags.comments_skipped += 1
        else:
            diags.blank_lines += 1


def parse_stream(reader: Iterable[str] | IO[str]) -> tuple[Trace, ParseDiagnostics]:
    """Parse a line source into a trace, one pair of columns per event seen.

    Per-line errors are collected in the diagnostics and parsing continues;
    only an unreadable source raises.
    """
    diags = ParseDiagnostics()
    columns: defaultdict[str, tuple[array, array]] = defaultdict(lambda: (array("d"), array("d")))
    for item in read_samples(reader, diags):
        if type(item) is LineError:
            diags.malformed.append((item.line_no, item.reason))
        else:
            stamps, deltas = columns[item.event]
            stamps.append(item.timestamp)
            deltas.append(math.nan if item.delta is None else float(item.delta))
    return Trace(
        {name: np.frombuffer(stamps) for name, (stamps, _) in columns.items()},
        {name: np.frombuffer(deltas) for name, (_, deltas) in columns.items()},
    ), diags


def parse_file(path: str) -> tuple[Trace, ParseDiagnostics]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_stream(fh)


# ---------------------------------------------------------------------------
# Combination and alignment
# ---------------------------------------------------------------------------

def merge_traces(traces: Iterable[Trace]) -> Trace:
    """Union of disjoint traces; duplicate event names are an error."""
    merged = Trace()
    for trace in traces:
        for name in trace.timestamps:
            if name in merged.timestamps:
                raise ValueError(f"duplicate event across traces: {name}")
            merged.timestamps[name] = trace.timestamps[name]
            merged.deltas[name] = trace.deltas[name]
    return merged


def tick_of(timestamp: float, tick_interval: float) -> int:
    """Grid index of a timestamp: half-up rounding to the nearest tick.
    Ticks are int64, as in ``align``: a later one is a ``ValueError``."""
    grid = timestamp / tick_interval + 0.5
    if not grid < 2.0**63:
        raise ValueError(f"timestamp {timestamp} is past the int64 ticks")
    return int(math.floor(grid))


def align(trace: Trace, tick_interval: float) -> AlignedTrace:
    """Snap every event onto the tick grid ``round(t / tick_interval)``.

    Deltas of samples on one tick sum left to right; a tick with no sample
    of an event has no entry.  Missing-delta samples claim no tick.  The grid
    runs from tick 0 to the maximum mapped tick over all events.
    """
    if tick_interval <= 0:
        raise ValueError(f"tick_interval must be > 0, got {tick_interval}")
    ticks: dict[str, np.ndarray] = {}
    values: dict[str, np.ndarray] = {}
    for name, stamps in trace.timestamps.items():
        if not stamps.shape[0]:
            raise ValueError(f"empty series for event {name}")
        deltas = trace.deltas[name]
        counted = ~np.isnan(deltas)
        # the operations of tick_of, on every counted sample at once; a
        # stamp that overflows to +inf is caught below
        with np.errstate(over="ignore"):
            mapped = np.floor(stamps[counted] / tick_interval + 0.5)
        if mapped.shape[0] and mapped[-1] >= 2.0**63:  # stamps increase
            raise ValueError(f"{name}: timestamp {stamps[counted][-1]} is past the int64 ticks")
        ticks[name], slot = np.unique(mapped.astype(np.int64), return_inverse=True)
        # np.add.at adds in index order, so a shared tick sums left to right
        values[name] = np.zeros(ticks[name].shape[0])
        np.add.at(values[name], slot, deltas[counted])
    n_ticks = 1 + max((int(at[-1]) for at in ticks.values() if at.shape[0]), default=0)
    return AlignedTrace(tick_interval, n_ticks, ticks, values)


# ---------------------------------------------------------------------------
# Serialization (same format as the input)
# ---------------------------------------------------------------------------

def iter_serialized(trace: Trace, events: Iterable[str] | None = None) -> Iterator[str]:
    """Lines for the given events (default all), interleaved in time order
    and, at one timestamp, in event-name order.

    A delta is written as ``int(delta)``: below 2**53 that is the integer
    parsed, and past it the integer its float holds (2**53 + 1 parses to
    the float 2**53 and is written so).
    """
    readouts = sorted(
        (stamp, name, delta)
        for name in sorted(trace.timestamps if events is None else events)
        for stamp, delta in zip(trace.timestamps[name].tolist(), trace.deltas[name].tolist())
    )
    for stamp, name, delta in readouts:
        yield f"{stamp!r},{MISSING_DELTA_TOKEN if math.isnan(delta) else int(delta)},{name}"


def write_trace(trace: Trace, path: str, events: Iterable[str] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in iter_serialized(trace, events):
            fh.write(line + "\n")
