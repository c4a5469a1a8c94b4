r"""Interval-counter trace ingestion.

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

holds for ``parse_stream`` on arbitrary input.  ``parse_blocks`` is the one
reader of a text stream, behind both ``analyze`` and ``detect``: it splits
each read into lines as ``open()`` does, at ``\n``, ``\r\n`` or a lone
``\r``, holds a line only up to ``_MAX_LINE`` characters, and yields each
read's lines as ``parse_block`` reads them: columns of event codes,
timestamps and deltas, and the read's errors.  ``parse_block`` reads a
block of plain data lines at once and any other line by line.
``parse_stream`` collects the blocks into a ``Trace`` and keeps the
errors; the live ``detect`` loop hands each block's columns to the
detector, which snaps the timestamps to ticks, and only counts the errors,
so its memory stays flat however many lines are malformed.

``align`` snaps every event onto one tick grid, keeping per counter only
the ticks with a counted sample and their summed deltas: an ``AlignedTrace``
grows with the samples, so a gap in a capture costs nothing.
"""

from __future__ import annotations

import codecs
import enum
import io
import math
import re
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

MISSING_DELTA_TOKEN = "<not counted>"
# perf's delta for an event the host cannot count; read as missing too
UNSUPPORTED_DELTA_TOKEN = "<not supported>"

# Longest line read, in characters: a longer one is dropped piece by piece
# as it comes and counts as one malformed line.
_MAX_LINE = 1 << 16


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


def _hold(last_ts: dict[str, float], events: Iterable[str] | None) -> None:
    """Hold each of ``events`` in ``last_ts``: a held event with no sample
    yet is at -inf, which lets any first one through (timestamps are never
    negative)."""
    for name in events or ():
        last_ts.setdefault(name, -math.inf)


class ParsedBlock(NamedTuple):
    """A block of lines as columns, one entry per usable sample, and the
    errors of its malformed lines; ``parse_blocks`` gives one per read.

    ``events`` are the block's event names in order of first appearance
    and ``codes`` each sample's index into them; ``stamps`` are the
    samples' timestamps and ``deltas`` their float deltas, NaN for one not
    counted.
    """

    events: list[str]
    codes: np.ndarray
    stamps: np.ndarray
    deltas: np.ndarray
    errors: list[LineError]


# A data line ``_take_block`` takes: after any leading spaces, a timestamp
# of digits and ``.``, a delta of 1-15 ASCII digits, and the rest of the
# line from the event's field on.  Any timestamp of these characters that
# ``float()`` reads is finite and not negative, unless it overflows, and a
# delta of at most 15 digits is an exact float.
_DATA_LINE = re.compile(r"^ *([0-9.]+),([0-9]{1,15}),(.*)$", re.MULTILINE)


def _event_of(rest: str) -> str:
    """The event a data line names, from its fields after the delta, as
    ``parse_line`` reads it: the third field or, if that is empty, the
    fourth; empty if neither names one."""
    third, _, after = rest.partition(",")
    return third.strip() or after.partition(",")[0].strip()


def parse_block(
    lines: Sequence[str],
    diags: ParseDiagnostics,
    last_ts: dict[str, float],
    events: Iterable[str] | None = None,
) -> ParsedBlock:
    """The block of lines (without their line feeds) as columns, and the
    block's errors, for the caller to keep or count.  A block of plain data
    lines is read at once, any other line by line (``_parse_lines``).

    Comments, blank lines and usable samples are counted in ``diags``, and
    lines are numbered on from ``diags.lines_read``.  A line whose
    timestamp does not increase on its event's last usable one is malformed
    too, so each event's samples strictly increase in time.  Given
    ``events``, only those events are held to that order: a caller that
    drops every other event, as ``detect`` does, then keeps no state for
    each new name a stream brings.  ``last_ts`` holds each held event's
    last timestamp; a caller that reads one stream in blocks passes the
    same one to every call.
    """
    block = _take_block(lines, diags, last_ts, events)
    return _parse_lines(lines, diags, last_ts, events) if block is None else block


def _parse_lines(
    lines: Sequence[str], diags: ParseDiagnostics, last_ts: dict[str, float],
    events: Iterable[str] | None,
) -> ParsedBlock:
    """``parse_block`` of any block, one ``parse_line`` at a time."""
    _hold(last_ts, events)
    every_event = events is None
    names: dict[str, int] = {}
    codes, stamps, deltas, errors = [], [], [], []
    for raw in lines:
        diags.lines_read += 1
        line_no = diags.lines_read
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
                errors.append(LineError(line_no, f"non-increasing timestamp for {name}"))
                continue
            diags.samples_parsed += 1
            if every_event or last is not None:
                last_ts[name] = parsed.timestamp
            codes.append(names.setdefault(name, len(names)))
            stamps.append(parsed.timestamp)
            deltas.append(math.nan if parsed.delta is None else float(parsed.delta))
            diags.not_counted += parsed.delta is None
        elif kind is LineError:
            errors.append(parsed)
        elif parsed is SkippedLine.COMMENT:
            diags.comments_skipped += 1
        else:
            diags.blank_lines += 1
    return ParsedBlock(list(names), np.array(codes, np.int64), np.array(stamps), np.array(deltas),
                       errors)


def _take_block(
    lines: Sequence[str], diags: ParseDiagnostics, last_ts: dict[str, float],
    events: Iterable[str] | None,
) -> ParsedBlock | None:
    """``parse_block`` of a block of plain data lines, read at once, or
    None if the block does not qualify; a declined block changes nothing.

    A block qualifies only if every line is a data line that
    ``_parse_lines`` reads as a counted sample: a timestamp of digits and
    ``.`` after any leading spaces, a delta of 1-15 ASCII digits, and an
    event name, the third field or, in perf's layout, the fourth, that is
    not empty once stripped (a CRLF ending strips off with it); later
    fields are ignored.  Every held event's timestamps, ``events`` and
    ``last_ts`` as ``parse_block`` reads them, must strictly increase from
    its last one.  Comments, blank lines, ``<not counted>``, other spaces,
    underscores, exponents, stale lines and longer deltas all decline.
    """
    text = "\n".join(lines)
    if text.count("\n") != len(lines) - 1:
        return None
    found = _DATA_LINE.findall(text)
    if not found or len(found) != len(lines):
        return None
    stamp_texts, delta_texts, rests = zip(*found)
    try:
        stamps = np.array(stamp_texts, dtype=np.float64)
    except ValueError:  # such as "1.2.3"
        return None
    if not np.isfinite(stamps).all():
        return None

    # each distinct rest of a line once, in order of first appearance, and
    # its event
    event_of = {rest: _event_of(rest) for rest in dict.fromkeys(rests)}
    if not all(event_of.values()):
        return None
    names = list(dict.fromkeys(event_of.values()))
    index = {name: i for i, name in enumerate(names)}
    code_of = {rest: index[name] for rest, name in event_of.items()}
    codes = np.array([code_of[rest] for rest in rests], dtype=np.int64)

    # each held event's timestamps, in line order, after its last one
    events = None if events is None else set(events)
    newest = {}
    for name in names if events is None else events.intersection(names):
        mine = stamps[codes == index[name]]
        if not (mine[0] > last_ts.get(name, -math.inf) and (mine[1:] > mine[:-1]).all()):
            return None
        newest[name] = float(mine[-1])
    _hold(last_ts, events)
    last_ts.update(newest)
    diags.lines_read += len(lines)
    diags.samples_parsed += len(lines)
    return ParsedBlock(names, codes, stamps, np.array(delta_texts, dtype=np.float64), [])


def _read_blocks(stream: IO[str]) -> Iterator[tuple[list[str], int]]:
    r"""The lines of a text stream, one list per read, and how many lines
    longer than ``_MAX_LINE`` ended in that read, before those listed.

    A stream over a binary buffer is read as its text layer reads it, at
    most ``io.DEFAULT_BUFFER_SIZE`` bytes per ``read1``, and decoded with
    its own encoding and errors; any other is read that many characters at
    a time.  Lines end at ``\n``, ``\r\n`` or a lone ``\r``, as ``open()``
    reads text, and come out without their ending.  A line that spans
    reads is joined once its ending comes, so a long line costs time in
    step with its length, and a last line with no ending still counts.  An
    over-long line is held only up to ``_MAX_LINE``, then dropped as it
    comes and counted once it ends.
    """
    raw = getattr(stream, "buffer", None)
    if hasattr(raw, "read1"):
        read, decoder = raw.read1, codecs.getincrementaldecoder(stream.encoding)(stream.errors)
    else:
        read, decoder = stream.read, None  # text already
    decoder = io.IncrementalNewlineDecoder(decoder, translate=True)
    pieces: list[str] = []  # the line still open, as read, until over-long
    length = 0  # of the line still open
    while True:
        data = read(io.DEFAULT_BUFFER_SIZE)
        text = decoder.decode(data, final=not data)
        if not data and (length or text) and not text.endswith("\n"):
            text += "\n"  # ends the last line
        *lines, last = text.split("\n")
        dropped = 0
        if lines:
            dropped = int(length + len(lines[0]) > _MAX_LINE)
            lines[0] = "".join(pieces) + lines[0]
            del lines[:dropped]
            pieces.clear()
            length = 0
        pieces.append(last)
        length += len(last)
        if length > _MAX_LINE:
            pieces.clear()
        if data or lines or dropped:
            yield lines, dropped
        if not data:
            return


def parse_blocks(
    stream: IO[str],
    diags: ParseDiagnostics,
    last_ts: dict[str, float],
    events: Iterable[str] | None = None,
) -> Iterator[ParsedBlock]:
    """Each read of a text stream as ``parse_block`` reads its lines, with
    these ``diags``, ``last_ts`` and ``events``.  A line longer than
    ``_MAX_LINE`` characters is a ``LineError``, first among its read's."""
    for lines, dropped in _read_blocks(stream):
        diags.lines_read += dropped
        line_no = diags.lines_read
        block = parse_block(lines, diags, last_ts, events)
        if dropped:
            block.errors.insert(0, LineError(line_no, f"line longer than {_MAX_LINE} characters"))
        yield block


def parse_stream(stream: IO[str]) -> tuple[Trace, ParseDiagnostics]:
    """Parse a text stream into a trace, one pair of columns per event seen.

    The stream is read through ``parse_blocks``.  Per-line errors are
    collected in the diagnostics and parsing continues; only an unreadable
    or undecodable stream raises.
    """
    diags = ParseDiagnostics()
    columns: defaultdict[str, tuple[array, array]] = defaultdict(lambda: (array("d"), array("d")))
    for block in parse_blocks(stream, diags, {}):
        diags.malformed.extend((error.line_no, error.reason) for error in block.errors)
        for i, name in enumerate(block.events):
            mine = block.codes == i
            stamps, deltas = columns[name]
            stamps.frombytes(block.stamps[mine].tobytes())
            deltas.frombytes(block.deltas[mine].tobytes())
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
    """``ticks_of`` of one timestamp, as an int."""
    return int(ticks_of(np.array([timestamp], dtype=np.float64), tick_interval)[0])


def ticks_of(stamps: np.ndarray, tick_interval: float) -> np.ndarray:
    """Grid index of each timestamp, as int64: half-up rounding to the
    nearest tick.  Ticks are int64, as in ``align``: a timestamp past them
    is a ``ValueError`` that names the first."""
    # a stamp that overflows to +inf fails the test too
    with np.errstate(over="ignore"):
        grid = np.floor(stamps / tick_interval + 0.5)
    below = grid < 2.0**63
    if not below.all():
        raise ValueError(f"timestamp {stamps[np.argmin(below)]} is past the int64 ticks")
    return grid.astype(np.int64)


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
        try:
            mapped = ticks_of(stamps[counted], tick_interval)
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from None
        ticks[name], slot = np.unique(mapped, return_inverse=True)
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
