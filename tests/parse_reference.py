"""The line parser as it was before it split each line only once.

Frozen here so tests can hold ``hpcwatch.trace.parse_line`` and
``read_samples`` to it on hostile input: the same samples, the same skipped
lines, the same error line numbers and reasons, the same diagnostics.  It
strips every field before converting it, the plain way; it shares only the
result types with the package under test.
"""

from __future__ import annotations

import math

from hpcwatch.trace import MISSING_DELTA_TOKEN, LineError, ParseDiagnostics, Sample, SkippedLine


def parse_line(line: str, line_no: int):
    stripped = line.strip()
    if not stripped:
        return SkippedLine.BLANK
    if stripped.startswith("#"):
        return SkippedLine.COMMENT

    fields = [f.strip() for f in line.split(",")]
    if len(fields) < 3:
        return LineError(line_no, f"expected 3 fields, got {len(fields)}")

    try:
        timestamp = float(fields[0])
    except ValueError:
        return LineError(line_no, f"non-numeric timestamp {fields[0]!r}")
    if not math.isfinite(timestamp):
        return LineError(line_no, f"non-finite timestamp {fields[0]!r}")
    if timestamp < 0:
        return LineError(line_no, f"negative timestamp {fields[0]!r}")

    if fields[1] == MISSING_DELTA_TOKEN:
        delta = None
    else:
        try:
            delta = int(fields[1])
        except ValueError:
            return LineError(line_no, f"non-numeric delta {fields[1]!r}")
        if delta < 0:
            return LineError(line_no, f"negative delta {fields[1]!r}")

    event = fields[2]
    if not event:
        return LineError(line_no, "empty event name")
    return Sample(timestamp=timestamp, delta=delta, event=event)


def read_samples(reader, diags: ParseDiagnostics):
    last_ts: dict[str, float] = {}
    for line_no, raw in enumerate(reader, start=1):
        diags.lines_read += 1
        parsed = parse_line(raw.rstrip("\r\n"), line_no)
        if parsed is SkippedLine.COMMENT:
            diags.comments_skipped += 1
        elif parsed is SkippedLine.BLANK:
            diags.blank_lines += 1
        elif isinstance(parsed, LineError):
            yield parsed
        elif parsed.event in last_ts and parsed.timestamp <= last_ts[parsed.event]:
            yield LineError(line_no, f"non-increasing timestamp for {parsed.event}")
        else:
            diags.samples_parsed += 1
            last_ts[parsed.event] = parsed.timestamp
            if parsed.delta is None:
                diags.not_counted += 1
            yield parsed
