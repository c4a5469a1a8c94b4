"""Trace parsing, alignment, and serialization."""

from __future__ import annotations

import io
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import align_reference
import hpcwatch.trace as trace_module
import parse_reference
from hpcwatch.events import CANDIDATE_EVENTS
from hpcwatch.trace import (
    _MAX_LINE,
    MISSING_DELTA_TOKEN,
    UNSUPPORTED_DELTA_TOKEN,
    AlignedTrace,
    LineError,
    ParseDiagnostics,
    Sample,
    SkippedLine,
    Trace,
    _read_blocks,
    align,
    iter_serialized,
    merge_traces,
    parse_block,
    parse_line,
    parse_stream,
    tick_of,
)

# The interval-CSV shape a stock profiler prints: one comment header, then
# timestamped deltas with leading whitespace.
LISTING = """\
# started on Sun Apr 19 01:23:16 2015
     0.001225993,1621,branch-load-misses
     0.002574349,5149,branch-load-misses
     0.003808515,5352,branch-load-misses
     0.005025360,5807,branch-load-misses
"""


def test_event_tables():
    assert len(CANDIDATE_EVENTS) == 6


def test_parse_line_sample():
    s = parse_line("     0.001225993,1621,branch-load-misses", 1)
    assert isinstance(s, Sample)
    assert s.timestamp == 0.001225993
    assert s.delta == 1621
    assert s.event == "branch-load-misses"


def test_parse_line_classification():
    assert parse_line("# comment", 1) is SkippedLine.COMMENT
    assert parse_line("   # indented comment", 1) is SkippedLine.COMMENT
    assert parse_line("", 1) is SkippedLine.BLANK
    assert parse_line("   \t  ", 1) is SkippedLine.BLANK


def test_parse_line_not_counted():
    s = parse_line("1.5,<not counted>,LLC-loads", 3)
    assert isinstance(s, Sample)
    assert s.delta is None


def test_parse_line_extra_trailing_fields_ignored():
    s = parse_line("0.1,42,cpu-cycles,100.00,extra", 1)
    assert isinstance(s, Sample)
    assert s.delta == 42
    assert s.event == "cpu-cycles"


def test_parse_line_errors():
    for bad in (
        "abc,42,cpu-cycles",
        "0.1,forty,cpu-cycles",
        "0.1,42",
        "justonefield",
        "-1.0,42,cpu-cycles",
        "0.1,-42,cpu-cycles",
        "inf,42,cpu-cycles",
    ):
        got = parse_line(bad, 7)
        assert isinstance(got, LineError), bad
        assert got.line_no == 7
    assert parse_line("0.1,42", 7).reason == "expected 3 fields, got 2"


def test_parse_line_rejects_a_delta_past_the_float_range():
    # such a delta would end either driver in float(delta)'s OverflowError;
    # the frozen reference parser still accepts it
    big = "9" * 400
    assert parse_line(f"0.1,{big},LLC-loads", 3) == LineError(3, f"delta out of range {big!r}")
    top = int(sys.float_info.max)
    assert parse_line(f"0.1,{top},LLC-loads", 4).delta == top
    assert parse_line(f"0.1, {top + 1} ,LLC-loads", 5).reason.startswith("delta out of range")


def test_parse_line_reads_a_delta_longer_than_int_reads():
    # int() refuses more than sys.get_int_max_str_digits() digits; such a
    # delta is out of range, unless all but a few of its digits are
    # leading zeros.  The frozen reference parser calls both non-numeric.
    nines = "9" * 5_000
    assert parse_line(f"0.1,{nines},LLC-loads", 3) == LineError(3, f"delta out of range {nines!r}")
    assert parse_line(f"0.1, -{nines},LLC-loads", 4) == LineError(4, f"negative delta '-{nines}'")
    padded = "0" * 5_000 + "1"
    assert parse_line(f"0.1,{padded},LLC-loads", 5) == parse_line("0.1,0001,LLC-loads", 5)
    assert parse_line(f"0.1,{padded},LLC-loads", 5).delta == 1
    assert parse_line(f"0.1,+{'0_' * 5_000}{'9' * 308},LLC-loads", 6).delta == int("9" * 308)
    top = int(sys.float_info.max)
    assert parse_line(f"0.1,{'0' * 5_000}{top},LLC-loads", 6).delta == top
    assert parse_line(f"0.1,{'0' * 5_000}{top + 1},LLC-loads", 6).reason.startswith(
        "delta out of range"
    )
    assert parse_line(f"0.1,{'0' * 5_000}{'9' * 309},LLC-loads", 7).reason.startswith(
        "delta out of range"
    )
    for bad in (f"{nines}_", f"{nines}x", f"{nines}.0", f"{nines}__9", f"+-{nines}"):
        assert parse_line(f"0.1,{bad},LLC-loads", 8) == LineError(8, f"non-numeric delta {bad!r}")


def test_parse_stream_reads_both_profiler_layouts():
    # perf stat -x, -I writes an empty unit field before the event and
    # run-time, percentage and metric fields after it; the bare layout
    # names the event third.  A short line is malformed.
    text = (
        "# interval mode\n"
        "0.100,1621,branch-load-misses\n"
        "0.200,5149,,instructions,100.00,,\n"
        "short\n"
        "0.300,<not supported>,,instructions,0,100.00,,\n"
        "0.400,<not counted>,,branch-load-misses,0,100.00,,\n"
    )
    trace, diags = parse_stream(io.StringIO(text))
    assert diags.samples_parsed == 4
    assert diags.not_counted == 2
    assert diags.comments_skipped == 1
    assert diags.malformed == [(4, "expected 3 fields, got 1")]
    assert trace.timestamps["instructions"].tolist() == [0.2, 0.3]
    assert trace.deltas["branch-load-misses"].tolist()[0] == 1621
    assert trace.deltas["instructions"].tolist()[0] == 5149
    assert all(math.isnan(column[-1]) for column in trace.deltas.values())
    assert parse_line("0.5,7,,,LLC-loads", 9) == LineError(9, "empty event name")
    assert parse_line("0.5,7,, ", 9) == LineError(9, "empty event name")


def test_parse_stream_listing():
    trace, diags = parse_stream(io.StringIO(LISTING))
    assert diags.lines_read == 5
    assert diags.samples_parsed == 4
    assert diags.comments_skipped == 1
    assert diags.malformed == []
    assert trace.timestamps["branch-load-misses"].tolist() == [
        0.001225993, 0.002574349, 0.003808515, 0.005025360
    ]
    assert trace.deltas["branch-load-misses"].tolist() == [1621, 5149, 5352, 5807]


def assert_same_columns(got: Trace, want: Trace) -> None:
    assert got.timestamps.keys() == got.deltas.keys() == want.timestamps.keys()
    for name in want.timestamps:
        assert got.timestamps[name].tobytes() == want.timestamps[name].tobytes(), name
        assert got.deltas[name].tobytes() == want.deltas[name].tobytes(), name


def test_listing_serialize_reparse_identical():
    trace, _ = parse_stream(io.StringIO(LISTING))
    text = "\n".join(iter_serialized(trace)) + "\n"
    again, diags = parse_stream(io.StringIO(text))
    assert diags.malformed == []
    assert_same_columns(again, trace)


def test_parse_stream_collects_errors_and_continues():
    text = "0.1,5,LLC-loads\nbogus line\n0.2,6,LLC-loads\n"
    trace, diags = parse_stream(io.StringIO(text))
    assert diags.samples_parsed == 2
    assert len(diags.malformed) == 1
    assert diags.malformed[0][0] == 2
    assert trace.deltas["LLC-loads"].tolist() == [5, 6]


def test_parse_stream_rejects_stale_timestamps_per_event():
    # a repeated or rewound timestamp breaks the per-series ordering
    # invariant; the line is reported, the rest of the stream survives
    text = (
        "0.1,5,LLC-loads\n"
        "0.1,6,LLC-loads\n"
        "0.05,7,LLC-loads\n"
        "0.1,8,bus-cycles\n"
        "0.2,9,LLC-loads\n"
    )
    trace, diags = parse_stream(io.StringIO(text))
    assert diags.samples_parsed == 3
    assert [line_no for line_no, _ in diags.malformed] == [2, 3]
    assert all("non-increasing" in reason for _, reason in diags.malformed)
    assert trace.deltas["LLC-loads"].tolist() == [5, 9]
    assert trace.deltas["bus-cycles"].tolist() == [8]


@given(
    st.lists(
        st.one_of(
            st.tuples(
                st.floats(min_value=0, max_value=1e4, allow_nan=False),
                st.integers(min_value=0, max_value=10**12),
            ),
            st.just("comment"),
            st.just("blank"),
            st.just("garbage"),
        ),
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_diagnostics_accounting_identity(rows):
    lines = []
    for row in rows:
        if row == "comment":
            lines.append("# a comment")
        elif row == "blank":
            lines.append("   ")
        elif row == "garbage":
            lines.append("not,enough")
        else:
            t, d = row
            lines.append(f"{t!r},{d},cpu-cycles")
    _, diags = parse_stream(io.StringIO("\n".join(lines) + ("\n" if lines else "")))
    assert diags.lines_read == (
        diags.samples_parsed
        + diags.comments_skipped
        + len(diags.malformed)
        + diags.blank_lines
    )


# Whitespace that float() and int() skip, and \x1c-\x1f, which they reject
# but str.strip() removes
HOSTILE_SPACE = [" ", "\t", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
                 "\u2003", "\u3000"]
HOSTILE_TOKENS = [*"0123456789", ".", "e", "_", "+", "-", "inf", "nan", ",", "#",
                  MISSING_DELTA_TOKEN, UNSUPPORTED_DELTA_TOKEN, "\r", "LLC-loads",
                  *HOSTILE_SPACE]
_space = st.lists(st.sampled_from(HOSTILE_SPACE), max_size=3).map("".join)
_core = st.one_of(
    st.sampled_from(["0.1", "1e3", "+7", "-2", "12_5", "inf", "nan", "42",
                     MISSING_DELTA_TOKEN, UNSUPPORTED_DELTA_TOKEN, "LLC-loads", "#", ""]),
    st.lists(st.sampled_from(HOSTILE_TOKENS), max_size=6).map("".join),
)
_field = st.tuples(_space, _core, _space).map("".join)
hostile_lines = st.one_of(
    st.lists(_field, min_size=1, max_size=5).map(",".join),
    st.lists(st.sampled_from(HOSTILE_TOKENS), max_size=12).map("".join),
)


def as_the_reference_reads(line: str) -> str:
    """``line`` rewritten for the frozen reference parser, which predates
    perf's layout: an empty third field before a fourth is dropped, so the
    fourth names the event, and ``<not supported>`` becomes the
    ``<not counted>`` it is read as."""
    fields = line.split(",")
    if len(fields) > 3 and not fields[2].strip():
        del fields[2]
    if len(fields) > 1 and fields[1].strip() == UNSUPPORTED_DELTA_TOKEN:
        fields[1] = MISSING_DELTA_TOKEN
    return ",".join(fields)


@given(st.lists(hostile_lines, max_size=12))
@settings(max_examples=400, deadline=None)
def test_parser_equals_the_reference_on_hostile_lines(lines):
    for line_no, line in enumerate(lines, start=1):
        got = parse_line(line, line_no)
        want = parse_reference.parse_line(as_the_reference_reads(line), line_no)
        assert type(got) is type(want), line
        assert got == want, line
        if type(want) is Sample:
            assert repr(got) == repr(want), line
    got_diags, want_diags = ParseDiagnostics(), ParseDiagnostics()
    got = trace_module._parse_lines(lines, got_diags, {}, None)
    want_items = parse_reference.read_samples(map(as_the_reference_reads, lines), want_diags)
    assert block_fields(got) == as_block_fields(want_items)
    assert got_diags == want_diags


def block_fields(block) -> tuple:
    """A ``ParsedBlock``'s fields, the arrays as lists and bytes."""
    return (block.events, block.codes.tolist(), block.stamps.tobytes(), block.deltas.tobytes(),
            block.errors)


def as_block_fields(items) -> tuple:
    """The samples and errors a line reader yields as ``block_fields`` of
    the ``ParsedBlock`` that holds them: events in order of first
    appearance, each sample's code, timestamp and float delta, NaN where
    not counted, and the errors in line order."""
    items = list(items)
    samples = [item for item in items if type(item) is Sample]
    names = list(dict.fromkeys(sample.event for sample in samples))
    return (
        names,
        [names.index(sample.event) for sample in samples],
        np.array([sample.timestamp for sample in samples], dtype=np.float64).tobytes(),
        np.array([math.nan if sample.delta is None else float(sample.delta) for sample in samples],
                 dtype=np.float64).tobytes(),
        [item for item in items if type(item) is LineError],
    )


@pytest.mark.parametrize(
    "timestamps, deltas, reason",
    [
        ({"a": np.array([0.1])}, {"b": np.ones(1)}, "same events"),
        ({"a": np.array([0.1, 0.2])}, {"a": np.ones(3)}, "one length"),
        ({"a": np.array([[0.1, 0.2]])}, {"a": np.ones((1, 2))}, "1-D"),
        ({"a": np.array([0.1, 0.2, 0.2])}, {"a": np.ones(3)}, "strictly increase"),
        ({"a": np.array([1.0, 0.5])}, {"a": np.ones(2)}, "strictly increase"),
        ({"a": np.array([0.1, math.nan])}, {"a": np.ones(2)}, "strictly increase"),
    ],
)
def test_trace_rejects_misaligned_columns(timestamps, deltas, reason):
    with pytest.raises(ValueError, match=reason):
        Trace(timestamps, deltas)


def test_merge_traces():
    a, _ = parse_stream(io.StringIO("0.1,5,LLC-loads\n"))
    b, _ = parse_stream(io.StringIO("0.1,9,bus-cycles\n"))
    merged = merge_traces([a, b])
    assert set(merged.timestamps) == set(merged.deltas) == {"LLC-loads", "bus-cycles"}
    assert merged.deltas["bus-cycles"].tolist() == [9]
    with pytest.raises(ValueError):
        merge_traces([a, a])


def test_tick_of_half_up():
    assert tick_of(0.0, 0.1) == 0
    assert tick_of(0.049, 0.1) == 0
    assert tick_of(0.051, 0.1) == 1
    assert tick_of(50.0, 0.1) == 500
    assert tick_of(60.0, 0.1) == 600


def test_tick_of_rejects_a_tick_past_int64():
    # align's rule: 1e308 / 0.1 overflows to +inf, and 1e18 / 0.1 is past 2**63
    for timestamp in (1e18, 1e308):
        with pytest.raises(ValueError, match="past the int64 ticks"):
            tick_of(timestamp, 0.1)
    assert tick_of((2.0**63 - 1024) * 0.5, 0.5) == 2**63 - 1024


def test_align_basics():
    text = "0.1,5,LLC-loads\n0.2,7,LLC-loads\n0.4,9,LLC-loads\n"
    trace, _ = parse_stream(io.StringIO(text))
    aligned = align(trace, 0.1)
    assert aligned.n_ticks == 5
    assert aligned.ticks["LLC-loads"].tolist() == [1, 2, 4]
    assert aligned.values["LLC-loads"].tolist() == [5.0, 7.0, 9.0]


def test_align_sums_same_tick():
    text = "0.299,5,LLC-loads\n0.301,7,LLC-loads\n"
    trace, _ = parse_stream(io.StringIO(text))
    aligned = align(trace, 0.1)
    assert aligned.ticks["LLC-loads"].tolist() == [3]
    assert aligned.values["LLC-loads"].tolist() == [12.0]


def test_align_skips_missing_deltas():
    text = "0.1,<not counted>,LLC-loads\n0.2,7,LLC-loads\n0.3,<not counted>,bus-cycles\n"
    trace, _ = parse_stream(io.StringIO(text))
    aligned = align(trace, 0.1)
    assert aligned.n_ticks == 3
    assert aligned.ticks["LLC-loads"].tolist() == [2]
    assert aligned.values["LLC-loads"].tolist() == [7.0]
    assert aligned.ticks["bus-cycles"].shape == aligned.values["bus-cycles"].shape == (0,)


def test_align_rejects_bad_interval():
    trace, _ = parse_stream(io.StringIO("0.1,5,LLC-loads\n"))
    with pytest.raises(ValueError):
        align(trace, 0.0)


def test_align_rejects_a_tick_past_int64():
    # 1e18 / 0.1 is past 2**63: an int64 cast of it is undefined, so align
    # names the timestamp instead of handing on a wrapped or saturated tick
    trace, _ = parse_stream(io.StringIO("0.1,5,LLC-loads\n1e18,5,LLC-loads\n"))
    with pytest.raises(ValueError, match=r"LLC-loads: timestamp 1e\+18 is past"):
        align(trace, 0.1)
    # the last representable tick below 2**63 still aligns
    trace, _ = parse_stream(io.StringIO(f"{(2.0**63 - 1024) * 0.5!r},5,LLC-loads\n"))
    assert align(trace, 0.5).n_ticks == 2**63 - 1023


def test_align_names_the_first_of_two_timestamps_past_the_int64_ticks():
    # as tick_of of each in turn would, not the largest
    trace, _ = parse_stream(io.StringIO("0.1,5,LLC-loads\n1e30,5,LLC-loads\n1e40,5,LLC-loads\n"))
    with pytest.raises(ValueError, match=r"^LLC-loads: timestamp 1e\+30 is past the int64 ticks$"):
        align(trace, 0.1)


@pytest.mark.parametrize(
    "ticks, values, reason",
    [
        ({"a": np.arange(3)}, {"b": np.ones(3)}, "same events"),
        ({"a": np.arange(3)}, {"a": np.ones(2)}, "one length"),
        ({"a": np.arange(4).reshape(2, 2)}, {"a": np.ones((2, 2))}, "one length"),
        ({"a": np.array([0, 2, 2])}, {"a": np.ones(3)}, "strictly increase"),
        ({"a": np.array([3, 1, 2])}, {"a": np.ones(3)}, "strictly increase"),
        ({"a": np.array([-1, 0, 1])}, {"a": np.ones(3)}, r"within \[0, 5\)"),
        ({"a": np.array([0, 1, 5])}, {"a": np.ones(3)}, r"within \[0, 5\)"),
    ],
)
def test_aligned_trace_rejects_misaligned_arrays(ticks, values, reason):
    with pytest.raises(ValueError, match=reason):
        AlignedTrace(tick_interval=0.1, n_ticks=5, ticks=ticks, values=values)


# Twelve readouts in one tick whose left-to-right sum (2**53, as each +1
# rounds away) differs from numpy's pairwise one.
PAIRWISE_TRAP = [(0.1 + i / 1000, 2**53 if i == 0 else 1) for i in range(12)]


def counter_samples(readouts) -> Trace:
    """The columns ``parse_stream`` gives the readouts: each delta as
    ``float(delta)``, a missing one as NaN."""
    return Trace(
        {name: np.array([t for t, _ in rows]) for name, rows in readouts.items()},
        {
            name: np.array([math.nan if d is None else float(d) for _, d in rows])
            for name, rows in readouts.items()
        },
    )


@st.composite
def tick_readouts(draw) -> list[tuple[float, int | None]]:
    """One counter's readouts at 100 ms ticks: up to 12 in one tick, at
    whole milliseconds from half a tick before it (a half-tick boundary
    such as 0.05 or 0.15) to just under half a tick after."""
    delta = st.one_of(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([2**53 + 1, 10**20]),
        st.integers(min_value=2**52, max_value=2**70),
    )
    if draw(st.booleans()):
        delta = st.one_of(delta, st.none())
    if draw(st.integers(0, 7)) == 0:
        delta = st.none()
    ticks = draw(st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True))
    readouts = []
    for tick in sorted(ticks):
        offsets = draw(st.lists(st.integers(-50, 49), min_size=1, max_size=12, unique=True))
        for ms in sorted(offsets):
            readouts.append(((100 * tick + ms) / 1000, draw(delta)))
    return readouts


@given(
    st.dictionaries(
        st.sampled_from(["LLC-loads", "bus-cycles", "dTLB-loads"]), tick_readouts(), min_size=1
    )
)
@example({"LLC-loads": PAIRWISE_TRAP})
@example(
    {
        "LLC-loads": [(0.05, 1), (0.15, 2), (0.25, 3), (0.35, 10**20)],
        "bus-cycles": [(0.45, None), (0.55, None)],
    }
)
@settings(max_examples=300, deadline=None)
def test_align_equals_the_reference_bit_for_bit(readouts):
    trace = counter_samples(readouts)
    n_ticks, columns = align_reference.align(trace, 0.1)
    aligned = align(trace, 0.1)
    assert aligned.n_ticks == n_ticks
    assert aligned.ticks.keys() == aligned.values.keys() == columns.keys()
    for name, col in columns.items():
        present = np.flatnonzero(~np.isnan(col))
        assert aligned.ticks[name].dtype == np.int64
        assert aligned.ticks[name].tolist() == present.tolist()
        assert aligned.values[name].dtype == np.float64
        assert aligned.values[name].tobytes() == col[present].tobytes()


def test_a_pairwise_sum_fails_the_reference():
    # the sum np.add.reduceat would give align differs on PAIRWISE_TRAP, so
    # the property above holds align to a left-to-right sum
    trace = counter_samples({"LLC-loads": PAIRWISE_TRAP})
    _, columns = align_reference.align(trace, 0.1)
    deltas = np.array([float(d) for _, d in PAIRWISE_TRAP])
    assert columns["LLC-loads"][1] == align(trace, 0.1).values["LLC-loads"][0] == 2.0**53
    assert np.add.reduceat(deltas, [0])[0] != 2.0**53


def test_serialize_sample_round_trip_missing():
    trace = Trace({"LLC-loads": np.array([1.25])}, {"LLC-loads": np.array([math.nan])})
    (line,) = iter_serialized(trace)
    assert line == "1.25,<not counted>,LLC-loads"
    assert parse_line(line, 1) == Sample(1.25, None, "LLC-loads")


@given(
    st.dictionaries(
        st.sampled_from(["dTLB-loads", "LLC-loads", "bus-cycles"]),
        st.lists(
            st.tuples(
                st.floats(min_value=1e-9, max_value=1e5, allow_nan=False),
                st.one_of(st.none(), st.integers(min_value=0, max_value=2**53 - 1)),
            ),
            min_size=1,
            max_size=40,
            unique_by=lambda t: t[0],
        ),
        min_size=1,
    )
)
@settings(max_examples=80, deadline=None)
def test_serialize_reparse_round_trip(readouts):
    # every delta below 2**53, and every missing one, survives the text
    trace = counter_samples({name: sorted(rows) for name, rows in readouts.items()})
    text = "\n".join(iter_serialized(trace)) + "\n"
    again, diags = parse_stream(io.StringIO(text))
    assert diags.malformed == []
    assert_same_columns(again, trace)


def test_a_delta_past_two_to_the_53_is_written_as_its_float():
    # a float holds every integer only up to 2**53: past it the delta
    # written is int() of the float parsed, so the text reads back to the
    # same float, not to the digits first read
    text = "0.1,9007199254740993,LLC-loads\n0.2,100000000000000000001,LLC-loads\n"
    trace, _ = parse_stream(io.StringIO(text))
    assert trace.deltas["LLC-loads"].tolist() == [2.0**53, 1e20]
    lines = list(iter_serialized(trace))
    assert lines == ["0.1,9007199254740992,LLC-loads", "0.2,100000000000000000000,LLC-loads"]
    again, _ = parse_stream(io.StringIO("\n".join(lines)))
    assert_same_columns(again, trace)


def test_parsed_hour_of_one_event_holds_two_arrays():
    # 36 000 readouts are a 3600 s capture at 100 ms: two float arrays, not
    # one object per readout
    rng = np.random.default_rng(3600)
    deltas = np.rint(rng.lognormal(math.log(1123), 0.03, 36_000)).astype(np.int64)
    source = io.StringIO(
        "".join(f"{(i + 1) * 0.1!r},{d},LLC-loads\n" for i, d in enumerate(deltas.tolist()))
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace, diags = parse_stream(source)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert diags.samples_parsed == 36_000
    assert trace.deltas["LLC-loads"].tolist() == deltas.tolist()
    assert retained < 2**20, retained


def test_read_blocks_holds_an_over_long_line_only_up_to_the_cap():
    # a 16 MiB line in 8 KiB reads, then a data line: held whole until its
    # line feed, it peaked at 32 MiB under tracemalloc
    class Reads:
        def __init__(self, *reads: bytes) -> None:
            self.reads = list(reads)

        def read1(self, size: int) -> bytes:
            return self.reads.pop(0) if self.reads else b""

    class Stdin:
        encoding, errors = "utf-8", "strict"

        def __init__(self, *reads: bytes) -> None:
            self.buffer = Reads(*reads)

    long = Stdin(*[b"x" * 8192] * 2048, b"\n0.1,5,LLC-loads\n")
    tracemalloc.start()
    try:
        reads = [(lines, dropped) for lines, dropped in _read_blocks(long) if lines or dropped]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reads == [(["0.1,5,LLC-loads"], 1)]
    assert peak < 2**20, peak
    # a line of the cap's length is kept whole, a longer one is counted once
    # its line feed or the end of input comes
    line = "x" * _MAX_LINE
    kept = Stdin(*[line[i:i + 1000].encode() for i in range(0, _MAX_LINE, 1000)], b"\n")
    assert [lines for lines, _ in _read_blocks(kept) if lines] == [[line]]
    for end in (b"x\n", b"x"):
        over = Stdin(*[line[i:i + 1000].encode() for i in range(0, _MAX_LINE, 1000)], end)
        reads = list(_read_blocks(over))
        assert sum(dropped for _, dropped in reads) == 1
        assert not any(lines for lines, _ in reads)


# ---------------------------------------------------------------------------
# The block parser against the line reader
# ---------------------------------------------------------------------------

def read_by_line(lines, diags, last_ts, events=None):
    """What ``parse_block`` must give for a block it takes, from its
    line-by-line branch: that branch's block, or None if a line is not a
    counted sample."""
    block = trace_module._parse_lines(lines, diags, last_ts, events)
    if block.errors or block.codes.shape[0] != len(lines) or np.isnan(block.deltas).any():
        return None
    return block


def assert_block_equals_lines(lines, last_ts, events=None):
    """``parse_block``'s fast path declines the block and changes nothing,
    or takes it as its line-by-line branch reads it; returns whether it
    took it."""
    block_diags, line_diags = ParseDiagnostics(lines_read=3), ParseDiagnostics(lines_read=3)
    block_last, line_last = dict(last_ts), dict(last_ts)
    block = trace_module._take_block(lines, block_diags, block_last, events)
    if block is None:
        assert (block_diags, block_last) == (ParseDiagnostics(lines_read=3), last_ts)
        return False
    want = read_by_line(lines, line_diags, line_last, events)
    assert want is not None, lines
    assert block_fields(block) == block_fields(want)
    assert block.errors == []
    assert (block_diags, block_last) == (line_diags, line_last)
    return True


CLEAN_BLOCK = [
    "0.1,1123,LLC-loads",
    "     0.1,23917,bus-cycles",
    "0.2,1100,LLC-loads\r",
    "0.2,0023900,bus-cycles",
    "1.,47, LLC-store-misses ",
    "  1.5,52,,LLC-store-misses,1001043126,100.00,,",
    "2.5,999999999999999,LLC-loads",
]


@pytest.mark.parametrize("line", [
    "3.0,12,LLC-loads", "   3.25,12,LLC-loads", "3.000,12,LLC-loads\r", "3.,12,\x1cLLC-loads\x1c",
    "0.3,12,cpu-cycles", "003.0,0,LLC-loads", "     3.000000000,12,,LLC-loads,1000,100.00,,",
    "3.0,12, ,LLC-loads,1000,62.50,0.5,insn per cycle\r", "3.0,12,LLC-loads,1000,,",
], ids=["plain", "leading-spaces", "crlf", "stripped-name", "new-event", "zeros", "perf-layout",
        "perf-layout-blank-unit-crlf", "extra-fields"])
def test_parse_block_takes_plain_data_lines(line):
    assert assert_block_equals_lines([*CLEAN_BLOCK, line], {})
    assert assert_block_equals_lines([line], {"LLC-loads": 0.25}, ("LLC-loads", "bus-cycles"))


# One case per rule: the clean block with this line appended, after
# dTLB-loads at 0.05.
DECLINED = {
    "comment": "# started on Sun Apr 19 01:23:16 2015",
    "blank": "",
    "spaces-only": "   ",
    "not-counted": f"3.0,{MISSING_DELTA_TOKEN},LLC-loads",
    "not-supported": f"3.0,{UNSUPPORTED_DELTA_TOKEN},LLC-loads",
    "perf-not-counted": f"3.0,{MISSING_DELTA_TOKEN},,LLC-loads,0,100.00,,",
    "perf-empty-name": "3.0,12,,,1000,100.00,,",
    "perf-unit-delta": "3.0,12.50,msec,task-clock,1000,100.00,,",
    "two-fields": "3.0,12",
    "tab-before-timestamp": "\t3.0,12,LLC-loads",
    "space-after-timestamp": "3.0 ,12,LLC-loads",
    "x1c-before-timestamp": "\x1c3.0,12,LLC-loads",
    "space-in-delta": "3.0, 12,LLC-loads",
    "underscore": "3.0,1_000,LLC-loads",
    "exponent": "3e0,12,LLC-loads",
    "sign": "+3.0,12,LLC-loads",
    "negative-delta": "3.0,-12,LLC-loads",
    "unicode-digit": "3.0,\u0661\u0662,LLC-loads",
    "two-points": "3.0.1,12,LLC-loads",
    "bare-point": ".,12,LLC-loads",
    "empty-delta": "3.0,,LLC-loads",
    "non-finite-timestamp": f"{'9' * 400},12,LLC-loads",
    "delta-of-16-digits": "3.0,1234567890123456,LLC-loads",
    "empty-name": "3.0,12, \r",
    "stale": "2.5,12,LLC-loads",
    "rewound": "2.4,12,LLC-loads",
    "stale-after-last-block": "0.05,12,dTLB-loads",
    "line-feed-inside": "3.0,12,LLC-loads\n3.1,13,LLC-loads",
    "line-feed-after-garbage": "garbage\n3.1,13,LLC-loads",
}


@pytest.mark.parametrize("line", DECLINED.values(), ids=DECLINED.keys())
def test_parse_block_declines(line):
    # read as parse_stream reads, and as detect does: with four events held
    last_ts = {"dTLB-loads": 0.05}
    held = ("LLC-loads", "bus-cycles", "LLC-store-misses", "dTLB-loads")
    for events in (None, held):
        assert not assert_block_equals_lines([*CLEAN_BLOCK, line], last_ts, events)
        # the clean block alone is taken
        assert assert_block_equals_lines(CLEAN_BLOCK, last_ts, events)


def test_parse_block_holds_only_the_held_events_to_order():
    # a stale line of an event no one holds reads as a sample
    lines = [*CLEAN_BLOCK, "2.5,12,cpu-cycles", "2.5,13,cpu-cycles"]
    assert assert_block_equals_lines(lines, {}, ("LLC-loads",))
    assert not assert_block_equals_lines(lines, {})


def fuzz_lines(rng, n: int, bad: float) -> list[str]:
    """Data lines of three events in mixed spellings; a ``bad`` share of
    them are decline cases or repeat their event's last timestamp."""
    names = ["LLC-loads", "bus-cycles", "cpu-cycles"]
    last = {name: 0.0 for name in names}
    lines = []
    for _ in range(n):
        name = names[int(rng.integers(3))]
        roll = rng.random()
        if roll < bad / 2:
            lines.append(list(DECLINED.values())[int(rng.integers(len(DECLINED)))])
            continue
        stamp = last[name] if roll < bad else last[name] + float(rng.integers(1, 300)) / 1000
        last[name] = stamp
        text = f"{stamp:.3f}" if rng.random() < 0.8 else f"{' ' * int(rng.integers(4))}{stamp!r}"
        delta = str(int(rng.integers(0, 10**int(rng.integers(1, 16)))))
        # now and then perf's layout: an empty unit field, the event fourth
        event = f",{name},1000,100.00,," if rng.random() < 0.2 else name
        end = "\r" if rng.random() < 0.1 else ""
        lines.append(f"{text},{delta},{event}{end}")
    return lines


def by_line_stream(text: str) -> tuple[Trace, ParseDiagnostics]:
    """``parse_stream`` of ``text`` split at its line feeds, through
    ``parse_block``'s line-by-line branch alone."""
    diags = ParseDiagnostics()
    block = trace_module._parse_lines(list(io.StringIO(text)), diags, {}, None)
    diags.malformed = [(error.line_no, error.reason) for error in block.errors]
    mine = {name: block.codes == i for i, name in enumerate(block.events)}
    return Trace({name: block.stamps[at] for name, at in mine.items()},
                 {name: block.deltas[at] for name, at in mine.items()}), diags


def test_take_block_equals_the_line_reader_on_fuzzed_blocks():
    # a stream cut into blocks of random length, each read at once or,
    # declined, line by line, keeps the per-line reading's state
    rng = np.random.default_rng(2024)
    taken = declined = 0
    for _ in range(150):
        lines = fuzz_lines(rng, 400, 0.06)
        for events in (None, ("LLC-loads", "bus-cycles")):
            last_ts: dict[str, float] = {}
            diags = ParseDiagnostics()
            at = 0
            while at < len(lines):
                block = lines[at:at + int(rng.integers(1, 40))]
                at += len(block)
                if assert_block_equals_lines(block, last_ts, events):
                    taken += 1
                else:
                    declined += 1
                # on with the per-line state
                trace_module._parse_lines(block, diags, last_ts, events)
    assert taken > 2000 and declined > 2000, (taken, declined)


def test_parse_block_reads_every_block_as_the_line_reader():
    # any block, taken at once or not: the same columns, NaN where not
    # counted, errors, diagnostics and last timestamps as the line-by-line
    # branch gives
    rng = np.random.default_rng(25)
    clean = with_errors = 0
    for _ in range(40):
        lines = fuzz_lines(rng, 400, float(rng.choice([0, 0.01, 0.06])))
        for events in (None, ("LLC-loads", "bus-cycles")):
            block_last: dict[str, float] = {}
            line_last: dict[str, float] = {}
            block_diags, line_diags = ParseDiagnostics(), ParseDiagnostics()
            at = 0
            while at < len(lines):
                cut = lines[at:at + int(rng.integers(1, 40))]
                at += len(cut)
                block = parse_block(cut, block_diags, block_last, events)
                want = trace_module._parse_lines(cut, line_diags, line_last, events)
                assert block_fields(block) == block_fields(want)
                assert (block_diags, block_last) == (line_diags, line_last)
                clean += not block.errors and not np.isnan(block.deltas).any()
                with_errors += bool(block.errors)
    assert clean > 100 and with_errors > 100, (clean, with_errors)


class SizedReads(io.StringIO):
    """A text stream of ``text`` that gives at most ``size`` characters a
    read, whatever size is asked for."""

    def __init__(self, text: str, size: int) -> None:
        super().__init__(text)
        self.size = size

    def read(self, size: int | None = -1) -> str:
        return super().read(self.size)


@pytest.mark.parametrize("block", [1, 7, 64, 4096])
def test_parse_stream_equals_the_line_reader_on_fuzzed_streams(block):
    # read ``block`` characters at a time, so lines span reads
    rng = np.random.default_rng(block)
    for _ in range(40):
        lines = fuzz_lines(rng, int(rng.integers(1, 600)), float(rng.choice([0, 0.002, 0.05])))
        text = "\n".join(lines) + "\n"
        trace, diags = parse_stream(SizedReads(text, block))
        want_trace, want_diags = by_line_stream(text)
        assert_same_columns(trace, want_trace)
        assert diags == want_diags
