"""
Parsing interval traces and snapping them to the tick grid
==========================================================

An interval trace is what a sampling profiler prints: one line per counter
readout, `timestamp,delta,event`.  This walks a small capture through the
parser, shows what the diagnostics record, and puts the samples on the
common tick grid the detector consumes.
"""

import io

from hpcwatch.trace import align, iter_serialized, parse_stream

# A capture the way a profiler writes it: a banner comment, readouts at a
# roughly 100 ms cadence, one counter dropped by the kernel mid-run, and a
# line of line noise.
CAPTURE = """\
# interval capture, 100 ms cadence
0.101,1621,LLC-loads
0.103,204,LLC-load-misses
0.201,5149,LLC-loads
0.204,<not counted>,LLC-load-misses
0.302,5352,LLC-loads
oops this line is garbage
0.305,198,LLC-load-misses
0.401,5807,LLC-loads
"""

trace, diags = parse_stream(io.StringIO(CAPTURE))

print(f"lines read        {diags.lines_read}")
print(f"samples parsed    {diags.samples_parsed}")
print(f"comments          {diags.comments_skipped}")
print(f"not counted       {diags.not_counted}")
print(f"malformed         {diags.malformed}")

# Nothing is lost: every line is a sample, a comment, a blank, or an entry
# in the malformed list with its line number.
accounted = (
    diags.samples_parsed
    + diags.comments_skipped
    + diags.blank_lines
    + len(diags.malformed)
)
assert accounted == diags.lines_read

# Each counter keeps its own columns: its timestamps, and its deltas as
# floats, NaN where the kernel did not count.
for name, stamps in trace.timestamps.items():
    print(f"{name}: {list(zip(stamps.tolist(), trace.deltas[name].tolist()))}")

# align() snaps every sample to round(t / interval) and keeps, per counter,
# the ticks it has a value at with those values.  The `<not counted>`
# readout claims no tick.
aligned = align(trace, 0.1)
print(f"\ngrid: {aligned.n_ticks} ticks of {aligned.tick_interval}s")
for name, ticks in aligned.ticks.items():
    print(f"{name}: {list(zip(ticks.tolist(), aligned.values[name].tolist()))}")

# The round trip back to text is exact, which is what makes report runs
# reproducible byte for byte.
print("\nserialized again:")
for line in iter_serialized(trace):
    print(line)
