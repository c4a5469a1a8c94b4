"""Hardware performance counter event names.

A counter is identified by the plain name the profiler prints, e.g.
``LLC-load-misses``; any name is carried through verbatim, so traces from
exotic hardware still parse.  Six events proved discriminative for exploit
detection and form the default aggregation set.
"""

from __future__ import annotations

from typing import Sequence

# Events that discriminate exploit activity from normal load; this order is
# the default aggregation order used by the detector.
CANDIDATE_EVENTS: tuple[str, ...] = (
    "iTLB-load-misses",
    "dTLB-loads",
    "bus-cycles",
    "LLC-store-misses",
    "LLC-loads",
    "LLC-load-misses",
)

# A counter is its name.  Kept so that ``EventKind(name)`` in the benchmark
# scripts still reads; nothing in the package uses it.
EventKind = str


def check_counters(counters: Sequence[str]) -> None:
    """Raise ``ValueError`` unless ``counters`` is a nonempty sequence of
    names, not one bare name, that names each counter once."""
    if isinstance(counters, str):
        raise ValueError(f"counters must be a sequence of names, got the name {counters!r}")
    if not counters:
        raise ValueError("counters must be nonempty")
    twice = [c for i, c in enumerate(counters) if c in counters[:i]]
    if twice:
        raise ValueError(f"counter {twice[0]} is named twice")
