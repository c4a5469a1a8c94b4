"""Hardware performance counter event names.

A counter event is identified by the name the profiler prints, e.g.
``LLC-load-misses``.  A fixed set of 24 names is shared by most CPUs and
recognized as "known"; six of those proved discriminative for exploit
detection and form the default aggregation set.  Any other name is carried
through verbatim so traces from exotic hardware still parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# The portable event set, in the conventional listing order.
KNOWN_EVENTS: tuple[str, ...] = (
    "cpu-cycles",
    "instructions",
    "cache-references",
    "cache-misses",
    "branches",
    "branch-misses",
    "bus-cycles",
    "ref-cycles",
    "L1-dcache-loads",
    "L1-dcache-stores",
    "L1-icache-loads",
    "L1-icache-load-misses",
    "LLC-loads",
    "LLC-load-misses",
    "LLC-stores",
    "LLC-store-misses",
    "dTLB-loads",
    "dTLB-load-misses",
    "dTLB-stores",
    "dTLB-store-misses",
    "iTLB-loads",
    "iTLB-load-misses",
    "branch-loads",
    "branch-load-misses",
)

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

_KNOWN = frozenset(KNOWN_EVENTS)
_CANDIDATES = frozenset(CANDIDATE_EVENTS)


@dataclass(frozen=True)
class EventKind:
    """A counter event name plus its classification.

    Unknown names are preserved verbatim, never rejected; ``known`` and
    ``candidate`` are derived from the name alone.
    """

    name: str

    @property
    def known(self) -> bool:
        return self.name in _KNOWN

    @property
    def candidate(self) -> bool:
        return self.name in _CANDIDATES

    def __str__(self) -> str:
        return self.name


# The candidate events as kinds: the default counters of detector and synth.
CANDIDATE_KINDS: tuple[EventKind, ...] = tuple(EventKind(name) for name in CANDIDATE_EVENTS)


def check_counters(counters: Sequence[EventKind]) -> None:
    """Raise ``ValueError`` unless ``counters`` is nonempty and names each
    counter once."""
    if not counters:
        raise ValueError("counters must be nonempty")
    twice = [c.name for i, c in enumerate(counters) if c in counters[:i]]
    if twice:
        raise ValueError(f"counter {twice[0]} is named twice")
