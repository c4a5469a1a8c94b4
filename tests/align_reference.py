"""``align`` as it was when it built one NaN-filled column per counter.

Frozen here so tests can hold ``hpcwatch.trace.align`` to it bit for bit:
the same tick count, and for each counter the same ticks and values as
this column's non-NaN slots.  It maps and sums one sample at a time, the
plain way, in sample order.
"""

from __future__ import annotations

import math

import numpy as np

from hpcwatch.trace import Trace


def align(trace: Trace, tick_interval: float) -> tuple[int, dict[str, np.ndarray]]:
    """``(n_ticks, columns)``: one float column of ``n_ticks`` slots per
    counter, NaN where the counter has no counted sample."""
    if tick_interval <= 0:
        raise ValueError(f"tick_interval must be > 0, got {tick_interval}")
    for name, series in trace.series.items():
        if not series.samples:
            raise ValueError(f"empty series for event {name}")

    mapped: dict[str, list[tuple[int, int]]] = {}
    max_tick = 0
    for name, series in trace.series.items():
        pairs = [
            (int(math.floor(s.timestamp / tick_interval + 0.5)), s.delta)
            for s in series.samples
            if s.delta is not None
        ]
        mapped[name] = pairs
        if pairs:
            max_tick = max(max_tick, max(t for t, _ in pairs))

    n_ticks = max_tick + 1
    columns: dict[str, np.ndarray] = {}
    for name, pairs in mapped.items():
        col = np.full(n_ticks, np.nan)
        for tick, delta in pairs:
            col[tick] = delta if np.isnan(col[tick]) else col[tick] + delta
        columns[name] = col
    return n_ticks, columns
