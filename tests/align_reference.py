"""``align`` as it was when it built one NaN-filled column per counter.

Frozen here so tests can hold ``hpcwatch.trace.align`` to it bit for bit:
the same tick count, and for each counter the same ticks and values as
this column's non-NaN slots.  It maps and sums one sample at a time, the
plain way, in sample order.  Only the lines that read the trace follow its
columnar form; a NaN delta is a missing one.
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
    for name, stamps in trace.timestamps.items():
        if not len(stamps):
            raise ValueError(f"empty series for event {name}")

    mapped: dict[str, list[tuple[int, float]]] = {}
    max_tick = 0
    for name, stamps in trace.timestamps.items():
        pairs = [
            (int(math.floor(timestamp / tick_interval + 0.5)), delta)
            for timestamp, delta in zip(stamps.tolist(), trace.deltas[name].tolist())
            if not math.isnan(delta)
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
