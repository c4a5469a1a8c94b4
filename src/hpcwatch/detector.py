"""Sliding-window streaming detection over per-counter delta streams.

Each monitored counter keeps a bounded ring of its most recent deltas.  On
every push the ring is rescored and the verdict is read a fixed lag behind
the newest sample, so the evaluated point has temporal neighbors on both
sides.  Per-counter scores landing on the same evaluated tick are averaged
into a single attack factor f, and f above the configured threshold raises
an alert.

The lag is floor(k/2) + 1 ticks: 3 ticks (300 ms at the default 100 ms
cadence) for the default k=5.  Detection latency is therefore bounded below
by the lag; nothing can alert on the newest sample.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .events import CANDIDATE_EVENTS, EventKind
from .lof import LofResult, lof_scores, lof_all, top_n_outliers
from .trace import AlignedTrace, Sample, tick_of


def _default_counters() -> tuple[EventKind, ...]:
    return tuple(EventKind(name) for name in CANDIDATE_EVENTS)


@dataclass(frozen=True)
class DetectorConfig:
    """Detection parameters.

    ``warmup`` is the number of samples a counter must deliver before its
    window is scored at all; the default 2k+2 gives the lagged point a full
    complement of candidates on both sides even in the worst case.
    """

    k: int = 5
    delta_threshold: float = 1.5
    window: int = 50
    tick_interval: float = 0.100
    counters: tuple[EventKind, ...] = field(default_factory=_default_counters)
    top_n: int = 5
    warmup: int | None = None

    def __post_init__(self) -> None:
        if self.warmup is None:
            object.__setattr__(self, "warmup", 2 * self.k + 2)
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.window < self.k + 2:
            raise ValueError(f"window must be >= k+2 ({self.k + 2}), got {self.window}")
        if not self.delta_threshold > 1:
            raise ValueError(f"delta_threshold must be > 1, got {self.delta_threshold}")
        if not self.tick_interval > 0:
            raise ValueError(f"tick_interval must be > 0, got {self.tick_interval}")
        if not self.counters:
            raise ValueError("counters must be nonempty")
        if self.warmup < self.k + 1:
            raise ValueError(f"warmup must be >= k+1 ({self.k + 1}), got {self.warmup}")


def lag(config: DetectorConfig) -> int:
    """Ticks between the newest sample and the one being judged."""
    return config.k // 2 + 1


@dataclass
class WindowState:
    """Ring of the most recent <= window samples of one counter."""

    event: EventKind
    window: int
    ring: deque = field(init=False)
    count: int = 0

    def __post_init__(self) -> None:
        self.ring = deque(maxlen=self.window)

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.ring], dtype=np.float64)


@dataclass(frozen=True)
class AttackFactorPoint:
    tick: int
    eval_tick: int
    f: float
    per_counter_lof: dict[str, float]
    contributing: int


@dataclass(frozen=True)
class Alert:
    eval_time: float
    eval_tick: int
    f: float
    threshold: float
    per_counter_lof: dict[str, float]


# ---------------------------------------------------------------------------
# Streaming primitives
# ---------------------------------------------------------------------------

def push_value(
    state: WindowState, tick: int, value: float, config: DetectorConfig
) -> tuple[int, float] | None:
    """Append one delta and, past warm-up, score the lagged ring position.

    Returns (evaluated tick, its lof score) once ``state.count`` reaches
    ``config.warmup``, nothing before that.
    """
    state.ring.append((tick, value))
    state.count += 1
    if state.count < config.warmup:
        return None
    pos = len(state.ring) - 1 - lag(config)
    scores = lof_scores(state.values(), config.k)
    eval_tick = state.ring[pos][0]
    return eval_tick, float(scores[pos])


def push_sample(
    state: WindowState, sample: Sample, config: DetectorConfig
) -> tuple[int, float] | None:
    """Sample-facing wrapper over push_value.

    The sample's tick is its timestamp snapped to the config grid.  A
    missing delta is a no-op: it neither advances the ring nor scores.
    """
    if sample.event != state.event:
        raise ValueError(f"sample event {sample.event} pushed to {state.event} window")
    if sample.delta is None:
        return None
    tick = tick_of(sample.timestamp, config.tick_interval)
    return push_value(state, tick, float(sample.delta), config)


def evaluate_tick(
    scores: Mapping[str, Mapping[int, float]], tick: int, config: DetectorConfig
) -> AttackFactorPoint | None:
    """Aggregate per-counter scores for the tick evaluated at time ``tick``.

    ``scores`` maps event name to {evaluated tick: lof}.  Counters with no
    score at tick − lag are excluded from the mean; ``contributing`` records
    how many remained.  Returns nothing when no counter has a score.
    """
    eval_tick = tick - lag(config)
    per: dict[str, float] = {}
    for counter in config.counters:
        stream = scores.get(counter.name)
        if stream is not None and eval_tick in stream:
            per[counter.name] = stream[eval_tick]
    if not per:
        return None
    f = sum(per.values()) / len(per)
    return AttackFactorPoint(
        tick=tick, eval_tick=eval_tick, f=f, per_counter_lof=per, contributing=len(per)
    )


def prune_scores(
    scores: Mapping[str, dict[int, float]], tick: int, config: DetectorConfig
) -> None:
    """Drop every score the evaluation of ``tick`` or an earlier one reads.

    Ticks are evaluated in increasing order, so no later evaluation looks
    at them again; a late score for such a tick is dropped too.  Called
    after each evaluation, this bounds every map by the lag.
    """
    done = tick - lag(config)
    for stream in scores.values():
        for stale in [t for t in stream if t <= done]:
            del stream[stale]


def threshold_check(point: AttackFactorPoint, config: DetectorConfig) -> Alert | None:
    """Alert iff f strictly exceeds the threshold."""
    if not point.f > config.delta_threshold:
        return None
    return Alert(
        eval_time=point.eval_tick * config.tick_interval,
        eval_tick=point.eval_tick,
        f=point.f,
        threshold=config.delta_threshold,
        per_counter_lof=dict(point.per_counter_lof),
    )


def select_counters(trace: AlignedTrace, config: DetectorConfig) -> list[EventKind]:
    """Configured counters actually present in the trace, in config order."""
    present = set(trace.events())
    return [c for c in config.counters if c.name in present]


# ---------------------------------------------------------------------------
# Offline driver
# ---------------------------------------------------------------------------

def run_offline(
    trace: AlignedTrace,
    config: DetectorConfig,
    ranked: dict[str, list[LofResult]] | None = None,
) -> tuple[list[AttackFactorPoint], list[Alert], dict[str, list[int]]]:
    """Replay an aligned trace tick by tick through the streaming path.

    Returns the attack-factor series, the alerts, and per counter the point
    indices of its top_n whole-series outliers (indices into the counter's
    non-missing value sequence, for offline marking).  Counters too short to
    score batch-wise get an empty index list.  A caller that also needs the
    outliers' scores passes a ``ranked`` dict, which receives per counter
    their LofResults in rank order, so the series is ranked only once.
    """
    selected = select_counters(trace, config)
    if not selected:
        available = ", ".join(sorted(trace.events())) or "none"
        raise ValueError(
            f"no configured counter present in trace (available: {available})"
        )

    states = {c.name: WindowState(event=c, window=config.window) for c in selected}
    scores: dict[str, dict[int, float]] = {c.name: {} for c in selected}
    points: list[AttackFactorPoint] = []
    alerts: list[Alert] = []

    for tick in range(trace.n_ticks):
        for counter in selected:
            value = trace.values[counter.name][tick]
            if math.isnan(value):
                continue
            result = push_value(states[counter.name], tick, float(value), config)
            if result is not None:
                scores[counter.name][result[0]] = result[1]
        point = evaluate_tick(scores, tick, config)
        prune_scores(scores, tick, config)
        if point is not None:
            points.append(point)
            alert = threshold_check(point, config)
            if alert is not None:
                alerts.append(alert)

    outliers: dict[str, list[int]] = {}
    for counter in selected:
        col = trace.values[counter.name]
        values = col[~np.isnan(col)]
        top: list[LofResult] = []
        if values.shape[0] >= config.k + 1:
            results = lof_all(values.tolist(), config.k)
            top = [results[i] for i in top_n_outliers(results, config.top_n)]
        outliers[counter.name] = [r.index for r in top]
        if ranked is not None:
            ranked[counter.name] = top
    return points, alerts, outliers
