"""Sliding-window streaming detection over per-counter delta streams.

Each monitored counter keeps a bounded ring of its most recent deltas.
Every push past warm-up judges one point, the one a fixed lag behind the
newest sample, so the evaluated point has temporal neighbors on both
sides; only that point's score is computed.  Per-counter scores landing on
the same evaluated tick are averaged into a single attack factor f, and f
above the configured threshold raises an alert.

One ``Detector`` runs that tick loop for both drivers: it keeps the rings,
the score maps and the clock, and evaluates, prunes, thresholds and
coalesces each tick once the clock has passed it.  ``detect`` pushes every
parsed sample into it, ``run_offline`` every aligned value in tick order,
keeping f as arrays; only a counted delta of a configured counter moves
the clock, the samples ``align`` places on the grid.  A push only queues
its window, tagged with the clock's tick; each ``poll`` scores the queued
full windows in one ``lof_at`` call, however many ticks they span, then
lands the scores and evaluates the passed ticks in push order, so polling
less often stacks more windows and changes no alert.  ``run_offline`` also
ranks each counter's whole aligned column once, for ``outliers.csv`` and
the charts.  ``push_value`` scores one window on the spot through
``lof_scores``; it is the reference the ``Detector`` is tested against.

The lag is floor(k/2) + 1 ticks: 3 ticks (300 ms at the default 100 ms
cadence) for the default k=5.  Detection latency is therefore bounded below
by the lag; nothing can alert on the newest sample.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, MutableSequence, Sequence

import numpy as np

from .events import CANDIDATE_KINDS, EventKind, check_counters
from .lof import LofResult, lof_all, lof_at, lof_scores, top_n_outliers
from .trace import AlignedTrace, Sample, tick_of

# Most windows per lof_at call.  Stacking 64 50-point windows cuts the cost
# per window about tenfold against one at a time.  Past 128 the stacked
# tables outgrow the cache: on a 2-core x86 host, interleaved benchmark
# windows cost 5.9, 4.6, 3.9, 5.8 and 5.6 us each at 32, 64, 128, 256 and
# 512 windows per call.
CHUNK = 64


@dataclass(frozen=True)
class DetectorConfig:
    """Every detection setting, validated once.

    ``k`` is the LOF neighbourhood (MinPts), ``window`` the samples in each
    counter's window, and ``delta_threshold`` the bound f must exceed to
    alert.  ``tick_interval`` is the grid spacing in seconds.  ``counters``
    are the counters whose scores are averaged into f, in that order, each
    named once; ``top_n`` is how many whole-series outliers are ranked per
    counter.  An alert within ``coalesce`` ticks after the last alert raised
    is dropped; 0 keeps every alert.
    """

    k: int = 5
    delta_threshold: float = 1.5
    window: int = 50
    tick_interval: float = 0.100
    counters: tuple[EventKind, ...] = CANDIDATE_KINDS
    top_n: int = 5
    coalesce: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.window < self.k + 2:
            raise ValueError(f"window must be >= k+2 ({self.k + 2}), got {self.window}")
        if not self.delta_threshold > 1:
            raise ValueError(f"delta_threshold must be > 1, got {self.delta_threshold}")
        if not self.tick_interval > 0:
            raise ValueError(f"tick_interval must be > 0, got {self.tick_interval}")
        check_counters(self.counters)
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")
        if self.coalesce < 0:
            raise ValueError(f"coalesce must be >= 0, got {self.coalesce}")

    @property
    def warmup(self) -> int:
        """Samples a counter must deliver before its window is scored at
        all: 2k+2 gives the lagged point a full complement of candidates on
        both sides even in the worst case."""
        return 2 * self.k + 2


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
    ``config.warmup``, nothing before that.  The evaluated point is the
    window's lagged one, ``lag(config)`` places before its end.
    """
    state.ring.append((tick, value))
    state.count += 1
    if state.count < config.warmup:
        return None
    lagged = lag(config)
    return state.ring[-1 - lagged][0], float(lof_scores(state.values(), config.k)[-1 - lagged])


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
    present = trace.values.keys()
    return [c for c in config.counters if c.name in present]


# ---------------------------------------------------------------------------
# The tick loop
# ---------------------------------------------------------------------------

class _Ring:
    """One counter's most recent <= window deltas, each written twice in a
    row of 2 * window, so the full window is always one contiguous slice."""

    __slots__ = ("values", "ticks", "count")

    def __init__(self, window: int, lagged: int) -> None:
        self.values = np.empty(2 * window)
        self.ticks: deque[int] = deque(maxlen=lagged + 1)  # ticks[0] is the lagged point's
        self.count = 0


class Detector:
    """The tick loop behind both drivers, run with one ``DetectorConfig``.

    ``push`` takes one parsed line, or one aligned value: its event name,
    its tick and its delta.
    A line whose event is not configured or whose delta was not counted is
    ignored, as ``align`` gives it no tick: it neither queues a window nor
    moves the clock.  Any other line stamped past the newest tick seen
    moves the clock there, and then queues its window at the clock's tick,
    whatever its own tick.  Every tick the clock has passed is evaluated
    once, in order, after each window queued at it or before has landed:
    the scores for that tick are averaged into f, the score maps are
    pruned, and f above the threshold raises an alert unless it follows the
    last alert raised within the config's ``coalesce`` ticks.

    Full windows are copied into a stack and scored together, CHUNK at a
    time; warm-up windows, shorter, are scored when pushed.  ``poll``
    scores what is queued, evaluates the passed ticks and hands over the
    alerts raised since the last call; a push that fills the stack does
    the same but keeps the alerts for ``poll``.  ``finish`` also evaluates
    the newest tick at end of input.  ``points``, if given, is three
    columns that receive the eval tick, f and contributing count of every
    evaluated tick with a score, in tick order.
    """

    def __init__(
        self, config: DetectorConfig, points: tuple[MutableSequence, ...] | None = None
    ) -> None:
        self.config = config
        self._points = points
        self._lag = lag(config)
        self._warmup = config.warmup
        self._rings = {c.name: _Ring(config.window, self._lag) for c in config.counters}
        self._scores: dict[str, dict[int, float]] = {c.name: {} for c in config.counters}
        # queued windows in push order: (event, evaluated tick, clock tick
        # at the push, its score, or None for the next row of the stack)
        self._queue: list[tuple[str, int, int, float | None]] = []
        self._stack = np.empty((CHUNK, config.window))
        self._stacked = 0
        self._clock: int | None = None  # newest tick of a counted line
        self._next_eval: int | None = None  # oldest tick not evaluated yet
        self._last_alert: int | None = None  # evaluated tick of the last alert raised
        self._alerts: list[Alert] = []

    def push(self, name: str, tick: int, delta: float | None) -> None:
        """One parsed line; a ``None`` delta is a ``<not counted>`` readout."""
        ring = self._rings.get(name)
        if ring is None or delta is None:
            return
        clock = self._clock
        if clock is None:
            self._clock = self._next_eval = tick
        elif tick > clock:
            self._clock = tick
        window = self.config.window
        slot = ring.count % window
        ring.values[slot] = ring.values[slot + window] = float(delta)
        ring.ticks.append(tick)
        ring.count += 1
        count = ring.count
        if count < self._warmup:
            return
        eval_tick = ring.ticks[0]
        if count < window:
            score = lof_at(ring.values[None, :count], self.config.k, count - 1 - self._lag)
            self._queue.append((name, eval_tick, self._clock, float(score[0])))
            return
        self._stack[self._stacked] = ring.values[slot + 1:slot + 1 + window]
        self._stacked += 1
        self._queue.append((name, eval_tick, self._clock, None))
        if self._stacked == CHUNK:
            self._drain()

    def poll(self) -> Sequence[Alert]:
        """Score and land what is queued, evaluate every tick the clock has
        passed, and hand over the alerts raised since the last call, in
        tick order."""
        if self._clock is not None:
            self._drain()
        if not self._alerts:
            return ()
        alerts, self._alerts = self._alerts, []
        return alerts

    def finish(self) -> Sequence[Alert]:
        """End of input: evaluate the newest tick too, then ``poll``."""
        if self._clock is not None:
            self._clock += 1
        return self.poll()

    def _drain(self) -> None:
        # a window queued at clock tick t lands after every tick before t
        # is evaluated and before t is; later pushes for one tick still win
        stacked = iter(())
        if self._stacked:
            stacked = iter(lof_at(
                self._stack[:self._stacked], self.config.k, self.config.window - 1 - self._lag
            ).tolist())
            self._stacked = 0
        for name, eval_tick, at, score in self._queue:
            self._evaluate_until(at)
            self._scores[name][eval_tick] = next(stacked) if score is None else score
        self._queue.clear()
        self._evaluate_until(self._clock)

    def _evaluate_until(self, tick: int) -> None:
        while self._next_eval < tick:
            if not any(self._scores.values()):
                # a tick with no score gives no point and prunes nothing,
                # so a gap in the stream is crossed in one step
                self._next_eval = tick
                return
            self._evaluate(self._next_eval)
            self._next_eval += 1

    def _evaluate(self, tick: int) -> None:
        point = evaluate_tick(self._scores, tick, self.config)
        prune_scores(self._scores, tick, self.config)
        if point is None:
            return
        if self._points is not None:
            for column, value in zip(self._points, (point.eval_tick, point.f, point.contributing)):
                column.append(value)
        alert = threshold_check(point, self.config)
        if alert is None:
            return
        last = self._last_alert
        if last is not None and alert.eval_tick - last <= self.config.coalesce:
            return
        self._last_alert = alert.eval_tick
        self._alerts.append(alert)


# ---------------------------------------------------------------------------
# Offline driver
# ---------------------------------------------------------------------------

def _push_in_tick_order(detector: Detector, trace: AlignedTrace, names: list[str]) -> None:
    """Push every value of the ``names`` counters, tick by tick and
    in ``names`` order within a tick, converted to Python objects CHUNK at
    a time.  Its own function, so its arrays are freed before
    ``run_offline`` ranks the whole series."""
    ticks = np.concatenate([trace.ticks[name] for name in names])
    values = np.concatenate([trace.values[name] for name in names])
    which = np.repeat(np.arange(len(names)), [trace.ticks[name].shape[0] for name in names])
    order = np.argsort(ticks, kind="stable")
    push = detector.push
    for start in range(0, order.shape[0], CHUNK):
        block = order[start:start + CHUNK]
        for i, tick, value in zip(
            which[block].tolist(), ticks[block].tolist(), values[block].tolist()
        ):
            push(names[i], tick, value)


def run_offline(
    trace: AlignedTrace, config: DetectorConfig
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], list[Alert], dict[str, list[LofResult]]]:
    """Push every value of an aligned trace, in tick order, through a
    ``Detector``.

    Returns the attack-factor series as the eval tick (int64), f and
    contributing count (int64) arrays, the alerts, and per counter its top_n
    whole-series outliers as LofResults in rank order; their indices point
    into the counter's ``trace.values``.  Counters too short to rank get an
    empty list.  Alerts are coalesced as ``config.coalesce`` says.
    """
    selected = select_counters(trace, config)
    if not selected:
        available = ", ".join(sorted(trace.values)) or "none"
        raise ValueError(
            f"no configured counter present in trace (available: {available})"
        )

    columns = (array("q"), array("d"), array("q"))
    detector = Detector(config, columns)
    _push_in_tick_order(detector, trace, [counter.name for counter in selected])
    alerts = list(detector.finish())
    series = tuple(np.frombuffer(column, column.typecode) for column in columns)

    ranked: dict[str, list[LofResult]] = {}
    for counter in selected:
        values = trace.values[counter.name]
        ranked[counter.name] = (
            top_n_outliers(*lof_all(values, config.k), config.top_n)
            if values.shape[0] >= config.k + 1 else []
        )
    return series, alerts, ranked
