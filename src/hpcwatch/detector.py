"""Sliding-window streaming detection over per-counter delta streams.

Each monitored counter keeps a bounded ring of its most recent deltas.
Every push past warm-up judges one point, the one a fixed lag behind the
newest sample, so the evaluated point has temporal neighbors on both
sides; only that point's score is computed.  Per-counter scores landing on
the same evaluated tick are averaged into a single attack factor f, and f
above the configured threshold raises an alert.

One ``Detector`` runs that tick loop for both drivers: it keeps the rings,
the score maps and the clock, and evaluates, prunes, thresholds and
coalesces each tick once the clock has passed it.  The live ``detect``
loop pushes every parsed sample into it; only a counted delta of a
configured counter moves the clock, the samples ``align`` places on the
grid.  A push only queues its window, tagged with the clock's tick; each
``poll`` scores the queued full windows in one ``lof_at`` call, however
many ticks they span, then lands the scores and evaluates the passed ticks
in push order, so polling less often stacks more windows and changes no
alert.  ``run_offline`` scores each counter's windows up front
(``lagged_scores``) and lands each score in the ``Detector`` at the tick
its push happens; it also ranks each counter's whole aligned column once,
for ``outliers.csv`` and the charts.  ``push_value`` scores one window on
the spot through ``lof_scores``; it is the reference the batched paths are
tested against.

The lag is floor(k/2) + 1 ticks: 3 ticks (300 ms at the default 100 ms
cadence) for the default k=5.  Detection latency is therefore bounded below
by the lag; nothing can alert on the newest sample.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .events import CANDIDATE_EVENTS, EventKind
from .lof import LofResult, lof_all, lof_at, lof_scores, top_n_outliers
from .trace import AlignedTrace, Sample, tick_of

# Most windows per lof_at call.  Stacking 64 50-point windows cuts the cost
# per window about tenfold against one at a time; 256 cost the same and
# 1024 more, as the stacked arrays outgrow the cache.
CHUNK = 64


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
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")
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
    ``config.warmup``, nothing before that.  The evaluated point is the
    window's lagged one, ``lag(config)`` places before its end.
    """
    state.ring.append((tick, value))
    state.count += 1
    if state.count < config.warmup:
        return None
    lagged = lag(config)
    return state.ring[-1 - lagged][0], float(lof_scores(state.values(), config.k)[-1 - lagged])


def lagged_scores(values: np.ndarray, config: DetectorConfig) -> np.ndarray:
    """The score ``push_value`` returns for each push of ``values`` into an
    empty window, from the push that completes warm-up on.

    Warm-up windows, shorter than ``config.window``, are scored one length
    at a time; full windows are read through a sliding view, CHUNK at a
    time.
    """
    n, lagged = values.shape[0], lag(config)
    scores = [
        lof_at(values[None, :count], config.k, count - 1 - lagged)
        for count in range(config.warmup, min(n, config.window - 1) + 1)
    ]
    if n >= config.window:
        # full[s] is the window after push s + window
        full = np.lib.stride_tricks.sliding_window_view(values, config.window)
        full = full[max(0, config.warmup - config.window):]
        scores += [
            lof_at(full[start:start + CHUNK], config.k, config.window - 1 - lagged)
            for start in range(0, full.shape[0], CHUNK)
        ]
    return np.concatenate(scores) if scores else np.empty(0)


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
    """The tick loop behind both drivers.

    ``push`` takes one parsed line: its event name, its tick and its delta.
    A line whose event is not configured or whose delta was not counted is
    ignored, as ``align`` gives it no tick: it neither queues a window nor
    moves the clock.  Any other line stamped past the newest tick seen
    moves the clock there, and then queues its window at the clock's tick,
    whatever its own tick.  Every tick the clock has passed is evaluated
    once, in order, after each window queued at it or before has landed:
    the scores for that tick are averaged into f, the score maps are
    pruned, and f above the threshold raises an alert unless it follows the
    last alert raised within ``coalesce`` ticks.

    Full windows are copied into a stack and scored together, CHUNK at a
    time; warm-up windows, shorter, are scored when pushed.  ``poll``
    scores what is queued, evaluates the passed ticks and hands over the
    alerts raised since the last call; a push that fills the stack does
    the same but keeps the alerts for ``poll``.  ``finish`` also evaluates
    the newest tick at end of input.  ``points``, if given, receives every
    attack-factor point in tick order.
    """

    def __init__(
        self,
        config: DetectorConfig,
        coalesce: int = 0,
        points: list[AttackFactorPoint] | None = None,
    ) -> None:
        if coalesce < 0:
            raise ValueError(f"coalesce must be >= 0, got {coalesce}")
        self.config = config
        self.coalesce = coalesce
        self._points = points
        self._lag = lag(config)
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
        self._move_clock(tick)
        window = self.config.window
        slot = ring.count % window
        ring.values[slot] = ring.values[slot + window] = float(delta)
        ring.ticks.append(tick)
        ring.count += 1
        count = ring.count
        if count < self.config.warmup:
            return
        eval_tick = ring.ticks[0]
        if count < window:
            self.land(name, eval_tick, float(
                lof_at(ring.values[None, :count], self.config.k, count - 1 - self._lag)[0]
            ))
            return
        self._stack[self._stacked] = ring.values[slot + 1:slot + 1 + window]
        self._stacked += 1
        self._queue.append((name, eval_tick, self._clock, None))
        if self._stacked == CHUNK:
            self._drain()

    def land(self, name: str, eval_tick: int, score: float) -> None:
        """A score for a window of ``name`` pushed at the clock's tick, once
        a push or ``advance`` has set the clock, and scored elsewhere, as
        ``push_value`` returns it.  It lands with the windows queued there."""
        self._queue.append((name, eval_tick, self._clock, score))

    def advance(self, tick: int) -> None:
        """Move the clock to ``tick``, evaluating every tick before it."""
        self._move_clock(tick)
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
            self.advance(self._clock + 1)
        return self.poll()

    def _move_clock(self, tick: int) -> None:
        if self._clock is None:
            self._clock = self._next_eval = tick
        elif tick > self._clock:
            self._clock = tick

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
            self._evaluate(self._next_eval)
            self._next_eval += 1

    def _evaluate(self, tick: int) -> None:
        point = evaluate_tick(self._scores, tick, self.config)
        prune_scores(self._scores, tick, self.config)
        if point is None:
            return
        if self._points is not None:
            self._points.append(point)
        alert = threshold_check(point, self.config)
        if alert is None:
            return
        if self._last_alert is not None and alert.eval_tick - self._last_alert <= self.coalesce:
            return
        self._last_alert = alert.eval_tick
        self._alerts.append(alert)


# ---------------------------------------------------------------------------
# Offline driver
# ---------------------------------------------------------------------------

def run_offline(
    trace: AlignedTrace,
    config: DetectorConfig,
    coalesce: int = 0,
) -> tuple[list[AttackFactorPoint], list[Alert], dict[str, list[LofResult]]]:
    """Replay an aligned trace tick by tick through a ``Detector``.

    Returns the attack-factor series, the alerts, and per counter its top_n
    whole-series outliers as LofResults in rank order; their indices point
    into the counter's non-missing values, in tick order.  Counters too
    short to rank get an empty list.  ``coalesce`` is the ``Detector``'s.
    """
    selected = select_counters(trace, config)
    if not selected:
        available = ", ".join(sorted(trace.events())) or "none"
        raise ValueError(
            f"no configured counter present in trace (available: {available})"
        )

    # per counter and push tick: the tick the push evaluates (-1 for none)
    # and its score, landed in the score maps when the push happens
    lagged = lag(config)
    eval_ticks: dict[str, np.ndarray] = {}
    tick_scores: dict[str, np.ndarray] = {}
    for counter in selected:
        col = trace.values[counter.name]
        present = np.flatnonzero(~np.isnan(col))
        scored = present[config.warmup - 1:]
        evals = np.full(trace.n_ticks, -1)
        evals[scored] = present[config.warmup - 1 - lagged:present.shape[0] - lagged]
        at = np.full(trace.n_ticks, np.nan)
        at[scored] = lagged_scores(col[present], config)
        eval_ticks[counter.name], tick_scores[counter.name] = evals, at

    points: list[AttackFactorPoint] = []
    detector = Detector(config, coalesce, points)
    for tick in range(trace.n_ticks):
        detector.advance(tick)
        for name, evals in eval_ticks.items():
            eval_tick = int(evals[tick])
            if eval_tick >= 0:
                detector.land(name, eval_tick, float(tick_scores[name][tick]))
    alerts = list(detector.finish())

    ranked: dict[str, list[LofResult]] = {}
    for counter in selected:
        col = trace.values[counter.name]
        values = col[~np.isnan(col)]
        top: list[LofResult] = []
        if values.shape[0] >= config.k + 1:
            results = lof_all(values, config.k)
            top = [results[i] for i in top_n_outliers(results, config.top_n)]
        ranked[counter.name] = top
    return points, alerts, ranked
