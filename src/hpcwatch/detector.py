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
grid.  Windows pushed while the clock stands on one tick are stacked into
one ``lof_at`` call (``score_windows``) before that tick is evaluated.
``run_offline`` scores each counter's windows up front (``lagged_scores``)
and lands each score in the ``Detector`` at the tick its push happens; it
also ranks each counter's whole aligned column once, for ``outliers.csv``
and the charts.  ``push_value`` scores one window on the spot through
``lof_scores``; it is the reference the batched paths are tested against.

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

def append_value(
    state: WindowState, tick: int, value: float, config: DetectorConfig
) -> tuple[int, np.ndarray] | None:
    """Append one delta and, past warm-up, return the window to score.

    Returns (evaluated tick, a copy of the ring's values) once
    ``state.count`` reaches ``config.warmup``, nothing before that.  The
    evaluated point is the window's lagged one, ``lag(config)`` places
    before its end.
    """
    state.ring.append((tick, value))
    state.count += 1
    if state.count < config.warmup:
        return None
    return state.ring[-1 - lag(config)][0], state.values()


def push_value(
    state: WindowState, tick: int, value: float, config: DetectorConfig
) -> tuple[int, float] | None:
    """Append one delta and, past warm-up, score the lagged ring position.

    Returns (evaluated tick, its lof score) once ``state.count`` reaches
    ``config.warmup``, nothing before that.
    """
    pushed = append_value(state, tick, value, config)
    if pushed is None:
        return None
    eval_tick, window = pushed
    return eval_tick, float(lof_scores(window, config.k)[-1 - lag(config)])


def score_windows(windows: Sequence[np.ndarray], config: DetectorConfig) -> list[float]:
    """The lagged point's score in each window, as ``push_value`` gives it.

    Windows of one length are stacked into one ``lof_at`` call, so a
    caller keeps its batches to about CHUNK windows.
    """
    scores = np.empty(len(windows))
    by_length: dict[int, list[int]] = {}
    for i, window in enumerate(windows):
        by_length.setdefault(window.shape[0], []).append(i)
    for length, where in by_length.items():
        stacked = np.stack([windows[i] for i in where])
        scores[where] = lof_at(stacked, config.k, length - 1 - lag(config))
    return scores.tolist()


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

class Detector:
    """The tick loop behind both drivers.

    ``push`` takes one parsed line: its event name, its tick and its delta.
    A line whose event is not configured or whose delta was not counted is
    ignored, as ``align`` gives it no tick: it neither queues a window nor
    moves the clock.  Any other line stamped past the newest tick seen
    moves the clock there first, and every tick the clock passes is
    evaluated: the windows queued so far are scored together, the scores
    for that tick are averaged into f, the score maps are pruned, and f
    above the threshold raises an alert unless it follows the last alert
    raised within ``coalesce`` ticks.  Only then is the line's own window
    queued, so it counts from the clock's tick on, whatever its own tick.

    ``poll`` hands over the alerts raised since the last call, ``finish``
    also evaluates the newest tick at end of input.  ``points``, if given,
    receives every attack-factor point in tick order.
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
        self._states = {c.name: WindowState(event=c, window=config.window) for c in config.counters}
        self._scores: dict[str, dict[int, float]] = {c.name: {} for c in config.counters}
        # windows pushed since the clock last moved: (event, evaluated tick, window)
        self._pending: list[tuple[str, int, np.ndarray]] = []
        self._clock: int | None = None  # newest tick of a counted line, next to evaluate
        self._last_alert: int | None = None  # evaluated tick of the last alert raised
        self._alerts: list[Alert] = []

    def push(self, name: str, tick: int, delta: float | None) -> None:
        """One parsed line; a ``None`` delta is a ``<not counted>`` readout."""
        state = self._states.get(name)
        if state is None or delta is None:
            return
        if self._clock is None or tick > self._clock:
            self.advance(tick)
        pushed = append_value(state, tick, float(delta), self.config)
        if pushed is not None:
            self._pending.append((name, *pushed))
            if len(self._pending) == CHUNK:
                self._land_pending()

    def land(self, name: str, eval_tick: int, score: float) -> None:
        """A score for a window of ``name`` pushed at the clock's tick and
        scored elsewhere, as ``push_value`` returns it."""
        self._scores[name][eval_tick] = score

    def advance(self, tick: int) -> None:
        """Move the clock to ``tick``, evaluating every tick before it."""
        if self._clock is None:
            self._clock = tick
            return
        if tick <= self._clock:
            return
        if self._pending:
            self._land_pending()
        for passed in range(self._clock, tick):
            self._evaluate(passed)
        self._clock = tick

    def poll(self) -> Sequence[Alert]:
        """The alerts raised since the last call, in tick order."""
        if not self._alerts:
            return ()
        alerts, self._alerts = self._alerts, []
        return alerts

    def finish(self) -> Sequence[Alert]:
        """End of input: evaluate the newest tick too, then ``poll``."""
        if self._clock is not None:
            self.advance(self._clock + 1)
        return self.poll()

    def _land_pending(self) -> None:
        # one lof_at call per window length; push order is kept, so a later
        # push for the same tick still wins
        landed = score_windows([window for _, _, window in self._pending], self.config)
        for (name, eval_tick, _), score in zip(self._pending, landed):
            self._scores[name][eval_tick] = score
        self._pending.clear()

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
