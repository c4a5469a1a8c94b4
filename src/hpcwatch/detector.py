"""Sliding-window streaming detection over per-counter delta streams.

Each counter's newest ``window`` deltas form its window.  Every sample past
warm-up judges one point, the one a fixed lag behind it, so the evaluated
point has temporal neighbors on both sides; only that point's score is
computed.  The scores for one evaluated tick are averaged into a single
attack factor f, and f above the configured threshold raises an alert.

One ``Detector`` runs that tick loop for both drivers, on blocks of lines:
``detect`` hands it each read's parsed lines as columns, timestamps that it
snaps to the tick grid itself; ``run_offline`` runs every aligned value in
tick order and keeps f as arrays.  One rule says which scores count: a
score counts iff it is computed before the clock passes the tick that
reads it (its eval tick + lag); of two scores for one counter and tick,
the later counts.
``run_offline`` also ranks each counter's whole aligned column once, for
``outliers.csv`` and the charts.
``push_value`` (through ``lof_scores``), ``evaluate_tick`` and
``threshold_check`` score, average and threshold one window and one tick
at a time; they are the reference the ``Detector`` is tested against.

The lag is floor(k/2) + 1 ticks: 3 ticks (300 ms at the default 100 ms
cadence) for the default k=5.  Detection latency is therefore bounded below
by the lag; nothing can alert on the newest sample.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, MutableSequence, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .events import CANDIDATE_EVENTS, check_counters
from .lof import LofResult, lof_all, lof_at, lof_scores, top_n_outliers
from .trace import AlignedTrace, Sample, tick_of, ticks_of

# Most windows per lof_at call.  Stacking 64 50-point windows cuts the cost
# per window about tenfold against one at a time.  Larger stacks cost less
# per window still, but lof_at's tables grow with the stack: on a 2-core
# x86 host, detect's runs of the benchmark stream (scripts/kernel_bench.py)
# cost 5.3, 4.2, 3.6 and 3.4 us a window at 32, 64, 128 and 256 windows per
# call, and detect's peak RSS rises 0.6 MB at 128 and 1.5 MB at 256.
CHUNK = 64

# Lines the ``Detector`` gathers from ``extend`` before it runs them, and
# most lines per ``Detector.run`` call in ``run_offline``.
BLOCK = 4096


@dataclass(frozen=True)
class DetectorConfig:
    """Every detection setting, validated once.

    ``k`` is the LOF neighbourhood (MinPts), ``window`` the samples in each
    counter's window, and ``delta_threshold`` the bound f must exceed to
    alert.  ``tick_interval`` is the grid spacing in seconds, finite and
    positive.  ``counters`` are the counters whose scores are averaged into
    f, in that order, each named once; ``top_n`` is how many whole-series
    outliers are ranked per counter.  An alert within ``coalesce`` ticks
    after the last alert raised is dropped; 0 keeps every alert.
    """

    k: int = 5
    delta_threshold: float = 1.5
    window: int = 50
    tick_interval: float = 0.100
    counters: tuple[str, ...] = CANDIDATE_EVENTS
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
        if self.tick_interval == math.inf:
            raise ValueError(f"tick_interval must be finite, got {self.tick_interval}")
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

    event: str
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
        stream = scores.get(counter)
        if stream is not None and eval_tick in stream:
            per[counter] = stream[eval_tick]
    if not per:
        return None
    f = sum(per.values()) / len(per)
    return AttackFactorPoint(
        tick=tick, eval_tick=eval_tick, f=f, per_counter_lof=per, contributing=len(per)
    )


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


def select_counters(trace: AlignedTrace, config: DetectorConfig) -> list[str]:
    """Configured counters actually present in the trace, in config order."""
    return [c for c in config.counters if c in trace.values]


# ---------------------------------------------------------------------------
# The tick loop
# ---------------------------------------------------------------------------

class Detector:
    """The tick loop behind both drivers, run with one ``DetectorConfig``.

    ``run`` takes a block of lines as three arrays in arrival order: each
    line's counter (its index in ``config.counters``), tick and counted
    delta.  The clock at a line is the newest tick up to it.  A sample past
    warm-up scores its window's point ``lag`` samples back, at the score's
    eval tick, and tick t reads the scores of eval tick t − lag.  A score
    counts iff it is computed before the clock passes the tick that reads
    it; of two scores for one counter and tick, the later counts.  Each
    tick the clock has passed is evaluated once, in order: its scores are
    averaged into f, and f above the threshold raises an alert unless it
    follows the last alert raised within ``coalesce`` ticks.  So how the
    lines are cut into blocks changes no point and no alert.

    A run stacks the windows its lines complete across counters, those of
    one length together (the full ones, and the warm-up ones of each
    length), at most CHUNK to a ``lof_at`` call; a score depends only on its
    own window, so the stacking changes no bit.

    ``extend`` takes a block of parsed lines as columns, as
    ``trace.parse_block`` gives them, and snaps every line's timestamp to
    its tick as ``align`` does.  A line of an unconfigured event or with an
    uncounted delta is then ignored, as ``align`` gives it no tick: it
    neither scores nor moves the clock.  Lines gather in one buffer, run
    once BLOCK lines are pending.
    ``poll`` runs them and hands over the alerts raised since the last call;
    ``finish`` also evaluates the newest tick at end of input.  ``points``,
    if given, is three columns that receive the eval tick, f and
    contributing count of every evaluated tick with a score, in tick order.
    """

    def __init__(
        self, config: DetectorConfig, points: tuple[MutableSequence, ...] | None = None
    ) -> None:
        self.config = config
        self._points = points
        self._lag = lag(config)
        self._index = {name: i for i, name in enumerate(config.counters)}
        # per counter: the ticks and deltas of its newest window − 1
        # samples, and how many samples it has had
        self._tails = [(np.empty(0, np.int64), np.empty(0), 0)] * len(config.counters)
        self._gathered = (array("q"), array("q"), array("d"))
        # the scores that count, for ticks the clock has not passed
        self._pending = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
        self._clock: int | None = None  # newest tick run
        self._last_alert: int | None = None  # evaluated tick of the last alert raised
        self._alerts: list[Alert] = []

    def extend(
        self, events: Sequence[str], codes: np.ndarray, stamps: np.ndarray, deltas: np.ndarray
    ) -> None:
        """A block of parsed lines as columns: each line's event as its
        index into ``events``, its timestamp and its delta, NaN for a
        ``<not counted>`` readout.  Every line is snapped to its tick
        before any is dropped, so a timestamp past the int64 ticks is a
        ``ValueError`` naming the first, and none of the block is kept."""
        ticks = ticks_of(stamps, self.config.tick_interval)
        lookup = np.array([self._index.get(name, -1) for name in events], dtype=np.int64)
        counters = lookup[codes]
        kept = (counters >= 0) & ~np.isnan(deltas)
        for column, values in zip(self._gathered, (counters, ticks, deltas)):
            column.frombytes(values[kept].astype(column.typecode, copy=False).tobytes())
        if len(self._gathered[0]) >= BLOCK:
            self._run_gathered()

    def poll(self) -> Sequence[Alert]:
        """Run the lines gathered and hand over the alerts raised since the
        last call, in tick order."""
        self._run_gathered()
        alerts, self._alerts = self._alerts, []
        return alerts

    def finish(self) -> Sequence[Alert]:
        """End of input: evaluate the newest tick too, then ``poll``."""
        self._run_gathered()
        if self._clock is not None:
            self._clock += 1
            self._evaluate([self._pending])
        return self.poll()

    def _run_gathered(self) -> None:
        gathered = self._gathered
        if gathered[0]:
            self._gathered = (array("q"), array("q"), array("d"))
            self.run(*(np.frombuffer(column, column.typecode) for column in gathered))

    def run(self, counters: np.ndarray, ticks: np.ndarray, deltas: np.ndarray) -> None:
        """Score the windows a nonempty block of lines completes, keep the
        scores that count, and evaluate every tick the clock has passed."""
        clock = np.maximum.accumulate(ticks)
        if self._clock is not None:
            np.maximum(clock, self._clock, out=clock)
        window, lagged = self.config.window, self._lag
        # per counter, in counter order: its samples to score from and the
        # first of them past warm-up; per score, its counter and eval tick,
        # and whether it counts by the rule: eval tick + lag, the tick that
        # reads a score, is not behind the clock at the line that computed it
        samples, scored = [], []
        for counter in np.flatnonzero(np.bincount(counters)).tolist():
            lines = np.flatnonzero(counters == counter)
            tail_ticks, tail_values, count = self._tails[counter]
            held = tail_values.shape[0]  # values[0] is sample count - held
            c_ticks = np.concatenate((tail_ticks, ticks[lines]))
            values = np.concatenate((tail_values, deltas[lines]))
            self._tails[counter] = (
                c_ticks[1 - window:].copy(), values[1 - window:].copy(), count + lines.shape[0]
            )
            start = max(held, self.config.warmup - 1 - count + held)
            ends = np.arange(start, values.shape[0])
            eval_ticks = c_ticks[ends - lagged]
            samples.append((values, start))
            scored.append((np.full(ends.shape[0], counter), eval_ticks,
                           eval_ticks >= clock[lines[ends - held]] - lagged))
        counter_of, eval_ticks, on_time = (np.concatenate(column) for column in zip(*scored))
        landed = (counter_of[on_time], eval_ticks[on_time], self._score(samples)[on_time])
        self._clock = int(clock[-1])
        self._evaluate([self._pending, landed])

    def _score(self, samples: list[tuple[np.ndarray, int]]) -> np.ndarray:
        """The scores of the windows that each counter's samples end, from
        the first to score on, in counter order and then sample order.

        ``samples`` holds per counter its samples and the first of them to
        score.  A window is the newest ``window`` samples up to its end, or
        every sample so far while there are fewer, as the tail holds them
        all then.  The samples are joined once; the windows of one length,
        across counters, are rows of one view of them, gathered CHUNK at a
        time into a ``lof_at`` call.
        """
        k, window, lagged = self.config.k, self.config.window, self._lag
        values = np.concatenate([mine for mine, _ in samples])
        # each window's last sample, among its counter's samples and in values
        local = [np.arange(start, mine.shape[0]) for mine, start in samples]
        offsets = np.cumsum([0] + [mine.shape[0] for mine, _ in samples[:-1]])
        ends = np.concatenate([offset + last for offset, last in zip(offsets, local)])
        sizes = np.minimum(np.concatenate(local) + 1, window)
        scores = np.empty(ends.shape[0])
        for size in np.flatnonzero(np.bincount(sizes)).tolist():
            rows = sliding_window_view(values, size)
            of_size = np.flatnonzero(sizes == size)
            for chunk in range(0, of_size.shape[0], CHUNK):
                at = of_size[chunk:chunk + CHUNK]
                scores[at] = lof_at(rows[ends[at] + 1 - size], k, size - 1 - lagged)
        return scores

    def _evaluate(self, landed: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        """Keep the later of two scores for one counter and tick, and turn
        those for the ticks the clock has passed into points and alerts."""
        # by tick, then counter; the sort is stable, so the last of a
        # pair's scores is the latest
        counter, eval_tick, score = (np.concatenate(column) for column in zip(*landed))
        order = np.lexsort((counter, eval_tick))
        counter, eval_tick, score = counter[order], eval_tick[order], score[order]
        last = np.ones(order.shape[0], dtype=bool)
        last[:-1] = (eval_tick[1:] != eval_tick[:-1]) | (counter[1:] != counter[:-1])
        counter, eval_tick, score = counter[last], eval_tick[last], score[last]
        due = int(np.searchsorted(eval_tick, self._clock - self._lag))
        self._pending = (counter[due:], eval_tick[due:], score[due:])
        if due == 0:
            return

        config = self.config
        starts = np.flatnonzero(np.append(True, eval_tick[1:due] != eval_tick[:due - 1]))
        contributing = np.diff(np.append(starts, due))
        table = np.zeros((len(config.counters), starts.shape[0]))  # 0.0 where no score
        table[counter[:due], np.repeat(np.arange(starts.shape[0]), contributing)] = score[:due]
        total = np.zeros(starts.shape[0])
        for column in table:  # in config order, as ``evaluate_tick`` sums
            total += column
        f = total / contributing
        ticks = eval_tick[starts]
        if self._points is not None:
            for column, values in zip(self._points, (ticks, f, contributing)):
                column.extend(values.tolist())

        for i in np.flatnonzero(f > config.delta_threshold).tolist():
            tick = int(ticks[i])
            if self._last_alert is not None and tick - self._last_alert <= config.coalesce:
                continue
            self._last_alert = tick
            at = slice(starts[i], starts[i] + contributing[i])
            names = [config.counters[c] for c in counter[at].tolist()]
            per_counter = dict(zip(names, score[at].tolist()))
            self._alerts.append(Alert(
                eval_time=tick * config.tick_interval, eval_tick=tick, f=float(f[i]),
                threshold=config.delta_threshold, per_counter_lof=per_counter,
            ))


# ---------------------------------------------------------------------------
# Offline driver
# ---------------------------------------------------------------------------

def _run_in_tick_order(detector: Detector, trace: AlignedTrace, selected: list[str]) -> None:
    """Run every value of the ``selected`` counters, tick by tick and in
    config order within a tick, in blocks of at most BLOCK lines and
    without an array that spans the trace.

    With n counters, a block ends before the earliest of the counters'
    (BLOCK // n)-th next ticks: no counter has more values than that before
    it, and the counter whose tick it is has exactly that many.  A counter
    with fewer values left gives no bound; when none has more, the block
    takes every value left.  The block's slices, joined in config order and
    stably sorted by tick, are its lines in tick order."""
    ticks = [trace.ticks[name] for name in selected]
    values = [trace.values[name] for name in selected]
    indices = [detector.config.counters.index(name) for name in selected]
    per_counter = max(1, BLOCK // len(selected))
    at, lengths = [0] * len(selected), [t.shape[0] for t in ticks]
    while at != lengths:
        ahead = [t[i + per_counter] for t, i in zip(ticks, at) if i + per_counter < t.shape[0]]
        ends = [int(np.searchsorted(t, min(ahead))) for t in ticks] if ahead else lengths
        block_ticks = np.concatenate([t[i:e] for t, i, e in zip(ticks, at, ends)])
        order = np.argsort(block_ticks, kind="stable")
        detector.run(
            np.repeat(indices, [e - i for i, e in zip(at, ends)])[order],
            block_ticks[order],
            np.concatenate([v[i:e] for v, i, e in zip(values, at, ends)])[order],
        )
        at = ends


def run_offline(
    trace: AlignedTrace, config: DetectorConfig
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], list[Alert], dict[str, list[LofResult]]]:
    """Run every value of an aligned trace, in tick order, through a
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
    _run_in_tick_order(detector, trace, selected)
    alerts = list(detector.finish())
    series = tuple(np.frombuffer(column, column.typecode) for column in columns)

    ranked: dict[str, list[LofResult]] = {}
    for name in selected:
        values = trace.values[name]
        ranked[name] = (
            top_n_outliers(*lof_all(values, config.k), config.top_n)
            if values.shape[0] >= config.k + 1 else []
        )
    return series, alerts, ranked
