"""Detector unit tests: window mechanics, aggregation, thresholding, and
the offline driver, plus streaming/offline agreement."""

import copy
import dataclasses
import math
import time
import tracemalloc
from array import array

import numpy as np
import pytest

from hpcwatch import detector as detector_module
from hpcwatch.detector import (
    AttackFactorPoint,
    Detector,
    DetectorConfig,
    WindowState,
    evaluate_tick,
    lag,
    push_sample,
    push_value,
    run_offline,
    select_counters,
    threshold_check,
)
from hpcwatch.events import CANDIDATE_EVENTS
from hpcwatch.synth import AttackSpec, BaselineSpec, SynthConfig, generate_trace
from hpcwatch.trace import (
    MISSING_DELTA_TOKEN,
    AlignedTrace,
    ParseDiagnostics,
    Sample,
    Trace,
    align,
    iter_serialized,
    parse_block,
    tick_of,
)
from reference import feed_read, replay_detect

INF = float("inf")
EV = "LLC-loads"


def make_trace(columns: dict[str, list[float | None]], interval: float = 0.1) -> Trace:
    """Trace with one sample per tick per counter; None skips the tick."""
    timestamps, deltas = {}, {}
    for name, values in columns.items():
        kept = [(i, v) for i, v in enumerate(values) if v is not None]
        timestamps[name] = np.array([(i + 1) * interval for i, _ in kept])
        deltas[name] = np.array([float(int(v)) for _, v in kept])
    return Trace(timestamps, deltas)


def rows(series) -> list[tuple[int, float, int]]:
    """``run_offline``'s attack-factor arrays as (eval tick, f, contributing)
    rows."""
    return list(zip(*(column.tolist() for column in series)))


# ---------------------------------------------------------------------------
# Configuration and lag
# ---------------------------------------------------------------------------

def test_config_defaults():
    config = DetectorConfig()
    assert (config.k, config.delta_threshold, config.window) == (5, 1.5, 50)
    assert config.tick_interval == 0.100
    assert config.warmup == 12
    assert list(config.counters) == [
        "iTLB-load-misses",
        "dTLB-loads",
        "bus-cycles",
        "LLC-store-misses",
        "LLC-loads",
        "LLC-load-misses",
    ]


def test_config_warmup_follows_k():
    assert DetectorConfig(k=3).warmup == 8
    assert DetectorConfig(k=7).warmup == 16


def test_replaced_config_warmup_follows_k():
    assert dataclasses.replace(DetectorConfig(), k=3).warmup == 8


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k": 1},
        {"k": 5, "window": 6},
        {"delta_threshold": 1.0},
        {"delta_threshold": 0.5},
        {"tick_interval": 0.0},
        {"tick_interval": math.inf},
        {"counters": ()},
        {"coalesce": -1},
        {"top_n": 0},
        {"counters": "LLC-loads"},  # one bare name, not a tuple of names
    ],
)
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        DetectorConfig(**kwargs)


@pytest.mark.parametrize("k,expected", [(2, 2), (3, 2), (4, 3), (5, 3), (7, 4)])
def test_lag_is_half_k_plus_one(k, expected):
    assert lag(DetectorConfig(k=k)) == expected


# ---------------------------------------------------------------------------
# Window push mechanics
# ---------------------------------------------------------------------------

def test_push_scores_nothing_until_warmup():
    config = DetectorConfig()
    state = WindowState(event=EV, window=config.window)
    for tick in range(config.warmup - 1):
        assert push_value(state, tick, 7.0, config) is None
    result = push_value(state, config.warmup - 1, 7.0, config)
    assert result == (config.warmup - 1 - lag(config), 1.0)


def test_push_evaluates_lagged_position():
    # spike lands at tick 10; its score surfaces lag=3 pushes later
    config = DetectorConfig()
    state = WindowState(event=EV, window=config.window)
    seen = {}
    for tick in range(14):
        value = 500.0 if tick == 10 else 5.0
        result = push_value(state, tick, value, config)
        if result is not None:
            seen[result[0]] = result[1]
    assert set(seen) == {8, 9, 10}
    assert seen[8] == 1.0 and seen[9] == 1.0
    assert seen[10] == INF


def test_push_sample_snaps_timestamp_to_grid():
    config = DetectorConfig()
    state = WindowState(event=EV, window=config.window)
    result = None
    for i in range(config.warmup):
        sample = Sample(timestamp=(i + 1) * 0.1, delta=7, event=EV)
        result = push_sample(state, sample, config)
    assert result == (9, 1.0)  # ticks 1..12, lag 3 back from the newest


def test_push_sample_missing_delta_is_a_noop():
    config = DetectorConfig()
    state = WindowState(event=EV, window=config.window)
    sample = Sample(timestamp=0.1, delta=None, event=EV)
    assert push_sample(state, sample, config) is None
    assert state.count == 0 and len(state.ring) == 0


def test_push_sample_rejects_foreign_event():
    config = DetectorConfig()
    state = WindowState(event=EV, window=config.window)
    sample = Sample(timestamp=0.1, delta=3, event="bus-cycles")
    with pytest.raises(ValueError):
        push_sample(state, sample, config)


def test_extend_drops_uncounted_lines():
    # a spiky run of three configured counters and one that is not, as one
    # block of columns, and again with <not counted> lines of the
    # configured counters put in, one at a tick far ahead
    config = DetectorConfig()
    rng = np.random.default_rng(5)
    names = [*config.counters[:3], "cpu-cycles"]
    codes = rng.integers(len(names), size=900)
    ticks = np.arange(900) // 4
    deltas = np.rint(rng.lognormal(5, 0.1, 900))
    deltas[rng.random(900) < 0.01] *= 30

    def run(codes, ticks, deltas):
        points: tuple[list, list, list] = ([], [], [])
        detector = Detector(config, points=points)
        detector.extend(names, codes, ticks * config.tick_interval, deltas)
        alerts = list(detector.finish())
        return list(zip(*points)), alerts

    points, alerts = run(codes, ticks, deltas)
    assert points and alerts
    at = np.sort(rng.choice(900, size=30, replace=False))
    uncounted_ticks = ticks[at]
    uncounted_ticks[15] = 10**6
    # a <not counted> line neither scores nor moves the clock
    assert run(np.insert(codes, at, at % 3), np.insert(ticks, at, uncounted_ticks),
               np.insert(deltas, at, np.nan)) == (points, alerts)


def test_extend_raises_at_the_first_tick_past_int64():
    # every line is ticked, one not counted or of an event no one holds
    # too, and the first past the int64 ticks is named, as tick_of names it
    config = DetectorConfig(counters=("LLC-loads",))
    for line in (f"1e30,{MISSING_DELTA_TOKEN},LLC-loads", "1e30,12,cpu-cycles"):
        lines = ["0.1,1123,LLC-loads", "# a comment", line, "1e40,12,LLC-loads"]
        block = parse_block(lines, ParseDiagnostics(), {}, config.counters)
        assert block.errors == []
        with pytest.raises(ValueError, match=r"^timestamp 1e\+30 is past the int64 ticks$"):
            Detector(config).extend(block.events, block.codes, block.stamps, block.deltas)


def test_ring_is_bounded_by_window():
    config = DetectorConfig(window=20)
    state = WindowState(event=EV, window=config.window)
    for tick in range(100):
        push_value(state, tick, float(tick % 9), config)
    assert len(state.ring) == 20
    assert state.ring[0][0] == 80


# ---------------------------------------------------------------------------
# Aggregation and threshold
# ---------------------------------------------------------------------------

def test_evaluate_tick_averages_available_counters():
    config = DetectorConfig()
    scores = {
        "iTLB-load-misses": {7: 119.0 / 24.0},
        "dTLB-loads": {7: 4.0 / 3.0},
        "bus-cycles": {},  # warmed up elsewhere, nothing for tick 7
    }
    point = evaluate_tick(scores, 10, config)
    assert point is not None
    assert point.tick == 10 and point.eval_tick == 7
    assert point.contributing == 2
    assert point.f == pytest.approx(151.0 / 48.0, rel=1e-12)
    assert set(point.per_counter_lof) == {"iTLB-load-misses", "dTLB-loads"}


def test_evaluate_tick_none_when_no_counter_reports():
    config = DetectorConfig()
    assert evaluate_tick({}, 10, config) is None
    assert evaluate_tick({"LLC-loads": {3: 2.0}}, 10, config) is None


def test_threshold_is_strict():
    config = DetectorConfig()
    at_threshold = AttackFactorPoint(
        tick=10, eval_tick=7, f=1.5, per_counter_lof={}, contributing=0
    )
    assert threshold_check(at_threshold, config) is None
    just_over = AttackFactorPoint(
        tick=10,
        eval_tick=7,
        f=math.nextafter(1.5, 2.0),
        per_counter_lof={"LLC-loads": 2.0},
        contributing=1,
    )
    alert = threshold_check(just_over, config)
    assert alert is not None
    assert alert.eval_tick == 7
    assert alert.eval_time == pytest.approx(0.7, rel=1e-12)
    assert alert.threshold == 1.5


def test_select_counters_keeps_config_order():
    trace = make_trace(
        {"LLC-loads": [1.0] * 3, "bus-cycles": [1.0] * 3, "cpu-cycles": [1.0] * 3}
    )
    aligned = align(trace, 0.1)
    picked = select_counters(aligned, DetectorConfig())
    assert picked == ["bus-cycles", "LLC-loads"]


# ---------------------------------------------------------------------------
# Offline driver
# ---------------------------------------------------------------------------

def test_run_offline_requires_a_configured_counter():
    aligned = align(make_trace({"cpu-cycles": [1.0] * 30}), 0.1)
    with pytest.raises(ValueError, match="no configured counter"):
        run_offline(aligned, DetectorConfig())


def test_run_offline_constant_trace_is_all_ones_and_silent():
    aligned = align(make_trace({"LLC-loads": [7.0] * 60}), 0.1)
    (_, fs, contributing), alerts, outliers = run_offline(aligned, DetectorConfig())
    assert alerts == []
    assert fs.tolist(), "expected scored ticks after warm-up"
    assert all(f == 1.0 for f in fs.tolist())
    assert all(c == 1 for c in contributing.tolist())
    assert len(outliers["LLC-loads"]) == 5


def test_run_offline_first_scored_tick_respects_warmup_and_lag():
    config = DetectorConfig()
    aligned = align(make_trace({"LLC-loads": [7.0] * 60}), 0.1)
    (eval_ticks, _, _), _, _ = run_offline(aligned, config)
    # samples occupy ticks 1..60; warm-up completes at tick 12, whose push
    # scores tick 9, collected when the driver evaluates wall tick 12
    assert eval_ticks[0] == 9
    assert eval_ticks[0] + lag(config) == 12


def test_run_offline_detects_injected_burst():
    from hpcwatch.synth import evaluate

    config = SynthConfig(
        seed=3,
        duration=30.0,
        attack=AttackSpec(at=15.0, magnitude=8.0, width=3),
    )
    trace, truth = generate_trace(config)
    aligned = align(trace, config.tick_interval)
    _, alerts, _ = run_offline(aligned, DetectorConfig())
    metrics = evaluate(alerts, truth, tolerance=5)
    assert metrics.true_positives == 1
    assert metrics.false_positives == 0
    assert metrics.detection_latency == 0


def test_run_offline_short_counter_gets_no_outlier_indices():
    aligned = align(make_trace({"LLC-loads": [3.0, 4.0, 5.0]}), 0.1)
    _, _, outliers = run_offline(aligned, DetectorConfig())
    assert outliers["LLC-loads"] == []


def test_run_offline_is_deterministic():
    config = SynthConfig(seed=11, duration=20.0)
    trace, _ = generate_trace(config)
    aligned = align(trace, config.tick_interval)
    first = run_offline(aligned, DetectorConfig())
    second = run_offline(aligned, DetectorConfig())
    for got, want in zip(first[0], second[0]):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert first[1:] == second[1:]


# ---------------------------------------------------------------------------
# Streaming agreement
# ---------------------------------------------------------------------------

# k=5 with window=7 has a warm-up of 12 pushes, longer than the window
@pytest.mark.parametrize(
    "detector",
    [DetectorConfig(), DetectorConfig(k=2, window=7), DetectorConfig(k=5, window=7),
     DetectorConfig(k=8, window=30)],
    ids=["default", "k2-window7", "k5-window7", "k8-window30"],
)
def test_streaming_matches_offline_on_noisy_traces(detector):
    # wide baselines make scores land all over the scale, alerts included
    noisy = {
        name: BaselineSpec(mu=math.log(level), sigma=0.5)
        for name, level in [("LLC-loads", 900), ("bus-cycles", 24000)]
    }
    for seed in range(10):
        attack = AttackSpec(at=8.0, magnitude=6.0, width=2) if seed % 2 else None
        config = SynthConfig(
            seed=seed,
            duration=12.0,
            counters=("LLC-loads", "bus-cycles"),
            baseline=noisy,
            attack=attack,
        )
        trace, _ = generate_trace(config)
        offline = run_offline(align(trace, config.tick_interval), detector)
        points, alerts = [], []
        replay_detect(list(iter_serialized(trace)), detector, points, alerts)
        assert points == rows(offline[0]), f"seed {seed}: attack factor diverged"
        assert alerts == offline[1], f"seed {seed}: alerts diverged"


def test_streaming_matches_offline_with_gaps():
    # the gap makes this counter's scores surface late; both paths must
    # drop the same late points
    with_gap: list[float | None] = [float(40 + (i * 7) % 5) for i in range(45)]
    for i in range(17, 23):
        with_gap[i] = None
    trace = make_trace({"LLC-loads": with_gap, "bus-cycles": [9.0] * 45})
    detector = DetectorConfig()
    offline = run_offline(align(trace, 0.1), detector)
    points, alerts = [], []
    replay_detect(list(iter_serialized(trace)), detector, points, alerts)
    assert points == rows(offline[0])
    assert alerts == offline[1]


def gap_deltas() -> dict[str, np.ndarray]:
    """600 deltas of two counters, with a burst 150 ticks either side of
    the middle, where the gap tests put their gap."""
    rng = np.random.default_rng(10)
    levels = {"LLC-loads": 1123, "bus-cycles": 23917}
    deltas = {
        name: np.rint(rng.lognormal(math.log(level), 0.03, 600)) for name, level in levels.items()
    }
    for col in deltas.values():
        col[[150, 151, 450, 451]] *= 20
    return deltas


def assert_shifted(far, near, gap: int, near_gap: int, config: DetectorConfig) -> None:
    """The (attack-factor rows, alerts) of the run with a ``gap``-tick gap
    after the 300th tick equal those with a ``near_gap``-tick one, shifted
    back."""
    points, alerts = far
    after, shift = 301 + gap, gap - near_gap
    assert {a.eval_tick < after for a in alerts} == {True, False}

    def back(tick: int) -> int:
        return tick - shift if tick >= after else tick

    assert [(back(tick), f, count) for tick, f, count in points] == near[0]
    assert [
        dataclasses.replace(
            a, eval_tick=back(a.eval_tick), eval_time=back(a.eval_tick) * config.tick_interval
        )
        for a in alerts
    ] == near[1]


def test_detector_crosses_a_long_gap_in_one_step():
    # two counters go silent for `gap` ticks, each side of the gap with a
    # burst; a tick with no score gives no point, so the points and alerts
    # of a 10**8-tick gap are those of a 10**4-tick one, shifted
    deltas = gap_deltas()
    config = DetectorConfig()

    def run(gap: int):
        points: tuple[list, list, list] = ([], [], [])
        detector = Detector(config, points=points)
        lines = [
            f"{(i + 1 + (gap if i >= 300 else 0)) * 0.1!r},{int(col[i])},{name}"
            for i in range(600) for name, col in deltas.items()
        ]
        last_ts: dict[str, float] = {}
        for read in range(0, len(lines), 300):
            feed_read(detector, lines[read:read + 300], last_ts)
        alerts = list(detector.finish())
        return list(zip(*points)), alerts

    started = time.perf_counter()
    far = run(10**8)
    assert time.perf_counter() - started < 5.0
    assert_shifted(far, run(10**4), 10**8, 10**4, config)


def gap_trace(gap: int) -> Trace:
    """The ``gap_deltas`` counters as a trace, one sample per 100 ms tick,
    silent for ``gap`` ticks after the 300th."""
    deltas = gap_deltas()
    stamps = np.array([(i + 1 + (gap if i >= 300 else 0)) * 0.1 for i in range(600)])
    return Trace({name: stamps for name in deltas}, deltas)


def test_run_offline_crosses_a_long_gap():
    # the same two counters through align and run_offline: the points and
    # alerts of a long gap are those of a 100-tick one, shifted.  A loop over
    # every tick of a 10**6-tick gap takes seconds; one slot per tick per
    # counter across a 10**7-tick gap takes 160 MB, where 1 200 samples need
    # a few hundred kB
    config = DetectorConfig()
    near_series, near_alerts, near_ranked = run_offline(align(gap_trace(100), 0.1), config)
    for gap, bound in ((10**6, "time"), (10**7, "memory")):
        trace = gap_trace(gap)
        if bound == "memory":
            tracemalloc.start()
        try:
            started = time.perf_counter()
            aligned = align(trace, 0.1)
            series, alerts, ranked = run_offline(aligned, config)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (elapsed < 0.5) if bound == "time" else (peak < 4 * 2**20), (gap, elapsed, peak)
        assert aligned.n_ticks == 601 + gap
        assert_shifted((rows(series), alerts), (rows(near_series), near_alerts), gap, 100, config)
        assert ranked == near_ranked


def test_detector_retains_bounded_memory():
    # 5 000 ticks with gaps, so some scores surface after their tick has
    # been evaluated
    rng = np.random.default_rng(5000)
    columns: dict[str, list[float | None]] = {}
    for name, level in (("LLC-loads", 1123), ("bus-cycles", 23917)):
        col = np.rint(rng.lognormal(math.log(level), 0.05, 5000))
        col[2500:2502] *= 20
        values: list[float | None] = col.tolist()
        for i in rng.choice(5000, 250, replace=False):
            values[i] = None
        columns[name] = values
    trace = make_trace(columns)
    config = DetectorConfig()
    series, alerts, _ = run_offline(align(trace, 0.1), config)
    assert len(series[0]) > 4800 and alerts
    points, replayed = [], []
    replay_detect(list(iter_serialized(trace)), config, points, replayed)
    assert (rows(series), alerts) == (points, replayed)

    # run in blocks as run_offline runs it, a Detector holds as much after
    # 10**5 ticks with gaps as after 10**4, where keeping one score a tick
    # would take 8 bytes a tick more
    config = DetectorConfig(counters=(EV, "bus-cycles"))

    def retained(n_ticks: int) -> int:
        rng = np.random.default_rng(n_ticks)
        ticks = np.arange(1, n_ticks + 1)
        ticks = np.repeat(ticks[ticks % 500 >= 40], 2)  # both pause 40 ticks in 500
        counters = np.tile([0, 1], ticks.shape[0] // 2)
        deltas = np.rint(rng.lognormal(np.log([1123, 23917])[counters], 0.05))
        detector = Detector(config)
        for start in range(0, ticks.shape[0], 4096):
            block = slice(start, start + 4096)
            detector.run(counters[block], ticks[block], deltas[block])
            detector.poll()
        tracemalloc.start()
        try:
            held = copy.deepcopy(detector)  # everything it refers to
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            del held

    small, large = retained(10**4), retained(10**5)
    assert small < 64 * 2**10 and abs(large - small) < 4 * 2**10, (small, large)


def test_run_offline_result_of_an_hour_holds_three_arrays():
    # the attack factor of an hour's counter is three arrays, not one
    # object with its own dict per evaluated tick
    config = SynthConfig(
        seed=7, duration=3600.0, counters=(EV,),
        attack=AttackSpec(at=1800.0, magnitude=20.0, width=2),
    )
    aligned = align(generate_trace(config)[0], config.tick_interval)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        series, alerts, _ = run_offline(aligned, DetectorConfig())
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [column.dtype for column in series] == [np.int64, np.float64, np.int64]
    assert len(series[0]) > 35_000 and alerts
    assert retained < 2 * 2**20, retained


def one_block_run(trace: AlignedTrace, config: DetectorConfig):
    """``run_offline``'s points and alerts from a single ``Detector.run``
    over every value, concatenated and stably sorted by tick."""
    selected = select_counters(trace, config)
    ticks = np.concatenate([trace.ticks[c] for c in selected])
    order = np.argsort(ticks, kind="stable")
    counters = np.repeat([config.counters.index(c) for c in selected],
                         [trace.ticks[c].shape[0] for c in selected])
    values = np.concatenate([trace.values[c] for c in selected])
    columns = (array("q"), array("d"), array("q"))
    detector = Detector(config, columns)
    if order.shape[0]:
        detector.run(counters[order], ticks[order], values[order])
    alerts = list(detector.finish())
    return rows(tuple(np.frombuffer(c, c.typecode) for c in columns)), alerts


def fuzzed_trace(rng: np.random.Generator) -> tuple[AlignedTrace, DetectorConfig]:
    """Up to four counters of jittered deltas with bursts and ties, each
    dense, with gaps, sparse (one value per 1 000 ticks), starting 10**5
    ticks late, or empty; sometimes a single counter, sometimes one more
    that the config does not name."""
    names = list(CANDIDATE_EVENTS)
    rng.shuffle(names)
    n = int(rng.integers(1, 5))
    k = int(rng.integers(2, 7))
    config = DetectorConfig(
        k=k, window=int(rng.integers(k + 2, 41)), counters=tuple(names[:n]),
        coalesce=int(rng.choice([0, 3])),
    )
    ticks, values = {}, {}
    for counter in names[:n + int(rng.integers(0, 2))]:
        shape = rng.choice(["dense", "gaps", "sparse", "late", "empty"], p=[.3, .3, .15, .15, .1])
        length = 0 if shape == "empty" else int(rng.integers(1, 1500))
        steps = np.ones(length, np.int64)
        if shape == "gaps":
            at = rng.random(length) < 0.01
            steps[at] = rng.integers(2, 10**4, int(at.sum()))
        elif shape == "sparse":
            steps[:] = 1000
        column = np.cumsum(steps) + int(rng.integers(0, 50))
        if shape == "late":
            column += 10**5
        ticks[counter] = column
        level = float(rng.choice([3.0, 1123.0, 1e8]))
        deltas = np.rint(rng.lognormal(math.log(level), 0.03, length))
        deltas[rng.random(length) < 0.003] *= 20
        values[counter] = deltas
    n_ticks = 1 + max((int(t[-1]) for t in ticks.values() if t.shape[0]), default=0)
    return AlignedTrace(0.1, n_ticks, ticks, values), config


def test_run_offline_blocks_equal_one_block_on_fuzzed_traces(monkeypatch):
    # however run_offline cuts a trace into blocks, its points and alerts
    # are those of one block over all of it; every block holds at most
    # BLOCK lines, and a counter with BLOCK // n values ahead bounds each
    # block but the last, so the blocks are few
    rng = np.random.default_rng(19)
    sizes: list[int] = []
    run = Detector.run

    def spy(self, counters, ticks, deltas):
        sizes.append(counters.shape[0])
        return run(self, counters, ticks, deltas)

    cases = 0
    while cases < 60:
        trace, config = fuzzed_trace(rng)
        selected = select_counters(trace, config)
        if not selected or not any(trace.ticks[c].shape[0] for c in selected):
            continue
        cases += 1
        expected = one_block_run(trace, config)
        block = int(rng.choice([24, 256, 4096]))
        monkeypatch.setattr(detector_module, "BLOCK", block)
        monkeypatch.setattr(Detector, "run", spy)
        sizes.clear()
        series, alerts, _ = run_offline(trace, config)
        monkeypatch.undo()
        assert (rows(series), alerts) == expected, cases
        per_counter = block // len(selected)
        assert max(sizes) <= block
        assert sum(sizes) == sum(trace.ticks[c].shape[0] for c in selected)
        assert len(sizes) <= sum(-(-trace.ticks[c].shape[0] // per_counter)
                                 for c in selected), (len(sizes), block)


# ---------------------------------------------------------------------------
# Scale robustness
# ---------------------------------------------------------------------------

def aligned_columns(columns: dict[str, list[float]]) -> AlignedTrace:
    n = len(next(iter(columns.values())))
    return AlignedTrace(
        tick_interval=0.1,
        n_ticks=n,
        ticks={k: np.arange(n) for k in columns},
        values={k: np.array(v, dtype=np.float64) for k, v in columns.items()},
    )


def test_run_offline_shift_is_bitwise_exact():
    # integer deltas shifted by an exactly representable offset keep every
    # pairwise distance bit-identical, hence every score bit-identical
    rng = np.random.default_rng(42)
    base_values = rng.integers(3, 11, size=80).astype(float).tolist()
    reference, _, _ = run_offline(
        aligned_columns({"LLC-loads": base_values}), DetectorConfig()
    )
    shifted = [v + 1e6 for v in base_values]
    got, _, _ = run_offline(aligned_columns({"LLC-loads": shifted}), DetectorConfig())
    assert got[1].tolist() == reference[1].tolist()
    assert got[0].tolist() == reference[0].tolist()


def test_run_offline_affine_float_tolerance():
    # point spacing ~1e4 keeps distances far above the ulp at every scale
    rng = np.random.default_rng(7)
    columns = {
        "LLC-loads": (np.cumsum(rng.uniform(1e4, 1e5, 120)) + 5e5).tolist(),
        "bus-cycles": (np.cumsum(rng.uniform(1e4, 1e5, 120)) + 5e5).tolist(),
    }
    reference, _, _ = run_offline(aligned_columns(columns), DetectorConfig())
    for c in (1e-3, 1.0, 1e3):
        for b in (0.0, 1e6):
            mapped = {k: [c * v + b for v in vs] for k, vs in columns.items()}
            got, _, _ = run_offline(aligned_columns(mapped), DetectorConfig())
            assert len(rows(got)) == len(rows(reference))
            for (g_tick, g_f, _), (r_tick, r_f, _) in zip(rows(got), rows(reference)):
                assert g_tick == r_tick
                if math.isinf(r_f):
                    assert math.isinf(g_f)
                else:
                    assert g_f == pytest.approx(r_f, rel=1e-9)
