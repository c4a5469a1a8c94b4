"""Detector unit tests: window mechanics, aggregation, thresholding, and
the offline driver, plus streaming/offline agreement."""

import math

import numpy as np
import pytest

from hpcwatch import detector as detector_module
from hpcwatch.detector import (
    Alert,
    AttackFactorPoint,
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
from hpcwatch.events import EventKind
from hpcwatch.synth import AttackSpec, BaselineSpec, SynthConfig, generate_trace
from hpcwatch.trace import AlignedTrace, CounterSeries, Sample, Trace, align, tick_of

INF = float("inf")
EV = EventKind("LLC-loads")


def make_trace(columns: dict[str, list[float | None]], interval: float = 0.1) -> Trace:
    """Trace with one sample per tick per counter; None skips the tick."""
    trace = Trace()
    for name, values in columns.items():
        event = EventKind(name)
        samples = [
            Sample(timestamp=(i + 1) * interval, delta=int(v), event=event)
            for i, v in enumerate(values)
            if v is not None
        ]
        trace.series[name] = CounterSeries(event=event, samples=samples)
    return trace


def stream_run(trace: Trace, config: DetectorConfig):
    """Feed raw samples in time order through the incremental primitives.

    Evaluation of a tick happens once a strictly newer sample arrives (all
    grid peers are then in), with a final flush at end of stream.  Assumes
    at most one sample per counter per tick, which every fixture here has.
    """
    ordered = sorted(
        (s for series in trace.series.values() for s in series.samples),
        key=lambda s: (s.timestamp, s.event.name),
    )
    names = {c.name for c in config.counters}
    states = {n: WindowState(event=EventKind(n), window=config.window) for n in names}
    scores: dict[str, dict[int, float]] = {n: {} for n in names}
    points: list[AttackFactorPoint] = []
    alerts: list[Alert] = []
    next_eval = 0
    max_tick = -1

    def eval_until(limit: int) -> None:
        nonlocal next_eval
        while next_eval < limit:
            point = evaluate_tick(scores, next_eval, config)
            if point is not None:
                points.append(point)
                alert = threshold_check(point, config)
                if alert is not None:
                    alerts.append(alert)
            next_eval += 1

    for sample in ordered:
        tick = tick_of(sample.timestamp, config.tick_interval)
        max_tick = max(max_tick, tick)
        eval_until(tick)
        if sample.event.name in states:
            result = push_sample(states[sample.event.name], sample, config)
            if result is not None:
                scores[sample.event.name][result[0]] = result[1]
    eval_until(max_tick + 1)
    return points, alerts


# ---------------------------------------------------------------------------
# Configuration and lag
# ---------------------------------------------------------------------------

def test_config_defaults():
    config = DetectorConfig()
    assert (config.k, config.delta_threshold, config.window) == (5, 1.5, 50)
    assert config.tick_interval == 0.100
    assert config.warmup == 12
    assert [c.name for c in config.counters] == [
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
    assert DetectorConfig(k=5, warmup=30).warmup == 30


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k": 1},
        {"k": 5, "window": 6},
        {"delta_threshold": 1.0},
        {"delta_threshold": 0.5},
        {"tick_interval": 0.0},
        {"counters": ()},
        {"k": 5, "warmup": 5},
        {"top_n": 0},
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
    sample = Sample(timestamp=0.1, delta=3, event=EventKind("bus-cycles"))
    with pytest.raises(ValueError):
        push_sample(state, sample, config)


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
    assert [c.name for c in picked] == ["bus-cycles", "LLC-loads"]


# ---------------------------------------------------------------------------
# Offline driver
# ---------------------------------------------------------------------------

def test_run_offline_requires_a_configured_counter():
    aligned = align(make_trace({"cpu-cycles": [1.0] * 30}), 0.1)
    with pytest.raises(ValueError, match="no configured counter"):
        run_offline(aligned, DetectorConfig())


def test_run_offline_constant_trace_is_all_ones_and_silent():
    aligned = align(make_trace({"LLC-loads": [7.0] * 60}), 0.1)
    points, alerts, outliers = run_offline(aligned, DetectorConfig())
    assert alerts == []
    assert points, "expected scored ticks after warm-up"
    assert all(p.f == 1.0 for p in points)
    assert all(p.contributing == 1 for p in points)
    assert len(outliers["LLC-loads"]) == 5


def test_run_offline_first_scored_tick_respects_warmup_and_lag():
    config = DetectorConfig()
    aligned = align(make_trace({"LLC-loads": [7.0] * 60}), 0.1)
    points, _, _ = run_offline(aligned, config)
    # samples occupy ticks 1..60; warm-up completes at tick 12, whose push
    # scores tick 9, collected when the driver evaluates wall tick 12
    assert points[0].eval_tick == 9
    assert points[0].tick == 12


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
    assert first == second


# ---------------------------------------------------------------------------
# Streaming agreement
# ---------------------------------------------------------------------------

def test_streaming_matches_offline_on_noisy_traces():
    # wide baselines make scores land all over the scale, alerts included
    noisy = {
        name: BaselineSpec(mu=math.log(level), sigma=0.5)
        for name, level in [("LLC-loads", 900), ("bus-cycles", 24000)]
    }
    detector = DetectorConfig()
    for seed in range(10):
        attack = AttackSpec(at=8.0, magnitude=6.0, width=2) if seed % 2 else None
        config = SynthConfig(
            seed=seed,
            duration=12.0,
            counters=(EventKind("LLC-loads"), EventKind("bus-cycles")),
            baseline=noisy,
            attack=attack,
        )
        trace, _ = generate_trace(config)
        offline = run_offline(align(trace, config.tick_interval), detector)
        streamed = stream_run(trace, detector)
        assert streamed[0] == offline[0], f"seed {seed}: attack factor diverged"
        assert streamed[1] == offline[1], f"seed {seed}: alerts diverged"


def test_streaming_matches_offline_with_gaps():
    # the gap makes this counter's scores surface late; both paths must
    # drop the same late points
    with_gap: list[float | None] = [float(40 + (i * 7) % 5) for i in range(45)]
    for i in range(17, 23):
        with_gap[i] = None
    trace = make_trace({"LLC-loads": with_gap, "bus-cycles": [9.0] * 45})
    detector = DetectorConfig()
    offline = run_offline(align(trace, 0.1), detector)
    streamed = stream_run(trace, detector)
    assert streamed[0] == offline[0]
    assert streamed[1] == offline[1]


def test_run_offline_score_maps_stay_bounded(monkeypatch):
    # 5 000 ticks with gaps, so some scores surface after their tick has
    # been evaluated; a map that kept them would grow with the trace
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

    sizes: list[int] = []

    def spy(scores, tick, cfg):
        sizes.append(max(len(stream) for stream in scores.values()))
        return evaluate_tick(scores, tick, cfg)

    monkeypatch.setattr(detector_module, "evaluate_tick", spy)
    points, alerts, _ = run_offline(align(trace, 0.1), config)
    assert len(sizes) >= 5000
    assert max(sizes) <= lag(config) + 1
    assert alerts
    assert (points, alerts) == stream_run(trace, config)


# ---------------------------------------------------------------------------
# Scale robustness
# ---------------------------------------------------------------------------

def aligned_columns(columns: dict[str, list[float]]) -> AlignedTrace:
    n = len(next(iter(columns.values())))
    return AlignedTrace(
        tick_interval=0.1,
        n_ticks=n,
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
    assert [p.f for p in got] == [p.f for p in reference]
    assert [p.eval_tick for p in got] == [p.eval_tick for p in reference]


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
            assert len(got) == len(reference)
            for g, r in zip(got, reference):
                assert g.eval_tick == r.eval_tick
                if math.isinf(r.f):
                    assert math.isinf(g.f)
                else:
                    assert g.f == pytest.approx(r.f, rel=1e-9)
