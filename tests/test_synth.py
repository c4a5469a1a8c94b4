"""Synthetic trace generator and alert scoring."""

import math

import numpy as np
import pytest

from hpcwatch.detector import Alert
from hpcwatch.synth import (
    AttackSpec,
    BaselineSpec,
    GroundTruth,
    SynthConfig,
    evaluate,
    generate_trace,
    read_ground_truth,
    write_ground_truth,
)
from hpcwatch.trace import align, tick_of


def make_alert(eval_tick: int, f: float = 3.0) -> Alert:
    return Alert(
        eval_time=eval_tick * 0.1,
        eval_tick=eval_tick,
        f=f,
        threshold=1.5,
        per_counter_lof={},
    )


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_baseline_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        BaselineSpec(mu=1.0, sigma=0.0)


def test_attack_spec_bounds():
    with pytest.raises(ValueError):
        AttackSpec(at=5.0, magnitude=0.5, width=3)
    with pytest.raises(ValueError):
        AttackSpec(at=5.0, magnitude=2.0, width=0)
    with pytest.raises(ValueError):
        AttackSpec(at=-1.0, magnitude=2.0, width=3)
    for at, magnitude in ((math.nan, 2.0), (math.inf, 2.0), (5.0, math.inf), (5.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            AttackSpec(at=at, magnitude=magnitude, width=3)


def test_attack_window_must_fit_duration():
    with pytest.raises(ValueError, match="past duration"):
        SynthConfig(
            seed=1, duration=10.0, attack=AttackSpec(at=9.9, magnitude=2.0, width=5)
        )


def test_counters_are_nonempty_and_each_named_once():
    with pytest.raises(ValueError, match="counters must be nonempty"):
        SynthConfig(seed=1, duration=10.0, counters=())
    with pytest.raises(ValueError, match="counter LLC-loads is named twice"):
        SynthConfig(seed=1, duration=10.0, counters=("LLC-loads",) * 2)
    with pytest.raises(ValueError, match="got the name 'LLC-loads'"):
        SynthConfig(seed=1, duration=10.0, counters="LLC-loads")


def test_duration_must_cover_a_tick():
    with pytest.raises(ValueError, match="shorter than one tick"):
        generate_trace(SynthConfig(seed=1, duration=0.04))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def test_generation_is_deterministic():
    config = SynthConfig(
        seed=9, duration=10.0, attack=AttackSpec(at=5.0, magnitude=4.0, width=3)
    )
    first, truth_a = generate_trace(config)
    second, truth_b = generate_trace(config)
    assert truth_a == truth_b
    assert first.timestamps.keys() == second.timestamps.keys()
    for name in first.timestamps:
        assert first.timestamps[name].tobytes() == second.timestamps[name].tobytes()
        assert first.deltas[name].tobytes() == second.deltas[name].tobytes()


def test_different_seeds_differ():
    # needs a baseline wide enough that draws do not all round to one level
    wide = {"LLC-loads": BaselineSpec(mu=math.log(500), sigma=0.5)}
    counters = ("LLC-loads",)
    a, _ = generate_trace(
        SynthConfig(seed=1, duration=10.0, counters=counters, baseline=wide)
    )
    b, _ = generate_trace(
        SynthConfig(seed=2, duration=10.0, counters=counters, baseline=wide)
    )
    assert a.deltas["LLC-loads"].tolist() != b.deltas["LLC-loads"].tolist()


def test_steady_defaults_pin_each_counter_to_one_level():
    # the steady defaults are engineered so the whole run sits on a single
    # integer per counter; this is what keeps clean traces alert-free
    trace, _ = generate_trace(SynthConfig(seed=1, duration=10.0))
    for name, column in trace.deltas.items():
        deltas = set(column.tolist())
        assert len(deltas) == 1, f"{name} drifted across {sorted(deltas)}"


def test_sample_grid_and_counts():
    config = SynthConfig(seed=5, duration=10.0)
    trace, _ = generate_trace(config)
    assert set(trace.timestamps) == {
        "iTLB-load-misses",
        "dTLB-loads",
        "bus-cycles",
        "LLC-store-misses",
        "LLC-loads",
        "LLC-load-misses",
    }
    for name, stamps in trace.timestamps.items():
        deltas = trace.deltas[name]
        assert stamps.shape == deltas.shape == (100,)
        assert stamps[0] == pytest.approx(0.1)
        assert stamps[-1] == pytest.approx(10.0)
        assert all(d >= 0 and d == math.floor(d) for d in deltas.tolist())
    aligned = align(trace, config.tick_interval)
    assert aligned.n_ticks == 101  # ticks 0..100, tick 0 empty
    for name, values in aligned.values.items():
        assert aligned.ticks[name].tolist() == list(range(1, 101))
        assert values.shape == (100,)


def test_attack_tick_snaps_attack_time_to_grid():
    config = SynthConfig(
        seed=5, duration=100.0, attack=AttackSpec(at=50.0, magnitude=20.0, width=5)
    )
    _, truth = generate_trace(config)
    assert truth.attack_tick == 500
    assert truth.attack_tick == tick_of(50.0, config.tick_interval)
    assert truth.affected == tuple(config.counters)


def test_attack_affects_only_named_counters():
    config = SynthConfig(
        seed=5,
        duration=10.0,
        attack=AttackSpec(at=5.0, magnitude=50.0, width=2, affected=("LLC-loads",)),
    )
    boosted, truth = generate_trace(config)
    clean, _ = generate_trace(
        SynthConfig(seed=5, duration=10.0)
    )
    assert truth.affected == ("LLC-loads",)
    for name in boosted.deltas:
        same = boosted.deltas[name].tolist() == clean.deltas[name].tolist()
        assert same == (name != "LLC-loads")


def test_magnitude_one_is_an_exact_noop():
    base, _ = generate_trace(SynthConfig(seed=17, duration=10.0))
    boosted, truth = generate_trace(
        SynthConfig(
            seed=17, duration=10.0, attack=AttackSpec(at=5.0, magnitude=1.0, width=4)
        )
    )
    assert truth.attack_tick == 50
    for name in base.deltas:
        assert boosted.deltas[name].tobytes() == base.deltas[name].tobytes()


def test_boost_lands_on_the_attack_ticks():
    config = SynthConfig(
        seed=23, duration=10.0, attack=AttackSpec(at=5.0, magnitude=30.0, width=3)
    )
    boosted, truth = generate_trace(config)
    clean, _ = generate_trace(SynthConfig(seed=23, duration=10.0))
    b = align(boosted, 0.1)
    c = align(clean, 0.1)
    assert b.ticks["LLC-loads"].tolist() == c.ticks["LLC-loads"].tolist() == list(range(1, 101))
    hot = range(truth.attack_tick, truth.attack_tick + 3)
    for tick, bv, cv in zip(range(1, 101), b.values["LLC-loads"], c.values["LLC-loads"]):
        if tick in hot:
            assert bv == np.rint(cv * 30.0)
        else:
            assert bv == cv


def test_lognormal_baseline_is_right_skewed():
    # sanity check on the draw distribution, not the steady defaults
    config = SynthConfig(
        seed=31,
        duration=60.0,
        counters=("LLC-loads",),
        baseline={"LLC-loads": BaselineSpec(mu=math.log(500), sigma=1.0)},
    )
    trace, _ = generate_trace(config)
    values = trace.deltas["LLC-loads"]
    mean, median = values.mean(), np.median(values)
    assert mean > median, f"expected right skew, mean={mean} median={median}"


def test_burst_dominates_steady_baseline_everywhere():
    # magnitude 20 must clear the whole clean window, not just its middle
    for seed in range(100):
        config = SynthConfig(
            seed=seed,
            duration=20.0,
            attack=AttackSpec(at=10.0, magnitude=20.0, width=3),
        )
        trace, truth = generate_trace(config)
        aligned = align(trace, 0.1)
        for name, column in aligned.values.items():
            at = aligned.ticks[name]
            hot = (at >= truth.attack_tick) & (at < truth.attack_tick + 3)
            assert hot.sum() == 3, (seed, name)
            boosted = column[at == truth.attack_tick][0]
            assert boosted > np.percentile(column[~hot], 99), (seed, name)


# ---------------------------------------------------------------------------
# Alert scoring
# ---------------------------------------------------------------------------

def test_evaluate_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        evaluate([], GroundTruth(attack_tick=None, affected=()), -1)


def test_evaluate_folds_qualifying_alerts_into_one_tp():
    truth = GroundTruth(attack_tick=500, affected=("LLC-loads",))
    alerts = [make_alert(t) for t in (498, 500, 503, 700)]
    metrics = evaluate(alerts, truth, tolerance=5)
    assert metrics.true_positives == 1
    assert metrics.false_positives == 1  # tick 700 only
    assert metrics.false_negatives == 0
    assert metrics.detection_latency == -2  # earliest qualifying is 498


def test_evaluate_missed_attack():
    truth = GroundTruth(attack_tick=500, affected=())
    metrics = evaluate([make_alert(300)], truth, tolerance=5)
    assert metrics.true_positives == 0
    assert metrics.false_positives == 1
    assert metrics.false_negatives == 1
    assert metrics.detection_latency is None


def test_evaluate_clean_trace_counts_all_alerts_as_fp():
    truth = GroundTruth(attack_tick=None, affected=())
    metrics = evaluate([make_alert(10), make_alert(20)], truth, tolerance=5)
    assert metrics.true_positives == 0
    assert metrics.false_positives == 2
    assert metrics.false_negatives == 0
    assert metrics.detection_latency is None


def test_evaluate_no_alerts_clean_trace_is_all_zero():
    metrics = evaluate([], GroundTruth(attack_tick=None, affected=()), 5)
    assert metrics == type(metrics)(0, 0, 0, None)


# ---------------------------------------------------------------------------
# Ground-truth sidecar
# ---------------------------------------------------------------------------

def test_ground_truth_round_trip(tmp_path):
    path = str(tmp_path / "gt.txt")
    truth = GroundTruth(attack_tick=500, affected=("LLC-loads", "bus-cycles"))
    write_ground_truth(path, truth, tick_interval=0.1)
    back, interval = read_ground_truth(path)
    assert back == truth
    assert interval == 0.1


def test_ground_truth_round_trip_no_attack(tmp_path):
    path = str(tmp_path / "gt.txt")
    write_ground_truth(path, GroundTruth(attack_tick=None, affected=()), 0.05)
    back, interval = read_ground_truth(path)
    assert back.attack_tick is None
    assert back.affected == ()
    assert interval == 0.05


def test_ground_truth_rejects_garbage(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text("tick_interval 0.1\n")
    with pytest.raises(ValueError, match="bad ground-truth line"):
        read_ground_truth(str(path))
