"""Acceptance gate: one test per shipping criterion, pinned tolerances.

Each test prints an ACCEPTANCE PASS/FAIL line (see conftest) so a plain
pytest run reads as a checklist.  Criteria cover scoring correctness against
an independent oracle, numerical robustness, streaming equivalence, the
end-to-end synthetic benchmark, parser fidelity, byte determinism, and the
chart contract.
"""

import io
import math
import os
import time

import numpy as np
import pytest

import oracle
from hpcwatch.cli import main
from hpcwatch.detector import (
    DetectorConfig,
    WindowState,
    lag,
    push_value,
    run_offline,
)
from hpcwatch.lof import lof_all, lof_scores
from hpcwatch.svgplot import emit_plot
from hpcwatch.synth import AttackSpec, SynthConfig, evaluate, generate_trace
from hpcwatch.trace import (
    AlignedTrace,
    align,
    iter_serialized,
    parse_stream,
)

INF = float("inf")


def relative_gap(a: float, b: float) -> float:
    if math.isinf(a) or math.isinf(b):
        return 0.0 if a == b else INF
    return abs(a - b) / max(1e-300, abs(b))


# ---------------------------------------------------------------------------
# Criterion: LOF oracle equivalence
# ---------------------------------------------------------------------------

def test_lof_oracle_equivalence_200_sets():
    """200 seeded 1-D sets, |points| <= 64, k in 2..8, vs the brute-force
    oracle, within 1e-9 relative error, in under 10 s."""
    started = time.monotonic()
    rng = np.random.default_rng(20250819)
    for case in range(200):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(k + 1, 65))
        shape = case % 4
        if shape == 0:
            pts = rng.normal(0.0, 50.0, n)
        elif shape == 1:
            pts = rng.lognormal(4.0, 1.0, n)
        elif shape == 2:
            pts = rng.integers(0, 10, n).astype(float)  # heavy ties
        else:
            pts = np.concatenate(
                [rng.normal(0.0, 1.0, n - 1), rng.normal(500.0, 1.0, 1)]
            )  # one far outlier
        mine = lof_all(pts.tolist(), k)[1].tolist()
        ref = oracle.lof_all(pts.tolist(), k)
        for index, (score, expected) in enumerate(zip(mine, ref)):
            gap = relative_gap(score, expected)
            assert gap <= 1e-9, f"case {case}: point {index} off by {gap}"
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# Criterion: derived fixture
# ---------------------------------------------------------------------------

def test_lof_derived_fixture_values():
    """{0,1,2,10} with k=2: the isolated point scores 4.95833..., its inner
    neighbor 1.33333..., within 1e-6.  Both values were derived with the
    brute-force oracle before the fast path existed."""
    results = dict(enumerate(lof_all([0.0, 1.0, 2.0, 10.0], 2)[1].tolist()))
    assert results[3] == pytest.approx(4.9583333333, abs=1e-6)
    assert results[1] == pytest.approx(1.3333333333, abs=1e-6)


# ---------------------------------------------------------------------------
# Criterion: degeneracy
# ---------------------------------------------------------------------------

def test_constant_windows_score_one_and_stay_silent():
    """All-duplicate windows are the densest possible configuration: every
    score is exactly 1 and a constant trace cannot alert at delta=1.5."""
    for n, k in ((6, 2), (13, 5), (50, 5), (64, 8)):
        assert lof_scores(np.full(n, 42.0), k).tolist() == [1.0] * n

    constant = AlignedTrace(
        tick_interval=0.1,
        n_ticks=400,
        ticks={"LLC-loads": np.arange(400), "bus-cycles": np.arange(400)},
        values={"LLC-loads": np.full(400, 7.0), "bus-cycles": np.full(400, 900.0)},
    )
    (_, fs, _), alerts, _ = run_offline(constant, DetectorConfig())
    assert fs.tolist() and all(f == 1.0 for f in fs.tolist())
    assert alerts == []


# ---------------------------------------------------------------------------
# Criterion: affine invariance
# ---------------------------------------------------------------------------

def test_affine_invariance_scores_factors_alerts():
    """Scale by c in {1e-3, 1, 1e3} and shift by b in {0, 1e6}: lof scores
    and attack factors move less than 1e-9 relative, alert decisions not at
    all.  Fixture spacing (>= 1e4 between points) keeps every distance far
    above the float ulp at every mapped magnitude."""
    rng = np.random.default_rng(20240817)
    combos = [(c, b) for c in (1e-3, 1.0, 1e3) for b in (0.0, 1e6)]

    # score level
    base_pts = (np.cumsum(rng.uniform(1e4, 1e5, 48)) + 5e5).tolist()
    reference = lof_all(base_pts, 5)[1].tolist()
    for c, b in combos:
        got = lof_all([c * x + b for x in base_pts], 5)[1].tolist()
        for g, e in zip(got, reference):
            assert relative_gap(g, e) <= 1e-9, (c, b)

    # factor and alert level: two counters, one carrying a burst
    def column(spike: bool) -> np.ndarray:
        col = np.cumsum(rng.uniform(1e4, 1e5, 150)) + 5e5
        if spike:
            col[100] *= 40.0
        return col

    base_cols = {"LLC-loads": column(True), "bus-cycles": column(False)}
    ticks = {k: np.arange(150) for k in base_cols}
    config = DetectorConfig()
    (ref_ticks, ref_fs, _), ref_alerts, _ = run_offline(
        AlignedTrace(tick_interval=0.1, n_ticks=150, ticks=ticks, values=base_cols), config
    )
    assert ref_alerts, "fixture must trip at least one alert"
    for c, b in combos:
        mapped = {k: c * v + b for k, v in base_cols.items()}
        (eval_ticks, fs, _), alerts, _ = run_offline(
            AlignedTrace(tick_interval=0.1, n_ticks=150, ticks=ticks, values=mapped), config
        )
        assert eval_ticks.tolist() == ref_ticks.tolist()
        for tick, got, ref in zip(eval_ticks.tolist(), fs.tolist(), ref_fs.tolist()):
            assert relative_gap(got, ref) <= 1e-9, (c, b, tick)
        assert [a.eval_tick for a in alerts] == [a.eval_tick for a in ref_alerts], (c, b)


# ---------------------------------------------------------------------------
# Criterion: streaming/batch agreement
# ---------------------------------------------------------------------------

def test_streaming_score_equals_batch_score_100_streams():
    """Once the ring is full, every pushed score must equal the batch score
    of the same window contents at the same position, bit for bit, across
    100 seeded streams."""
    config = DetectorConfig()
    offset = config.window - 1 - lag(config)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        stream = rng.lognormal(5.0, 0.7, config.window + 40)
        state = WindowState(event="LLC-loads", window=config.window)
        mirror: list[float] = []
        for tick, value in enumerate(stream.tolist()):
            result = push_value(state, tick, value, config)
            mirror.append(value)
            window = mirror[-config.window:]
            if len(window) < config.window or result is None:
                continue
            eval_tick, streamed = result
            batch = float(lof_scores(np.array(window), config.k)[offset])
            assert eval_tick == tick - lag(config)
            assert streamed == batch, f"seed {seed} tick {tick}"


# ---------------------------------------------------------------------------
# Criterion: end-to-end synthetic detection
# ---------------------------------------------------------------------------

def test_end_to_end_synthetic_detection_25_seeds():
    """60 s at 100 ms, six counters, attack at t=50 s (magnitude 20, width
    2): TP=1, FP=0, latency <= 5 ticks, and the clean twin stays silent.
    At least 24 of 25 seeds must pass, all inside 30 s."""
    started = time.monotonic()
    detector = DetectorConfig()
    passed = 0
    seed7_ok = False
    for seed in range(1, 26):
        attacked, truth = generate_trace(
            SynthConfig(
                seed=seed,
                duration=60.0,
                attack=AttackSpec(at=50.0, magnitude=20.0, width=2),
            )
        )
        _, alerts, _ = run_offline(align(attacked, 0.1), detector)
        metrics = evaluate(alerts, truth, tolerance=5)

        clean, _ = generate_trace(SynthConfig(seed=seed, duration=60.0))
        _, clean_alerts, _ = run_offline(align(clean, 0.1), detector)

        ok = (
            metrics.true_positives == 1
            and metrics.false_positives == 0
            and metrics.detection_latency is not None
            and abs(metrics.detection_latency) <= 5
            and clean_alerts == []
        )
        passed += ok
        if seed == 7:
            seed7_ok = ok
    elapsed = time.monotonic() - started
    assert seed7_ok, "headline seed 7 failed"
    assert passed >= 24, f"only {passed}/25 seeds passed"
    assert elapsed < 30.0, f"benchmark took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion: parser fidelity
# ---------------------------------------------------------------------------

PROFILER_LISTING = """\
# started on Sun Apr 19 01:23:16 2015
     0.001225993,1621,branch-load-misses
     0.002574349,5149,branch-load-misses
     0.003808515,5352,branch-load-misses
     0.005025360,5807,branch-load-misses
"""


def test_parser_fidelity_on_profiler_listing():
    """The five-line interval capture parses to 4 samples plus 1 comment
    with zero malformed lines, and serialize-then-reparse is identical."""
    trace, diags = parse_stream(io.StringIO(PROFILER_LISTING))
    assert diags.lines_read == 5
    assert diags.samples_parsed == 4
    assert diags.comments_skipped == 1
    assert diags.malformed == []
    name = "branch-load-misses"
    assert trace.deltas[name].tolist() == [1621, 5149, 5352, 5807]

    text = "\n".join(iter_serialized(trace)) + "\n"
    again, rediags = parse_stream(io.StringIO(text))
    assert rediags.malformed == []
    assert again.timestamps.keys() == again.deltas.keys() == {name}
    assert again.timestamps[name].tobytes() == trace.timestamps[name].tobytes()
    assert again.deltas[name].tobytes() == trace.deltas[name].tobytes()
    assert "\n".join(iter_serialized(again)) + "\n" == text


# ---------------------------------------------------------------------------
# Criterion: determinism
# ---------------------------------------------------------------------------

def test_synth_analyze_byte_determinism(tmp_path):
    """Two runs of synth+analyze with identical flags produce byte-identical
    traces and report files."""
    outputs = []
    for tag in ("a", "b"):
        trace_dir = tmp_path / f"trace_{tag}"
        report_dir = tmp_path / f"report_{tag}"
        assert (
            main(
                [
                    "synth", "--seed", "7", "--duration", "60",
                    "--attack-at", "50", "--out", str(trace_dir),
                ]
            )
            == 0
        )
        inputs = sorted(
            str(trace_dir / n) for n in os.listdir(trace_dir) if n.endswith(".csv")
        )
        main(["analyze", *inputs, "--out", str(report_dir), "--plot", "--mark", "50"])
        outputs.append((trace_dir, report_dir))

    (trace_a, report_a), (trace_b, report_b) = outputs
    for directory_a, directory_b in ((trace_a, trace_b), (report_a, report_b)):
        names_a = sorted(os.listdir(directory_a))
        assert names_a == sorted(os.listdir(directory_b))
        for name in names_a:
            bytes_a = (directory_a / name).read_bytes()
            bytes_b = (directory_b / name).read_bytes()
            assert bytes_a == bytes_b, f"{name} differs between runs"


# ---------------------------------------------------------------------------
# Criterion: plot contract
# ---------------------------------------------------------------------------

def test_plot_contract_circles_and_marker(tmp_path):
    """top_n=5 draws exactly 5 outlier circles; mark_time draws exactly one
    vertical marker element."""
    values = [50, 51, 52, 50, 53, 400, 52, 51, 390, 50, 52, 51, 49, 50, 52]
    times = [(i + 1) * 0.1 for i in range(len(values))]
    from hpcwatch.lof import top_n_outliers

    top = top_n_outliers(*lof_all([float(v) for v in values], 5), 5)
    assert len(top) == 5

    emit_plot("LLC-loads", times, values, top, str(tmp_path / "unmarked.svg"))
    unmarked = (tmp_path / "unmarked.svg").read_text(encoding="utf-8")
    assert unmarked.count("<circle") == 5
    assert unmarked.count('class="event-mark"') == 0

    emit_plot("LLC-loads", times, values, top, str(tmp_path / "marked.svg"), mark_time=0.6)
    marked = (tmp_path / "marked.svg").read_text(encoding="utf-8")
    assert marked.count("<circle") == 5
    assert marked.count('class="event-mark"') == 1
