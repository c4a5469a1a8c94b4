"""Tests of the benchmark itself:  python3 -m pytest bench"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import tracing
from run import quality
from workloads import BASELINE_LEVELS, WORKLOADS, generate_deltas, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_generator_gives_same_bytes_for_same_seed(tmp_path):
    w = WORKLOADS["analyze-jitter"]
    a = write_inputs(*generate_deltas(w, 7), str(tmp_path / "a"))
    b = write_inputs(*generate_deltas(w, 7), str(tmp_path / "b"))
    c = write_inputs(*generate_deltas(w, 8), str(tmp_path / "c"))
    assert a.sha256 == b.sha256
    assert a.sha256["stream.csv"] != c.sha256["stream.csv"]
    assert a.lines == 18000 and a.n_ticks == 3000


def test_generator_bursts_every_counter_on_two_ticks_only():
    deltas, burst = generate_deltas(WORKLOADS["detect-jitter"], 3)
    for name, level in BASELINE_LEVELS.items():
        high = np.nonzero(deltas[name] > 2 * level)[0] + 1  # sample i is tick i + 1
        assert high.tolist() == [burst, burst + 1], name
        assert deltas[name][burst - 1] > 10 * level


def test_self_time_subtracts_the_union_of_child_intervals():
    Span = tracing.Span
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("c", 8.0, 9.5, 0),  # overlaps b: the overlap is subtracted once
        Span("late", 9.8, 11.0, 0),  # runs past its parent: only the inside counts
    ]
    assert tracing.self_times(spans) == pytest.approx([2.3, 2.0, 1.0, 4.0, 1.5, 1.2])


def test_self_times_of_nested_calls_add_up_to_the_root():
    rec = tracing.Recorder()
    inner = rec.wrap("inner", lambda: sum(range(1000)))
    outer = rec.wrap("outer", lambda: [inner() for _ in range(3)])
    rec.wrap("root", lambda: (outer(), inner()))()
    own = tracing.self_times(rec.spans)
    root = rec.spans[0]
    assert root.name == "root"
    assert [s.name for s in rec.spans].count("inner") == 4
    assert sum(own) == pytest.approx(root.end - root.start, abs=1e-9)


def test_missing_hook_target_omits_its_metrics(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import hpcwatch.cli  # noqa: F401  (hook targets are looked up in loaded modules)
    import hpcwatch.detector as detector

    monkeypatch.delattr(detector, "push_value")
    saved = {(m, a): getattr(sys.modules[m], a, None) for _, m, a, _ in tracing.HOOKS}
    try:
        missing = tracing.install_hooks(tracing.Recorder())
    finally:
        for (m, a), fn in saved.items():
            if fn is not None:
                setattr(sys.modules[m], a, fn)
    assert missing == ["hpcwatch.detector.push_value"]
    metrics, omitted = tracing.layer_metrics(tracing.Recorder(), missing, 6)
    assert set(omitted) == {"detector.pushes", "detector.push_self_s", "detector.push_us_p50",
                            "detector.push_us_p99", "detector.inf_scores"}
    assert not set(omitted) & set(metrics)
    assert "lof.window_s" in metrics


def test_metric_names_are_well_formed_and_every_layer_metric_is_declared():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert set(tracing.LAYER_METRICS) <= {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_quality_applies_the_eval_tolerance():
    rows = ["100.2,3,1.5,a", "172.8,9,1.5,a", "173.1,9,1.5,a", "200,2,1.5,a"]
    q = quality(rows, burst_tick=1731, duration_s=300.0)
    assert q["detected"][0] == 1.0
    assert q["detect_latency_ticks"][0] == -3.0
    assert q["fp_per_min"][0] == pytest.approx(2 / 5)
    assert "detect_latency_ticks" not in quality(rows[:1], 1731, 300.0)


def test_compare_flags_a_metric_worse_than_its_bound_and_ignores_one_inside():
    e2e = [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "lines_per_s", "unit": "lines/s", "better": "higher", "bound": 0.1},
    ]
    base = {"w": {"wall_s": [10.0, 10.2, 9.8], "lines_per_s": [100.0, 101.0, 99.0]}}
    inside = {"w": {"wall_s": [10.9, 10.8, 11.0], "lines_per_s": [91.0, 92.0, 93.0]}}
    beyond = {"w": {"wall_s": [11.2, 11.1, 11.3], "lines_per_s": [89.0, 88.0, 95.0]}}
    assert compare.regressions(base, inside, e2e) == []
    flagged = compare.regressions(base, beyond, e2e)
    assert [(w, m) for w, m, *_ in flagged] == [("w", "wall_s"), ("w", "lines_per_s")]
    assert compare.regressions(beyond, base, e2e) == []  # getting better is never flagged
