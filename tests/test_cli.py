"""Command-line behavior: settings resolution, subcommands, exit codes."""

import argparse
import dataclasses
import hashlib
import io
import math
import os
import re
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hpcwatch.cli import (
    EXIT_ALERTS,
    EXIT_CAPTURE,
    EXIT_ERROR,
    EXIT_OK,
    _SETTINGS,
    _resolve_config,
    build_parser,
    load_config_file,
    main,
)
from hpcwatch.detector import BLOCK, Detector, DetectorConfig
from hpcwatch.report import read_alerts_csv, read_attack_factor_csv, read_outliers_csv
from reference import feed_read, replay_detect


def synth_args(tmp_path, *extra: str) -> list[str]:
    return [
        "synth",
        "--seed", "4",
        "--duration", "30",
        "--attack-at", "15",
        "--out", str(tmp_path / "trace"),
        *extra,
    ]


def trace_files(tmp_path) -> list[str]:
    d = tmp_path / "trace"
    return sorted(str(d / n) for n in os.listdir(d) if n.endswith(".csv"))


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------

def test_load_config_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# comment\n\nk = 7\ndelta=2.5\n")
    assert load_config_file(str(path)) == {"k": "7", "delta": "2.5"}


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("threshold=2\n")
    with pytest.raises(ValueError, match="unknown setting"):
        load_config_file(str(path))


def test_load_config_rejects_bare_words(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("k 7\n")
    with pytest.raises(ValueError, match="expected key=value"):
        load_config_file(str(path))


def test_flags_beat_config_file_beats_builtin(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("k=9\ndelta=2.5\n")
    args = build_parser().parse_args(
        ["detect", "--k", "7", "--config", str(path)]
    )
    config = _resolve_config(args)
    assert config.k == 7  # flag wins
    assert config.delta_threshold == 2.5  # file beats builtin
    assert config.window == 50  # builtin
    assert config.coalesce == 0


def test_env_var_names_the_config_file(tmp_path, monkeypatch):
    path = tmp_path / "cfg"
    path.write_text("window=64\n")
    monkeypatch.setenv("HPCWATCH_CONFIG", str(path))
    args = build_parser().parse_args(["detect"])
    assert _resolve_config(args).window == 64


def test_config_flag_beats_env_var(tmp_path, monkeypatch):
    env_cfg = tmp_path / "env_cfg"
    env_cfg.write_text("window=64\n")
    flag_cfg = tmp_path / "flag_cfg"
    flag_cfg.write_text("window=32\n")
    monkeypatch.setenv("HPCWATCH_CONFIG", str(env_cfg))
    args = build_parser().parse_args(["detect", "--config", str(flag_cfg)])
    assert _resolve_config(args).window == 32


def test_builtin_settings_are_the_config_defaults(monkeypatch):
    monkeypatch.delenv("HPCWATCH_CONFIG", raising=False)
    args = build_parser().parse_args(["detect"])
    assert _resolve_config(args) == DetectorConfig()


def test_config_value_that_does_not_parse_names_file_and_key(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cfg"
    path.write_text("k=abc\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: setting 'k': invalid literal")):
        _resolve_config(build_parser().parse_args(["detect", "--config", str(path)]))
    assert detect_on("", monkeypatch, "--config", str(path)) == EXIT_ERROR
    assert f"{path}: setting 'k'" in capsys.readouterr().err


def test_events_setting_splits_and_strips():
    args = build_parser().parse_args(["detect", "--events", "LLC-loads, bus-cycles"])
    assert _resolve_config(args).counters == ("LLC-loads", "bus-cycles")


def test_the_settings_table_names_each_config_field_once():
    assert sorted(field for field, *_ in _SETTINGS.values()) == sorted(
        f.name for f in dataclasses.fields(DetectorConfig)
    )


def test_each_subcommand_keeps_its_option_strings():
    detector = ["--k", "--delta", "--window", "--top", "--coalesce"]
    shared = ["--interval", "--events", "--config"]
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert {
        name: [s for action in p._actions for s in action.option_strings]
        for name, p in subparsers.choices.items()
    } == {
        "analyze": ["-h", "--help", "--out", "--plot", "--mark", *detector, *shared],
        "detect": ["-h", "--help", *detector, *shared],
        "synth": ["-h", "--help", "--seed", "--duration", "--attack-at", "--magnitude",
                  "--width", "--out", *shared],
        "eval": ["-h", "--help", "--tolerance", *shared],
        "capture": ["-h", "--help", "--pid", "--duration", "--out", "--profiler", *shared],
    }


def test_coalesce_keeps_first_of_each_run():
    def raised(coalesce: int) -> list[int]:
        # each lone burst on a flat line scores +inf, so each one alerts
        detector = Detector(DetectorConfig(counters=("LLC-loads",), coalesce=coalesce))
        lines = [f"{tick * 0.1!r},{5000 if tick in (100, 101, 103, 120, 121) else 1000},LLC-loads"
                 for tick in range(130)]
        feed_read(detector, lines, {})
        return [a.eval_tick for a in detector.finish()]

    assert raised(5) == [100, 120]
    assert raised(0) == [100, 101, 103, 120, 121]


# ---------------------------------------------------------------------------
# synth -> analyze -> eval round trip
# ---------------------------------------------------------------------------

def test_synth_writes_traces_and_ground_truth(tmp_path, capsys):
    assert main(synth_args(tmp_path)) == EXIT_OK
    files = os.listdir(tmp_path / "trace")
    assert len([f for f in files if f.endswith(".csv")]) == 6
    assert "ground_truth.txt" in files
    truth_text = (tmp_path / "trace" / "ground_truth.txt").read_text()
    assert "attack_tick=150" in truth_text
    assert "6 trace files" in capsys.readouterr().out


def test_analyze_reports_and_exits_three_on_alerts(tmp_path, capsys):
    main(synth_args(tmp_path))
    out = tmp_path / "report"
    rc = main(["analyze", *trace_files(tmp_path), "--out", str(out)])
    assert rc == EXIT_ALERTS
    stdout = capsys.readouterr().out
    assert "alerts=" in stdout and str(out) in stdout

    alerts = read_alerts_csv(str(out / "alerts.csv"), 0.1)
    assert alerts and all(a.f > 1.5 for a in alerts)
    assert min(a.eval_tick for a in alerts) == 150

    points = read_attack_factor_csv(str(out / "attack_factor.csv"))
    assert len(points) > 200
    assert all(c == 6 for _, _, c in points)

    rows = read_outliers_csv(str(out / "outliers.csv"))
    assert {r.event for r in rows} == {
        "iTLB-load-misses", "dTLB-loads", "bus-cycles",
        "LLC-store-misses", "LLC-loads", "LLC-load-misses",
    }
    assert all(1 <= r.rank <= 5 for r in rows)


def test_eval_scores_the_analyze_alerts(tmp_path, capsys):
    main(synth_args(tmp_path))
    out = tmp_path / "report"
    main(["analyze", *trace_files(tmp_path), "--out", str(out)])
    capsys.readouterr()
    rc = main(
        ["eval", str(out / "alerts.csv"), str(tmp_path / "trace" / "ground_truth.txt")]
    )
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "TP=1" in lines
    assert "FP=0" in lines
    assert "FN=0" in lines
    assert "latency=0" in lines


def test_analyze_clean_trace_exits_zero(tmp_path, capsys):
    main(["synth", "--seed", "4", "--duration", "30", "--out", str(tmp_path / "trace")])
    out = tmp_path / "report"
    rc = main(["analyze", *trace_files(tmp_path), "--out", str(out)])
    assert rc == EXIT_OK
    assert read_alerts_csv(str(out / "alerts.csv"), 0.1) == []


def test_eval_without_attack_omits_latency(tmp_path, capsys):
    main(["synth", "--seed", "4", "--duration", "30", "--out", str(tmp_path / "trace")])
    out = tmp_path / "report"
    main(["analyze", *trace_files(tmp_path), "--out", str(out)])
    capsys.readouterr()
    main(["eval", str(out / "alerts.csv"), str(tmp_path / "trace" / "ground_truth.txt")])
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["TP=0", "FP=0", "FN=0"]


def test_analyze_plot_emits_marked_charts(tmp_path):
    main(synth_args(tmp_path))
    out = tmp_path / "report"
    main(
        ["analyze", *trace_files(tmp_path), "--out", str(out), "--plot", "--mark", "15"]
    )
    svgs = [f for f in os.listdir(out) if f.endswith(".svg")]
    assert len(svgs) == 6
    for name in svgs:
        svg = (out / name).read_text()
        assert svg.count("<circle") == 5
        assert svg.count("event-mark") == 1


def shared_tick_trace() -> list[str]:
    """dTLB-loads lines over 600 ticks: every 37th tick is read out twice,
    as two halves stamped 0.02 s either side of it, and tick 300 reports
    <not counted>."""
    rng = np.random.default_rng(600)
    lines = []
    for tick in range(1, 601):
        value = round(rng.lognormal(math.log(4000), 0.03))
        if tick == 300:
            lines.append(f"{tick * 0.1:.2f},<not counted>,dTLB-loads")
        elif tick % 37 == 0:
            half = value // 2
            lines.append(f"{tick * 0.1 - 0.02:.2f},{half},dTLB-loads")
            lines.append(f"{tick * 0.1 + 0.02:.2f},{value - half},dTLB-loads")
        else:
            lines.append(f"{tick * 0.1:.2f},{value},dTLB-loads")
    return lines


def test_analyze_plot_circles_the_outliers_csv_rows(tmp_path):
    import xml.etree.ElementTree as ET

    path = tmp_path / "dtlb.csv"
    path.write_text("\n".join(shared_tick_trace()) + "\n")
    out = tmp_path / "report"
    main(["analyze", str(path), "--out", str(out), "--plot", "--events", "dTLB-loads"])

    ns = "{http://www.w3.org/2000/svg}"
    svg = ET.parse(out / "dTLB-loads.svg").getroot()
    points = [tuple(p.split(",")) for p in svg.find(ns + "polyline").get("points").split()]
    present = [tick for tick in range(1, 601) if tick != 300]
    assert len(points) == len(present)
    circles = [
        (c.get("cx"), c.get("cy"), c.find(ns + "title").text) for c in svg.iter(ns + "circle")
    ]
    rows = sorted(read_outliers_csv(str(out / "outliers.csv")), key=lambda r: r.rank)
    assert len(rows) == 5
    assert circles == [(*points[present.index(r.tick)], f"lof={r.lof:.9g}") for r in rows]


@pytest.mark.parametrize(
    "event, chart",
    [
        ("cpu/cycles/", "cpu%2Fcycles%2F.svg"),
        ("cpu_core/instructions/", "cpu_core%2Finstructions%2F.svg"),
        ("../x", "..%2Fx.svg"),
        ("a&b<c>~%", "a%26b%3Cc%3E%7E%25.svg"),
        # 781 characters encoded, past a 255-byte name limit: cut, less the
        # escape the cut split, and marked with the full name's digest
        ("a" + "/" * 260, "a" + "%2F" * 77
         + "~" + hashlib.sha256(b"a" + b"/" * 260).hexdigest()[:16] + ".svg"),
    ],
    ids=["pmu", "hybrid-pmu", "parent-dir", "xml-and-percent", "past-name-limit"],
)
def test_analyze_plot_keeps_each_chart_in_out(event, chart, tmp_path, capsys):
    # perf qualifies events with their PMU, so a name may hold a slash, or
    # anything else a file name or an XML text node cannot
    import xml.etree.ElementTree as ET

    rng = np.random.default_rng(300)
    path = tmp_path / "trace.csv"
    path.write_text("".join(
        f"{tick * 0.1:.1f},{round(rng.lognormal(math.log(4000), 0.03))},{event}\n"
        for tick in range(1, 301)
    ))
    out = tmp_path / "report"
    rc = main(["analyze", str(path), "--out", str(out), "--plot", "--events", event])
    assert rc in (EXIT_OK, EXIT_ALERTS), capsys.readouterr().err
    assert sorted(os.listdir(out)) == sorted(
        ["alerts.csv", "attack_factor.csv", "outliers.csv", chart]
    )
    assert sorted(os.listdir(tmp_path)) == ["report", "trace.csv"]
    svg = ET.parse(out / chart).getroot()
    assert svg.find("{http://www.w3.org/2000/svg}text").text == event


def test_analyze_writes_outliers_csv_before_the_charts(tmp_path, monkeypatch, capsys):
    from hpcwatch import cli

    def refuse(*args):
        raise OSError("chart refused")

    monkeypatch.setattr(cli, "emit_plot", refuse)
    main(["synth", "--seed", "4", "--duration", "5", "--out", str(tmp_path / "trace")])
    out = tmp_path / "report"
    assert main(["analyze", *trace_files(tmp_path), "--out", str(out), "--plot"]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: chart refused\n"
    assert sorted(os.listdir(out)) == ["alerts.csv", "attack_factor.csv", "outliers.csv"]


@pytest.mark.parametrize("mark", ["inf", "nan"])
def test_analyze_mark_must_be_finite(mark, tmp_path, capsys):
    main(["synth", "--seed", "4", "--duration", "5", "--out", str(tmp_path / "trace")])
    out = tmp_path / "report"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", *trace_files(tmp_path), "--out", str(out), "--plot", "--mark", mark])
    assert exc.value.code == EXIT_ERROR
    assert not out.exists()
    assert f"argument --mark: invalid finite float value: '{mark}'" in capsys.readouterr().err


def test_analyze_plot_ranks_each_counter_once(tmp_path, monkeypatch):
    from hpcwatch import cli, detector

    main(synth_args(tmp_path))
    calls = []
    for module in (cli, detector):
        def counted(values, k, lof_all=module.lof_all, name=module.__name__):
            calls.append(name)
            return lof_all(values, k)
        monkeypatch.setattr(module, "lof_all", counted)
    main(["analyze", *trace_files(tmp_path), "--out", str(tmp_path / "report"), "--plot"])
    assert len(calls) == len(trace_files(tmp_path)), calls  # one file per counter


def test_analyze_events_flag_restricts_counters(tmp_path, capsys):
    main(synth_args(tmp_path))
    out = tmp_path / "report"
    main(
        [
            "analyze", *trace_files(tmp_path),
            "--out", str(out),
            "--events", "LLC-loads",
        ]
    )
    assert "counters=1" in capsys.readouterr().out
    rows = read_outliers_csv(str(out / "outliers.csv"))
    assert {r.event for r in rows} == {"LLC-loads"}


def test_analyze_counts_a_counter_never_counted(tmp_path, capsys):
    # every dTLB-loads readout is <not counted>, so it has no aligned value:
    # it still counts in counters=, and the reports are those of a run
    # without it
    main(synth_args(tmp_path))
    files = trace_files(tmp_path)
    dtlb = Path(next(f for f in files if f.endswith("dTLB-loads.csv")))
    stamps = [line.split(",")[0] for line in dtlb.read_text().splitlines()]
    dtlb.write_text("".join(f"{t},<not counted>,dTLB-loads\n" for t in stamps))
    capsys.readouterr()
    main(["analyze", *files, "--out", str(tmp_path / "with")])
    assert capsys.readouterr().out.startswith("ticks=301 counters=6 ")
    main(["analyze", *[f for f in files if f != str(dtlb)], "--out", str(tmp_path / "without")])
    assert capsys.readouterr().out.startswith("ticks=301 counters=5 ")
    for name in ("attack_factor.csv", "alerts.csv", "outliers.csv"):
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()


def test_analyze_coalesce_folds_alert_runs(tmp_path):
    main(synth_args(tmp_path))
    out_all = tmp_path / "all"
    out_one = tmp_path / "one"
    main(["analyze", *trace_files(tmp_path), "--out", str(out_all)])
    main(["analyze", *trace_files(tmp_path), "--out", str(out_one), "--coalesce", "10"])
    full = read_alerts_csv(str(out_all / "alerts.csv"), 0.1)
    folded = read_alerts_csv(str(out_one / "alerts.csv"), 0.1)
    assert len(folded) == 1
    assert folded[0].eval_tick == min(a.eval_tick for a in full)


# ---------------------------------------------------------------------------
# detect (streaming)
# ---------------------------------------------------------------------------

def detect_on(text: str, monkeypatch, *flags: str) -> int:
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return main(["detect", *flags])


class LinePerRead:
    """A text stream with no binary buffer that gives one of ``lines`` a
    read."""

    def __init__(self, lines) -> None:
        self.lines = iter(lines)

    def read(self, size: int) -> str:
        return next(self.lines, "")


def interleaved(tmp_path) -> str:
    from hpcwatch.trace import iter_serialized, merge_traces, parse_file

    traces = [parse_file(p)[0] for p in trace_files(tmp_path)]
    return "\n".join(iter_serialized(merge_traces(traces))) + "\n"


def test_detect_empty_stdin_is_clean(monkeypatch, capsys):
    assert detect_on("", monkeypatch) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_detect_streams_alerts_matching_analyze(tmp_path, monkeypatch, capsys):
    main(synth_args(tmp_path))
    out = tmp_path / "report"
    main(["analyze", *trace_files(tmp_path), "--out", str(out)])
    capsys.readouterr()

    rc = detect_on(interleaved(tmp_path), monkeypatch)
    assert rc == EXIT_ALERTS
    live_lines = [l for l in capsys.readouterr().out.splitlines() if l]
    file_lines = (out / "alerts.csv").read_text().splitlines()[1:]
    assert live_lines == file_lines


def test_detect_honors_coalesce(tmp_path, monkeypatch, capsys):
    main(synth_args(tmp_path))
    capsys.readouterr()
    rc = detect_on(interleaved(tmp_path), monkeypatch, "--coalesce", "10")
    assert rc == EXIT_ALERTS
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_detect_warns_on_malformed_lines(tmp_path, monkeypatch, capsys):
    main(["synth", "--seed", "4", "--duration", "10", "--out", str(tmp_path / "trace")])
    capsys.readouterr()
    rc = detect_on("garbage\n" + interleaved(tmp_path), monkeypatch)
    assert rc == EXIT_OK
    assert "1 malformed" in capsys.readouterr().err


def test_detect_counts_malformed_lines_without_keeping_them(monkeypatch, capsys):
    """perf prints a fractional count in msec for ``task-clock`` once per
    interval, for as long as the capture runs: detect counts those lines
    and keeps none of them."""
    import tracemalloc

    n = 40_000

    def stream():
        for i in range(n):
            yield f"{i * 0.1 + 0.05:.3f},100.52,msec,task-clock,100123456,100.00,1.005,CPUs\n"

    monkeypatch.setattr("sys.stdin", LinePerRead(stream()))
    tracemalloc.start()
    try:
        rc = main(["detect"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == EXIT_OK
    assert f"{n} malformed" in capsys.readouterr().err
    # keeping each line's number and reason would take about 7 MB
    assert peak < 1_000_000


def test_detect_keeps_no_state_for_unconfigured_event_names(monkeypatch, capsys):
    """A profiler that labels events per thread, cgroup or CPU names a new
    event in every line: detect drops them all and keeps nothing of
    them, so its memory stays flat however many names a stream holds."""
    import tracemalloc

    n = 50_000

    def stream():
        for i in range(n):
            yield f"{i * 0.1 + 0.05:.3f},{100 + i % 7},uncore_cbox_{i}/clockticks/\n"

    monkeypatch.setattr("sys.stdin", LinePerRead(stream()))
    tracemalloc.start()
    try:
        rc = main(["detect"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == EXIT_OK
    assert capsys.readouterr() == ("", "")
    # a last timestamp for each name would take about 7 MB
    assert peak < 1_000_000


def test_detect_drops_a_stale_line_as_analyze_does(tmp_path, monkeypatch, capsys):
    main(synth_args(tmp_path))
    lines = interleaved(tmp_path).splitlines()
    # a second, 50x larger readout stamped like LLC-loads' latest one
    where = 100
    last = [line for line in lines[:where] if line.endswith(",LLC-loads")][-1]
    ts, delta, event = last.split(",")
    lines.insert(where, f"{ts},{int(delta) * 50},{event}")
    stream = tmp_path / "stream.csv"
    stream.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report"
    main(["analyze", str(stream), "--out", str(out)])
    assert "1 malformed" in capsys.readouterr().err

    detect_on(stream.read_text(), monkeypatch)
    captured = capsys.readouterr()
    assert "1 malformed" in captured.err
    assert captured.out.splitlines() == (out / "alerts.csv").read_text().splitlines()[1:]


def test_detect_retains_bounded_memory(tmp_path, monkeypatch, capsys):
    import copy
    import tracemalloc

    events = ("--events", "LLC-loads,bus-cycles")
    main(["synth", "--seed", "5", "--duration", "500", "--attack-at", "250",
          "--out", str(tmp_path / "trace"), *events])
    out = tmp_path / "report"
    main(["analyze", *trace_files(tmp_path), "--out", str(out), *events])
    capsys.readouterr()
    assert detect_on(interleaved(tmp_path), monkeypatch, *events) == EXIT_ALERTS
    rows = capsys.readouterr().out.splitlines()
    assert rows == (out / "alerts.csv").read_text().splitlines()[1:]

    # fed as detect feeds it, a Detector holds as much after 10**5 ticks
    # with gaps and <not counted> readouts as after 10**4, where keeping one
    # score a tick would take 8 bytes a tick more
    config = DetectorConfig(counters=("LLC-loads", "bus-cycles"))

    def retained(n_ticks: int) -> int:
        rng = np.random.default_rng(n_ticks)
        detector = Detector(config)
        lines: list[str] = []
        last_ts: dict[str, float] = {}
        for tick in range(1, n_ticks + 1):
            if tick % 500 < 40:
                continue  # both counters pause
            for name, level in (("LLC-loads", 1123), ("bus-cycles", 23917)):
                delta = ("<not counted>" if rng.random() < 0.05
                         else round(rng.lognormal(math.log(level), 0.05)))
                lines.append(f"{tick * 0.1!r},{delta},{name}")
                if len(lines) == 300:  # one read of stdin
                    feed_read(detector, lines, last_ts)
                    detector.poll()
                    lines.clear()
        feed_read(detector, lines, last_ts)
        tracemalloc.start()
        try:
            held = copy.deepcopy(detector)  # everything it refers to
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            del held

    small, large = retained(10**4), retained(10**5)
    assert small < 64 * 2**10 and abs(large - small) < 4 * 2**10, (small, large)


def paced_stream() -> tuple[list[str], int]:
    """Lines, and how many of them are malformed."""
    # LLC-loads sends two lines in one tick every 37 ticks; LLC-load-misses
    # starts 400 ticks late, so its warm-up windows share batches with full
    # windows; every counter pauses for 30 ticks; bus-cycles repeats a
    # timestamp every 101 ticks (a stale line); one burst at tick 1200
    rng = np.random.default_rng(37)
    levels = {"LLC-loads": 1123, "bus-cycles": 23917, "LLC-load-misses": 261}
    lines = ["garbage"]
    for tick in range(1, 1501):
        if 800 <= tick < 830:
            continue
        for name, level in levels.items():
            if name == "LLC-load-misses" and tick <= 400:
                continue
            burst = 20 if tick in (1200, 1201) else 1
            value = round(rng.lognormal(math.log(level), 0.03) * burst)
            stamps = [tick * 0.1]
            if tick % 37 == 0 and name == "LLC-loads":
                stamps = [tick * 0.1 - 0.02, tick * 0.1 + 0.02]
            for ts in stamps:
                lines.append(f"{ts:.2f},{value},{name}")
            if tick % 101 == 0 and name == "bus-cycles":
                lines.append(f"{stamps[-1]:.2f},{value * 50},{name}")
    stale = [t for t in range(101, 1501, 101) if not 800 <= t < 830]
    return lines, 1 + len(stale)


def clock_only_stream() -> tuple[list[str], int]:
    """Lines, and how many of them are malformed."""
    # each tick's lines come in a shuffled order; cpu-cycles, which no
    # setting names, is read every tick, and every 7th tick its line is
    # stamped so late that it rounds to the next tick, ahead of the lines
    # that follow it; LLC-loads reports <not counted> every 13 ticks; one
    # burst at tick 900
    rng = np.random.default_rng(13)
    levels = {"LLC-loads": 1123, "bus-cycles": 23917, "LLC-load-misses": 261,
              "cpu-cycles": 5_000_000}
    names = list(levels)
    lines = ["garbage"]
    for tick in range(1, 1201):
        for i in rng.permutation(len(names)):
            name = names[i]
            burst = 20 if tick in (900, 901) and name != "cpu-cycles" else 1
            value = str(round(rng.lognormal(math.log(levels[name]), 0.03) * burst))
            ts = tick * 0.1
            if name == "cpu-cycles" and tick % 7 == 0:
                ts += 0.07
            if name == "LLC-loads" and tick % 13 == 0:
                value = "<not counted>"
            lines.append(f"{ts:.2f},{value},{name}")
    return lines, 1


# analyze sums paced_stream's two LLC-loads lines in one tick, where detect
# pushes each, so only clock_only_stream's rows match analyze's
@pytest.mark.parametrize("make_stream, matches_analyze",
                         [(paced_stream, False), (clock_only_stream, True)],
                         ids=["paced", "clock-only-lines"])
def test_detect_scores_each_tick_in_one_batch_as_pushes_would(
    make_stream, matches_analyze, tmp_path, monkeypatch, capsys
):
    lines, malformed = make_stream()
    expected, expected_malformed = replay_detect(lines)
    assert expected and expected_malformed == malformed
    if matches_analyze:
        path = tmp_path / "stream.csv"
        path.write_text("\n".join(lines) + "\n")
        main(["analyze", str(path), "--out", str(tmp_path)])
        capsys.readouterr()
        rows = (tmp_path / "alerts.csv").read_text().splitlines()[1:]
        assert [row for row, _ in expected] == rows

    read = 0

    def stream():
        nonlocal read
        for line in lines:
            read += 1
            yield line + "\n"

    class Recorder(io.StringIO):
        printed: list[tuple[str, int]] = []

        def write(self, text: str) -> int:
            # a read's rows come in one write, each ending in a line feed
            assert text.endswith("\n")
            self.printed.extend((row, read) for row in text.splitlines())
            return len(text)

    out = Recorder()
    monkeypatch.setattr("sys.stdin", LinePerRead(stream()))
    monkeypatch.setattr("sys.stdout", out)
    assert main(["detect"]) == EXIT_ALERTS
    # the same rows, each printed at the line that fired it, before the
    # next line is read
    assert out.printed == expected
    assert f"{expected_malformed} malformed" in capsys.readouterr().err


def test_detect_writes_each_reads_rows_at_once(monkeypatch):
    lines, _ = paced_stream()
    expected, _ = replay_detect(lines)
    data = "".join(line + "\n" for line in lines).encode()
    # more than one 8 KiB read, so polls with and without rows alternate
    assert len(data) > 8 * io.DEFAULT_BUFFER_SIZE

    polls_with_rows = 0
    poll = Detector.poll

    def counted(self):
        nonlocal polls_with_rows
        alerts = poll(self)
        polls_with_rows += bool(alerts)
        return alerts

    class Out(io.StringIO):
        writes: list[str] = []
        flushes = 0

        def write(self, text: str) -> int:
            self.writes.append(text)
            return len(text)

        def flush(self) -> None:
            Out.flushes += 1

    out = Out()
    monkeypatch.setattr(Detector, "poll", counted)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    monkeypatch.setattr("sys.stdout", out)
    assert main(["detect"]) == EXIT_ALERTS
    assert "".join(out.writes) == "".join(row + "\n" for row, _ in expected)
    assert 1 < polls_with_rows < len(expected)
    assert len(out.writes) == Out.flushes == polls_with_rows


@pytest.mark.parametrize("waiting", [True, False], ids=["continuous", "idle"])
def test_detect_holds_rows_back_at_most_a_block_of_lines(waiting, monkeypatch):
    """stdin read one line per read, with more input always waiting, or
    never: detect polls once BLOCK lines have come since its last poll, or
    when input pauses, so a row prints at most BLOCK lines after the line
    that completes it, or at that line, and the rows stay the same."""
    lines, _ = jittered_stream()
    # and again 70 s on, so rows fire on both sides of line BLOCK; every
    # read is taken as columns
    lines += [f"{float(ts) + 70:.1f},{rest}" for ts, rest in
              (line.split(",", 1) for line in lines)]
    expected, _ = replay_detect(lines)
    assert expected[0][1] < BLOCK < expected[-1][1]

    class OneLinePerRead:
        read = 0

        def read1(self, size: int) -> bytes:
            if self.read == len(lines):
                return b""
            self.read += 1
            return (lines[self.read - 1] + "\n").encode()

    class Stdin:
        buffer, encoding, errors = OneLinePerRead(), "utf-8", "strict"

        def fileno(self) -> int:
            return 0

    class Recorder(io.StringIO):
        printed: list[tuple[str, int]] = []

        def write(self, text: str) -> int:
            self.printed.extend((row, Stdin.buffer.read) for row in text.splitlines())
            return len(text)

    monkeypatch.setattr(select, "select", lambda r, w, x, timeout: (r if waiting else [], w, x))
    monkeypatch.setattr("sys.stdin", Stdin())
    monkeypatch.setattr("sys.stdout", Recorder())
    assert main(["detect"]) == EXIT_ALERTS
    printed = Recorder.printed
    assert [row for row, _ in printed] == [row for row, _ in expected]
    held_back = [at - fired for (_, at), (_, fired) in zip(printed, expected)]
    if waiting:
        assert 0 <= min(held_back) and 0 < max(held_back) < BLOCK, held_back
    else:
        assert set(held_back) == {0}


def test_detect_polls_reads_with_not_counted_readouts_once_a_block(monkeypatch):
    """stdin read two lines per read, a <not counted> readout and a counted
    one, with more input always waiting: no read is plain data lines, yet
    detect polls only once BLOCK lines have come since its last poll, and
    the rows stay the replay's."""
    readouts, _ = jittered_stream()
    reads = [
        (f"{float(line.split(',')[0]) - 0.04:.2f},<not counted>,{line.split(',')[2]}\n"
         f"{line}\n").encode()
        for line in readouts
    ]
    lines = b"".join(reads).decode().splitlines()
    expected, malformed = replay_detect(lines)
    assert expected and malformed == 0

    polls = 0
    poll = Detector.poll

    def counted(self):
        nonlocal polls
        polls += 1
        return poll(self)

    class TwoLinesPerRead:
        def read1(self, size: int) -> bytes:
            return reads.pop(0) if reads else b""

    class Stdin:
        buffer, encoding, errors = TwoLinesPerRead(), "utf-8", "strict"

        def fileno(self) -> int:
            return 0

    out = io.StringIO()
    monkeypatch.setattr(Detector, "poll", counted)
    monkeypatch.setattr(select, "select", lambda r, w, x, timeout: (r, w, x))
    monkeypatch.setattr("sys.stdin", Stdin())
    monkeypatch.setattr("sys.stdout", out)
    assert main(["detect"]) == EXIT_ALERTS
    assert out.getvalue().splitlines() == [row for row, _ in expected]
    assert polls <= len(lines) / BLOCK + 2, polls


def test_detect_reads_a_line_spanning_many_reads_in_linear_time(monkeypatch, capsys):
    # a 4 MiB line with no line feed, 1 KiB a read: joining the open line
    # anew at every read copies it once per read, 8 GiB in all, which took
    # 7 s on a 2-core x86 host where joining it once takes 0.1 s
    class Pieces:
        left = 4096

        def read1(self, size: int) -> bytes:
            if not self.left:
                return b""
            self.left -= 1
            return b"x" * 1024

    class Stdin:
        buffer, encoding, errors = Pieces(), "utf-8", "strict"

    monkeypatch.setattr("sys.stdin", Stdin())
    started = time.perf_counter()
    assert main(["detect"]) == EXIT_OK
    elapsed = time.perf_counter() - started
    assert capsys.readouterr() == ("", "warning: 1 malformed lines skipped\n")
    assert elapsed < 2.0, elapsed


@pytest.mark.parametrize("bad, error", [
    (b"1e30,5,LLC-loads\n", "error: timestamp 1e+30 is past the int64 ticks"),
    (b"\xff\n", "error: 'utf-8' codec can't decode byte 0xff"),
], ids=["tick-past-int64", "undecodable"])
def test_detect_ending_on_a_bad_read_prints_the_rows_of_every_read_before_it(
    bad, error, monkeypatch, capsys
):
    # with more input always waiting, rows are held back, but a read that
    # ends the stream prints them first, as polling after every read did
    lines, _ = paced_stream()
    at = 3000
    expected, _ = replay_detect(lines)
    reads = [(line + "\n").encode() for line in lines[:at]] + [bad]
    assert [row for row, fired in expected if fired <= at]

    class OneLinePerRead:
        def read1(self, size: int) -> bytes:
            return reads.pop(0) if reads else b""

    class Stdin:
        buffer, encoding, errors = OneLinePerRead(), "utf-8", "strict"

        def fileno(self) -> int:
            return 0

    monkeypatch.setattr(select, "select", lambda r, w, x, timeout: (r, w, x))
    monkeypatch.setattr("sys.stdin", Stdin())
    assert main(["detect"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out.splitlines() == [row for row, fired in expected if fired <= at]
    assert err.startswith(error)


def jittered_stream() -> tuple[list[str], int]:
    """Lines, and how many of them are malformed."""
    # the six default counters at their synth levels with 3% jitter, so a
    # 64-window stack fills in the middle of a tick; one burst at tick 500
    rng = np.random.default_rng(6)
    levels = {"iTLB-load-misses": 18, "dTLB-loads": 61452, "bus-cycles": 23917,
              "LLC-store-misses": 47, "LLC-loads": 1123, "LLC-load-misses": 261}
    lines = []
    for tick in range(1, 701):
        burst = 20 if tick in (500, 501) else 1
        for name, level in levels.items():
            value = round(rng.lognormal(math.log(level), 0.03) * burst)
            lines.append(f"{tick * 0.1:.1f},{value},{name}")
    return lines, 0


def test_detect_reads_perfs_own_capture_as_columns_after_its_header(monkeypatch, capsys):
    # the file `capture` writes: perf's header, then its -x, -I layout,
    # an empty unit field with the event fourth and run time and
    # percentage after; only the read with the header goes line by line
    import hpcwatch.trace as trace_module

    lines, _ = jittered_stream()
    expected, _ = replay_detect(lines)
    perf = ["# started on Sun Apr 19 01:23:16 2015", ""] + [
        f"{float(ts):16.9f},{delta},,{name},100104{i % 10},100.00,,"
        for i, (ts, delta, name) in enumerate(line.split(",") for line in lines)
    ]
    taken = []

    take_block = trace_module._take_block

    def spy(*args):
        block = take_block(*args)
        taken.append(block is not None)
        return block

    monkeypatch.setattr(trace_module, "_take_block", spy)
    data = "".join(line + "\n" for line in perf).encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert main(["detect"]) == EXIT_ALERTS
    out, err = capsys.readouterr()
    assert out.splitlines() == [row for row, _ in expected]
    assert err == ""
    assert taken[0] is False and all(taken[1:]) and len(taken) > 20, taken


def polled_rows(
    lines: list[str], config: DetectorConfig, every: int | None
) -> tuple[list[tuple[str, int]], list[tuple[int, float, int]]]:
    """Alert rows from a ``Detector`` fed as ``detect`` feeds it, a read of
    ``every`` lines at a time (of BLOCK lines if None) and polled after
    each read (never if None), each with the count of lines read when it
    was handed over, and its points."""
    from hpcwatch.report import alert_row

    points: tuple[list, list, list] = ([], [], [])
    rows: list[tuple[str, int]] = []
    detector = Detector(config, points=points)
    last_ts: dict[str, float] = {}
    for read in range(0, len(lines), every or BLOCK):
        feed_read(detector, lines[read:read + (every or BLOCK)], last_ts)
        if every is not None:
            at = min(read + every, len(lines))
            rows.extend((",".join(alert_row(alert)), at) for alert in detector.poll())
    rows.extend((",".join(alert_row(alert)), len(lines)) for alert in detector.finish())
    return rows, list(zip(*points))


@pytest.mark.parametrize("make_stream", [paced_stream, clock_only_stream, jittered_stream],
                         ids=["paced", "clock-only-lines", "jittered"])
def test_poll_cadence_changes_no_alert_and_no_point(make_stream):
    lines, _ = make_stream()
    expected, _ = replay_detect(lines)
    config = DetectorConfig()
    rows, points = polled_rows(lines, config, 1)
    assert [row for row, _ in rows] == [row for row, _ in expected]
    assert len(points) > 500
    for every in (7, 64, 1000, None):
        got, got_points = polled_rows(lines, config, every)
        assert ([row for row, _ in got], got_points) == ([row for row, _ in rows], points), every


def fuzz_stream(seed: int) -> tuple[list[str], DetectorConfig]:
    """A random config, and a stream of what breaks tick loops: readouts
    sharing a tick, ticks going back across counters, ``<not counted>``, a
    counter no setting names, malformed lines, gaps of up to 10**6 ticks,
    integer ties and bursts."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    names = ("LLC-loads", "bus-cycles", "LLC-store-misses")
    config = DetectorConfig(
        k=k, window=int(rng.integers(k + 2, 4 * k + 4)), coalesce=int(rng.choice([0, 3])),
        counters=names,
    )
    levels = {"LLC-loads": 1123, "bus-cycles": 23917, "LLC-store-misses": 47, "cpu-cycles": 10**6}
    late = {name: rng.uniform(0.0, 0.35) for name in levels}  # each counter's lines lag this much
    sigma = float(rng.choice([0.03, 0.3]))
    arrivals = []
    tick = 0
    for _ in range(int(rng.integers(30, 90))):
        tick += int(rng.integers(2, 10**6)) if rng.random() < 0.03 else 1
        for name, level in levels.items():
            if rng.random() < 0.1:
                continue  # no readout this tick
            burst = 20 if rng.random() < 0.02 else 1
            shared = rng.random() < 0.08  # two readouts in one tick
            for ts in (tick * 0.1 - 0.02, tick * 0.1 + 0.01) if shared else (tick * 0.1,):
                value = round(rng.lognormal(math.log(level), sigma) * burst)
                value = "<not counted>" if rng.random() < 0.05 else value
                arrivals.append((ts + late[name], f"{ts:.2f},{value},{name}"))
        if rng.random() < 0.02:
            arrivals.append((tick * 0.1, "garbage"))
    return [line for _, line in sorted(arrivals)], config


def test_detector_equals_the_reference_replay_on_fuzzed_streams():
    alerting = coalescing = 0
    for seed in range(100):
        lines, config = fuzz_stream(seed)
        points: list = []
        expected, _ = replay_detect(lines, config, points)
        for every in (1, 7, 97, None):
            rows, got_points = polled_rows(lines, config, every)
            assert got_points == points, (seed, every)
            if every == 1:
                assert rows == expected, seed  # each row at the line that fired it
            assert [row for row, _ in rows] == [row for row, _ in expected], (seed, every)
        alerting += bool(expected)
        coalescing += bool(expected) and config.coalesce > 0
    assert alerting > 50 and coalescing > 20, (alerting, coalescing)


def test_detect_reads_in_blocks_as_the_reference_replay_on_fuzzed_streams(monkeypatch, capsys):
    # stdin read in pieces of random size, with input waiting at random,
    # so reads are taken as columns or declined and polls come at any
    # cadence: the rows and the malformed count stay the replay's
    rng = np.random.default_rng(11)
    for seed in range(60):
        lines, config = fuzz_stream(seed)
        expected, malformed = replay_detect(lines, config)
        data = "".join(line + "\n" for line in lines).encode()

        class Pieces:
            at = 0

            def read1(self, size: int) -> bytes:
                piece = data[self.at:self.at + int(rng.integers(1, 400))]
                self.at += len(piece)
                return piece

        class Stdin:
            buffer, encoding, errors = Pieces(), "utf-8", "strict"

            def fileno(self) -> int:
                return 0

        monkeypatch.setattr(select, "select",
                            lambda r, w, x, timeout: (r if rng.random() < 0.7 else [], w, x))
        monkeypatch.setattr("sys.stdin", Stdin())
        flags = ["--k", str(config.k), "--window", str(config.window),
                 "--coalesce", str(config.coalesce), "--events", ",".join(config.counters)]
        assert main(["detect", *flags]) == (EXIT_ALERTS if expected else EXIT_OK)
        out, err = capsys.readouterr()
        assert out.splitlines() == [row for row, _ in expected], seed
        assert err == (f"warning: {malformed} malformed lines skipped\n" if malformed else ""), seed


def time_ordered_stream(seed: int) -> tuple[list[str], DetectorConfig]:
    """A random config, and a stream written in time order with no two
    readouts of a counter in one tick: gaps of up to 10**4 ticks,
    ``<not counted>``, a counter no setting names, stale repeated lines,
    malformed lines, integer ties and bursts."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    config = DetectorConfig(
        k=k, window=int(rng.integers(k + 2, 4 * k + 4)), coalesce=int(rng.choice([0, 3])),
        counters=("LLC-loads", "bus-cycles", "LLC-store-misses"),
    )
    levels = {"LLC-loads": 1123, "bus-cycles": 23917, "LLC-store-misses": 47, "cpu-cycles": 10**6}
    sigma = float(rng.choice([0.03, 0.3]))
    arrivals = []
    tick = 0
    for _ in range(int(rng.integers(30, 90))):
        tick += int(rng.integers(2, 10**4)) if rng.random() < 0.03 else 1
        for name, level in levels.items():
            if rng.random() < 0.1:
                continue  # no readout this tick
            burst = 20 if rng.random() < 0.02 else 1
            value = round(rng.lognormal(math.log(level), sigma) * burst)
            value = "<not counted>" if rng.random() < 0.05 else value
            ts = tick * 0.1 + rng.uniform(-0.03, 0.03)
            arrivals.append((ts, len(arrivals), f"{ts:.3f},{value},{name}"))
            if rng.random() < 0.03:  # stale: repeats its timestamp, 50 times as large
                stale = value if isinstance(value, str) else value * 50
                arrivals.append((ts, len(arrivals), f"{ts:.3f},{stale},{name}"))
        if rng.random() < 0.02:
            arrivals.append((tick * 0.1, len(arrivals), "garbage"))
    return [line for _, _, line in sorted(arrivals)], config


def test_detect_equals_analyze_on_time_ordered_streams():
    # detect's Detector, fed line by line and polled at any cadence, gives
    # analyze's points and alert rows whenever no counter shares a tick and
    # lines arrive in time order
    from hpcwatch.detector import run_offline
    from hpcwatch.report import alert_row
    from hpcwatch.trace import align, parse_stream

    alerting = 0
    for seed in range(100):
        lines, config = time_ordered_stream(seed)
        trace, _ = parse_stream(io.StringIO("".join(line + "\n" for line in lines)))
        series, alerts, _ = run_offline(align(trace, config.tick_interval), config)
        points = list(zip(*(column.tolist() for column in series)))
        expected = [",".join(alert_row(alert)) for alert in alerts]
        for every in (1, 7, 97, None):
            rows, got_points = polled_rows(lines, config, every)
            assert got_points == points, (seed, every)
            assert [row for row, _ in rows] == expected, (seed, every)
        alerting += bool(expected)
    assert alerting > 90, alerting


ROOT = Path(__file__).resolve().parent.parent


def detect_process(*flags: str, stdout=subprocess.PIPE) -> subprocess.Popen:
    """``hpcwatch detect`` reading an OS pipe."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.Popen(
        [sys.executable, "-m", "hpcwatch", "detect", *flags],
        stdin=subprocess.PIPE, stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


def first_row(proc: subprocess.Popen, timeout: float = 60.0) -> bytes:
    """The first row ``proc`` prints, failing if none comes in ``timeout``."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    assert ready, "no row printed before more input was written"
    return proc.stdout.readline()


def stop(proc: subprocess.Popen) -> None:
    """Kill ``proc`` if it still runs; leaving ``with`` closes its pipes
    and waits for it."""
    with proc:
        if proc.poll() is None:
            proc.kill()


def test_detect_joins_lines_split_across_pipe_reads(tmp_path):
    lines, malformed = paced_stream()
    expected, _ = replay_detect(lines)
    # CRLF endings, no final newline, and writes of uneven size that cut
    # lines anywhere
    data = "\r\n".join(lines).encode()
    rng = np.random.default_rng(3)
    with open(tmp_path / "out", "wb") as out:
        proc = detect_process(stdout=out)
        try:
            at = 0
            while at < len(data):
                size = int(rng.integers(1, 700))
                proc.stdin.write(data[at:at + size])
                proc.stdin.flush()
                at += size
            proc.stdin.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == EXIT_ALERTS
        finally:
            stop(proc)
    assert (tmp_path / "out").read_text().splitlines() == [row for row, _ in expected]
    assert f"{malformed} malformed" in err


def test_detect_prints_an_alert_before_reading_on():
    lines, _ = paced_stream()
    expected, _ = replay_detect(lines)
    row, fired_at = expected[0]
    proc = detect_process()
    try:
        proc.stdin.write("".join(line + "\n" for line in lines[:fired_at]).encode())
        proc.stdin.flush()
        first = first_row(proc).decode()
        proc.stdin.write("".join(line + "\n" for line in lines[fired_at:]).encode())
        proc.stdin.close()
        rest = proc.stdout.read().decode()
        assert proc.wait(timeout=60) == EXIT_ALERTS
    finally:
        stop(proc)
    assert first == row + "\n"
    assert (first + rest).splitlines() == [row for row, _ in expected]


def test_detect_decodes_a_character_split_across_pipe_reads(monkeypatch, capsys):
    name = "Ünïcödé-loads"
    rng = np.random.default_rng(8)
    lines = [
        f"{tick * 0.1:.1f},{round(rng.lognormal(math.log(1123), 0.03))},{name}"
        for tick in range(1, 401)
    ]
    assert detect_on("".join(line + "\n" for line in lines), monkeypatch,
                     "--events", name) == EXIT_ALERTS
    whole = capsys.readouterr().out.splitlines()

    # the line that fires the first alert
    detector = Detector(DetectorConfig(counters=(name,)))
    last_ts: dict[str, float] = {}
    for fired_at, line in enumerate(lines, start=1):
        feed_read(detector, [line], last_ts)
        if detector.poll():
            break
    # once that row is out, detect waits on its next read; the next line
    # arrives in two writes, cut inside the name's first character
    cut = lines[fired_at].encode().index("Ü".encode()) + 1
    data = "".join(line + "\n" for line in lines[fired_at:]).encode()
    proc = detect_process("--events", name)
    try:
        proc.stdin.write("".join(line + "\n" for line in lines[:fired_at]).encode())
        proc.stdin.flush()
        first = first_row(proc).decode()
        proc.stdin.write(data[:cut])
        proc.stdin.flush()
        time.sleep(0.5)
        proc.stdin.write(data[cut:])
        proc.stdin.close()
        rest = proc.stdout.read().decode()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_ALERTS
    finally:
        stop(proc)
    assert (first + rest).splitlines() == whole
    assert "malformed" not in err


# ---------------------------------------------------------------------------
# Exit codes and failure paths
# ---------------------------------------------------------------------------

def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == EXIT_ERROR
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing inputs
    assert exc.value.code == EXIT_ERROR


def test_detect_rejects_top_zero(monkeypatch, capsys):
    assert detect_on("", monkeypatch, "--top", "0") == EXIT_ERROR
    assert "top_n must be >= 1" in capsys.readouterr().err


def test_negative_coalesce_exits_one(tmp_path, monkeypatch, capsys):
    main(["synth", "--seed", "4", "--duration", "5", "--out", str(tmp_path / "trace")])
    out = tmp_path / "report"
    assert main(["analyze", *trace_files(tmp_path), "--out", str(out), "--coalesce", "-5"]) == EXIT_ERROR
    assert not out.exists()
    assert detect_on("", monkeypatch, "--coalesce", "-2") == EXIT_ERROR
    cfg = tmp_path / "cfg"
    cfg.write_text("coalesce=-1\n")
    assert detect_on("", monkeypatch, "--config", str(cfg)) == EXIT_ERROR
    assert capsys.readouterr().err.count("coalesce must be >= 0") == 3


def test_counter_named_twice_exits_one(tmp_path, monkeypatch, capsys):
    main(["synth", "--seed", "3", "--duration", "30", "--attack-at", "15",
          "--out", str(tmp_path / "trace")])
    out = tmp_path / "report"
    files = trace_files(tmp_path)
    twice = ["--events", "LLC-loads,LLC-loads"]
    assert main(["analyze", *files, "--out", str(out), *twice]) == EXIT_ERROR
    assert not out.exists()
    assert detect_on(interleaved(tmp_path), monkeypatch, *twice) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.count("counter LLC-loads is named twice") == 2
    assert captured.out.count("\n") == 1  # synth's line only: detect printed no row


@pytest.mark.parametrize("interval", ["0", "-0.1", "nan", "inf"])
def test_eval_rejects_an_interval_that_is_not_finite_and_positive(interval, tmp_path, capsys):
    # the sidecar names no interval, so the alert times would be read on the flag's
    truth = tmp_path / "truth.txt"
    truth.write_text("attack_tick=150\naffected=LLC-loads\n")
    alerts = tmp_path / "alerts.csv"
    alerts.write_text("eval_time,f,threshold,counters\n15,2,1.5,LLC-loads\n")
    assert main(["eval", str(alerts), str(truth), "--interval", interval]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: tick_interval must be (> 0|finite), got \S+\n", captured.err)


@pytest.mark.parametrize("interval", ["0", "-0.1", "nan", "inf"])
def test_eval_rejects_a_sidecar_interval_that_is_not_finite_and_positive(
    interval, tmp_path, capsys
):
    truth = tmp_path / "truth.txt"
    truth.write_text(f"tick_interval={interval}\nattack_tick=150\naffected=LLC-loads\n")
    alerts = tmp_path / "alerts.csv"
    alerts.write_text("eval_time,f,threshold,counters\n15,2,1.5,LLC-loads\n")
    assert main(["eval", str(alerts), str(truth)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {truth}: tick_interval must be finite and > 0, got {float(interval)}\n"
    )


def test_eval_rejects_an_alerts_row_of_the_wrong_length(tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    truth.write_text("tick_interval=0.1\nattack_tick=150\naffected=LLC-loads\n")
    alerts = tmp_path / "alerts.csv"
    alerts.write_text("eval_time,f,threshold,counters\n15,2,1.5,LLC-loads\n5.0,2.1\n")
    assert main(["eval", str(alerts), str(truth)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {alerts}:3: expected 4 fields, got 2\n"


@pytest.mark.parametrize("name, text, line, error", [
    ("alerts.csv", "eval_time,f,threshold,counters\n15,2,1.5,LLC-loads\nx,2,1.5,LLC-loads\n",
     3, "could not convert string to float: 'x'"),
    ("attack_factor.csv", "eval_time,f,contributing\n0.1,1,6\n0.2,1.5,1.5\n",
     3, "invalid literal for int() with base 10: '1.5'"),
    ("outliers.csv", "event,tick,time,value,lof,rank\nLLC-loads,3,0.3,7,x,1\n",
     2, "could not convert string to float: 'x'"),
    ("truth.txt", "# sidecar\ntick_interval=0.1\nattack_tick=1.5\n",
     3, "attack_tick: invalid literal for int() with base 10: '1.5'"),
    ("truth.txt", "tick_interval=abc\nattack_tick=150\n",
     1, "tick_interval: could not convert string to float: 'abc'"),
], ids=["alerts", "attack-factor", "outliers", "sidecar-attack-tick", "sidecar-interval"])
def test_a_value_that_does_not_convert_is_named_by_file_and_line(
    name, text, line, error, tmp_path, capsys
):
    files = {"alerts.csv": "eval_time,f,threshold,counters\n15,2,1.5,LLC-loads\n",
             "truth.txt": "tick_interval=0.1\nattack_tick=150\naffected=LLC-loads\n", name: text}
    for file, content in files.items():
        (tmp_path / file).write_text(content)
    want = f"{tmp_path / name}:{line}: {error}"
    readers = {"attack_factor.csv": read_attack_factor_csv, "outliers.csv": read_outliers_csv}
    if name in readers:
        with pytest.raises(ValueError) as raised:
            readers[name](str(tmp_path / name))
        assert str(raised.value) == want
    else:
        alerts, truth = str(tmp_path / "alerts.csv"), str(tmp_path / "truth.txt")
        assert main(["eval", alerts, truth]) == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: {want}\n")


def test_an_infinite_interval_exits_one(tmp_path, monkeypatch, capsys):
    main(["synth", "--seed", "4", "--duration", "30", "--attack-at", "15",
          "--out", str(tmp_path / "trace")])
    out = tmp_path / "report"
    infinite = ["--interval", "inf"]
    assert main(["analyze", *trace_files(tmp_path), "--out", str(out), *infinite]) == EXIT_ERROR
    assert not out.exists()
    assert detect_on(interleaved(tmp_path), monkeypatch, *infinite) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: tick_interval must be finite, got inf\n" * 2
    assert captured.out.count("\n") == 1  # synth's line only: detect printed no row


def test_a_config_analyze_rejects_fails_synth_too(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("k=1\n")
    out = tmp_path / "trace"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()
    assert capsys.readouterr().err == "error: k must be >= 2, got 1\n"


def test_synth_counter_named_twice_exits_one_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "trace"
    rc = main(["synth", "--events", "LLC-loads,LLC-loads", "--out", str(out)])
    assert rc == EXIT_ERROR
    assert not out.exists()
    assert "error: counter LLC-loads is named twice" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--magnitude", "inf"], "magnitude must be finite and >= 1, got inf"),
    (["--magnitude", "1e305"],
     "attack magnitude 1e+305 takes a delta of dTLB-loads past the float range"),
    (["--magnitude", "nan"], "magnitude must be finite and >= 1, got nan"),
    (["--attack-at", "nan"], "attack time must be finite and >= 0, got nan"),
], ids=["magnitude-inf", "magnitude-1e305", "magnitude-nan", "attack-at-nan"])
def test_synth_of_an_attack_past_the_float_range_exits_one_and_writes_nothing(
        flags, message, tmp_path, capsys):
    # 1e305 keeps iTLB-load-misses' boosted deltas finite but takes
    # dTLB-loads' past the float range
    out = tmp_path / "trace"
    rc = main(["synth", "--duration", "5", "--attack-at", "1", *flags, "--out", str(out)])
    assert rc == EXIT_ERROR
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_an_oversized_delta_is_one_malformed_line(tmp_path, monkeypatch, capsys):
    main(["synth", "--seed", "4", "--duration", "30", "--attack-at", "15",
          "--out", str(tmp_path / "trace")])
    files = trace_files(tmp_path)
    plain = tmp_path / "plain"
    assert main(["analyze", *files, "--out", str(plain)]) == EXIT_ALERTS
    capsys.readouterr()
    assert detect_on(interleaved(tmp_path), monkeypatch) == EXIT_ALERTS
    rows = capsys.readouterr().out

    big = f"0.05,{'9' * 400},LLC-loads\n"
    loads = next(f for f in files if f.endswith("/LLC-loads.csv"))
    with open(loads, encoding="utf-8") as fh:
        text = fh.read()
    with open(loads, "w", encoding="utf-8") as fh:
        fh.write(big + text)
    out = tmp_path / "report"
    assert main(["analyze", *files, "--out", str(out)]) == EXIT_ALERTS
    for name in ("alerts.csv", "attack_factor.csv", "outliers.csv"):
        assert (out / name).read_bytes() == (plain / name).read_bytes()
    assert "1 malformed input lines skipped" in capsys.readouterr().err
    assert detect_on(big + interleaved(tmp_path), monkeypatch) == EXIT_ALERTS
    captured = capsys.readouterr()
    assert captured.out == rows
    assert "1 malformed lines skipped" in captured.err


def test_analyze_counts_an_over_long_line_as_one_malformed_line(tmp_path, capsys):
    # a 16 MiB line between good lines: read whole, it peaked at 64 MiB
    # under tracemalloc and its reason quoted all of it
    import tracemalloc

    from hpcwatch.trace import parse_file

    main(synth_args(tmp_path))
    files = trace_files(tmp_path)
    plain = tmp_path / "plain"
    assert main(["analyze", *files, "--out", str(plain)]) == EXIT_ALERTS
    capsys.readouterr()
    loads = next(f for f in files if f.endswith("/LLC-loads.csv"))
    lines = Path(loads).read_text().splitlines(keepends=True)
    lines.insert(100, f"5.05,{'9' * 2**24},LLC-loads\n")
    Path(loads).write_text("".join(lines))
    tracemalloc.start()
    try:
        _, diags = parse_file(loads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diags.malformed == [(101, "line longer than 65536 characters")]
    assert peak < 2**20, peak
    out = tmp_path / "report"
    assert main(["analyze", *files, "--out", str(out)]) == EXIT_ALERTS
    assert capsys.readouterr().err == "warning: 1 malformed input lines skipped\n"
    for name in ("alerts.csv", "attack_factor.csv", "outliers.csv"):
        assert (out / name).read_bytes() == (plain / name).read_bytes(), name


def test_detect_equals_analyze_across_line_endings(tmp_path, monkeypatch, capsys):
    # lines ending in \n, \r\n and a lone \r in turn, read by detect in
    # pieces cut after every \r, so a read ends on a lone \r and a \r\n
    # spans two reads: both split every line as open() does
    lines, malformed = clock_only_stream()
    data = "".join(line + ("\n", "\r\n", "\r")[i % 3] for i, line in enumerate(lines)).encode()
    path = tmp_path / "stream.csv"
    path.write_bytes(data)
    out = tmp_path / "report"
    assert main(["analyze", str(path), "--out", str(out)]) == EXIT_ALERTS
    assert capsys.readouterr().err == f"warning: {malformed} malformed input lines skipped\n"
    rows = (out / "alerts.csv").read_text().splitlines()[1:]

    cuts = [0, *(i + 1 for i, byte in enumerate(data) if byte == ord("\r")), len(data)]
    pieces = [data[start:end] for start, end in zip(cuts, cuts[1:])]
    after = [(piece[-1:], next_piece[:1]) for piece, next_piece in zip(pieces, pieces[1:])]
    assert (b"\r", b"\n") in after and (b"\r", lines[2][:1].encode()) in after

    class Pieces:
        reads = iter(pieces)

        def read1(self, size: int) -> bytes:
            return next(self.reads, b"")

    class Stdin:
        buffer, encoding, errors = Pieces(), "utf-8", "strict"

    monkeypatch.setattr("sys.stdin", Stdin())
    assert main(["detect"]) == EXIT_ALERTS
    captured = capsys.readouterr()
    assert rows and captured.out.splitlines() == rows
    assert captured.err == f"warning: {malformed} malformed lines skipped\n"


@pytest.mark.parametrize("duration, interval, warned", [
    ("60", "0.05", True), ("60", "0.1", False), ("1", "0.1", False),
], ids=["ticks-apart", "tick-by-tick", "too-short-to-score"])
def test_analyze_warns_when_it_scores_no_tick(duration, interval, warned, tmp_path, capsys):
    # samples 0.1 s apart on 0.05 s ticks land two ticks apart, and no tick
    # is scored: the reports and the exit code stay as they are, and
    # analyze says so; a trace too short to score is not warned about
    main(["synth", "--seed", "3", "--duration", duration, "--attack-at", "0.5",
          "--out", str(tmp_path / "trace")])
    out = tmp_path / "report"
    rc = main(["analyze", *trace_files(tmp_path), "--interval", interval, "--out", str(out)])
    scored = read_attack_factor_csv(str(out / "attack_factor.csv"))
    err = capsys.readouterr().err
    if warned:
        assert (rc, scored) == (EXIT_OK, [])
        assert err == ("warning: no tick was scored, though a counter has at least 12 values "
                       "(is --interval 0.05 shorter than the sampling interval?)\n")
    else:
        assert err == ""
        assert bool(scored) == (duration == "60")


def hpcwatch_process(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a new interpreter that imports ``hpcwatch`` from src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=False)


def test_analyze_of_a_delta_near_the_float_limit_prints_no_numpy_warning(tmp_path):
    # two bursts of 10**308 among tied integers: the whole-series ranking's
    # reachability sums overflow to +inf, which the score conventions cover
    rng = np.random.default_rng(199)
    deltas = [str(int(v)) for v in rng.integers(1000, 1101, 199)]
    deltas[99:101] = ["1" + "0" * 308] * 2
    trace = tmp_path / "trace.csv"
    trace.write_text("".join(f"{(i + 1) / 10:.1f},{d},LLC-loads\n" for i, d in enumerate(deltas)))
    out = tmp_path / "report"
    proc = hpcwatch_process(
        "import sys\nfrom hpcwatch.cli import main\n"
        f"sys.exit(main(['analyze', {str(trace)!r}, '--out', {str(out)!r}]))"
    )
    assert proc.returncode in (EXIT_OK, EXIT_ALERTS), proc.stderr
    assert proc.stderr == ""
    assert len(read_outliers_csv(out / "outliers.csv")) == 5


def test_detect_and_analyze_plot_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma costs about 2 MB of peak RSS, and a bare np.unique imports
    # it; the synthesis module and subprocess serve only synth, eval and
    # capture.  Each command runs first once, so the modules either one
    # loads alone are seen
    main(synth_args(tmp_path))
    stream = tmp_path / "stream.csv"
    stream.write_text(interleaved(tmp_path))
    commands = {
        "analyze": f"main(['analyze', *{trace_files(tmp_path)!r}, "
                   f"'--out', {str(tmp_path / 'report')!r}, '--plot'])\n",
        "detect": f"sys.stdin = io.StringIO(open({str(stream)!r}).read())\n"
                  "main(['detect'])\n",
    }
    check = ("print('loaded:', *[m for m in ('numpy.ma', 'hpcwatch.synth', 'subprocess') "
             "if m in sys.modules])\n")
    for first, second in (("analyze", "detect"), ("detect", "analyze")):
        proc = hpcwatch_process(
            "import io, sys\nfrom hpcwatch.cli import main\n"
            + commands[first] + check + commands[second] + check
        )
        assert proc.returncode == 0, proc.stderr
        loaded = [line for line in proc.stdout.splitlines() if line.startswith("loaded:")]
        assert loaded == ["loaded:", "loaded:"], (first, loaded)
    assert list((tmp_path / "report").glob("*.svg"))


def as_perf_stat(line: str) -> str:
    """A three-field readout in the fields of ``perf stat -x, -I``: time,
    count, an empty unit, event, run time, percentage, and an empty metric
    value and unit; a count not counted becomes ``<not supported>``."""
    timestamp, delta, event = line.split(",")
    if delta == "<not counted>":
        delta = "<not supported>"
    return f"     {timestamp},{delta},,{event},100123456,100.00,,"


def test_perf_stat_layout_reads_as_the_three_field_one(tmp_path, monkeypatch, capsys):
    main(synth_args(tmp_path))
    files = trace_files(tmp_path)
    # one readout of one counter was not counted
    loads = next(f for f in files if f.endswith("/LLC-loads.csv"))
    lines = Path(loads).read_text().splitlines()
    lines[200] = lines[200].split(",")[0] + ",<not counted>,LLC-loads"
    Path(loads).write_text("".join(line + "\n" for line in lines))
    perf_dir = tmp_path / "perf"
    perf_dir.mkdir()
    for path in files:
        text = Path(path).read_text().splitlines()
        header = "# started on Mon Oct 19 10:56:05 2026\n\n"
        (perf_dir / Path(path).name).write_text(header + "".join(
            as_perf_stat(line) + "\n" for line in text))
    perf_files = [str(perf_dir / Path(path).name) for path in files]

    plain, perf = tmp_path / "plain", tmp_path / "perf-report"
    assert main(["analyze", *files, "--out", str(plain), "--plot"]) == EXIT_ALERTS
    assert main(["analyze", *perf_files, "--out", str(perf), "--plot"]) == EXIT_ALERTS
    assert sorted(os.listdir(perf)) == sorted(os.listdir(plain))
    for name in os.listdir(plain):
        assert (perf / name).read_bytes() == (plain / name).read_bytes(), name
    capsys.readouterr()

    stream = interleaved(tmp_path)
    assert detect_on(stream, monkeypatch) == EXIT_ALERTS
    rows = capsys.readouterr().out
    perf_stream = "".join(as_perf_stat(line) + "\n" for line in stream.splitlines())
    assert detect_on(perf_stream, monkeypatch) == EXIT_ALERTS
    captured = capsys.readouterr()
    assert captured.out == rows
    assert captured.err == ""


def test_a_timestamp_past_the_int64_ticks_exits_one(tmp_path, monkeypatch, capsys):
    text = "0.1,5,LLC-loads\n1e308,5,LLC-loads\n"
    assert detect_on(text, monkeypatch) == EXIT_ERROR
    path = tmp_path / "far.csv"
    path.write_text(text)
    assert main(["analyze", str(path), "--out", str(tmp_path / "report")]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: timestamp 1e+308 is past the int64 ticks",
                   "error: LLC-loads: timestamp 1e+308 is past the int64 ticks"]


def test_analyze_missing_file_exits_one(capsys):
    assert main(["analyze", "/nonexistent/trace.csv"]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_analyze_no_samples_exits_one(tmp_path, capsys):
    path = tmp_path / "only_comments.csv"
    path.write_text("# started on Sun Apr 19 01:23:16 2015\n\n")
    assert main(["analyze", str(path)]) == EXIT_ERROR
    assert "no samples" in capsys.readouterr().err


def test_capture_needs_target(capsys):
    assert main(["capture"]) == EXIT_ERROR
    assert "needs --pid or a command" in capsys.readouterr().err


def test_capture_rejects_a_zero_interval_before_launching(tmp_path, capsys):
    record = tmp_path / "launched"
    profiler = tmp_path / "profiler"
    profiler.write_text(f'#!/bin/sh\necho "$@" > {record}\n')
    profiler.chmod(0o755)
    capture = ["capture", "--profiler", str(profiler), "--out", str(tmp_path / "cap.csv")]
    assert main([*capture, "--interval", "0.05", "--", "true"]) == EXIT_OK
    assert " -I 50 " in record.read_text()
    record.unlink()
    assert main([*capture, "--interval", "0", "--", "true"]) == EXIT_ERROR
    assert not record.exists()
    assert capsys.readouterr().err == "error: tick_interval must be > 0, got 0.0\n"


@pytest.mark.parametrize("flags, message", [
    (["--pid", "1", "--duration", "nan"], "--duration must be finite and > 0, got nan"),
    (["--pid", "1", "--duration", "inf"], "--duration must be finite and > 0, got inf"),
    (["--pid", "1", "--duration", "0"], "--duration must be finite and > 0, got 0.0"),
    (["--pid", "1", "--duration", "-5"], "--duration must be finite and > 0, got -5.0"),
    (["--duration", "5", "--", "true"], "--duration needs --pid"),
], ids=["nan", "inf", "zero", "negative", "without-pid"])
def test_capture_rejects_a_bad_duration_before_launching(flags, message, tmp_path, capsys):
    record = tmp_path / "launched"
    profiler = tmp_path / "profiler"
    profiler.write_text(f'#!/bin/sh\necho "$@" > {record}\n')
    profiler.chmod(0o755)
    capture = ["capture", "--profiler", str(profiler), "--out", str(tmp_path / "cap.csv")]
    assert main([*capture, "--pid", "1", "--duration", "2.5"]) == EXIT_OK
    assert record.read_text().endswith(" -p 1 -- sleep 2.5\n")
    record.unlink()
    capsys.readouterr()
    assert main([*capture, *flags]) == EXIT_ERROR
    assert not record.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


def test_capture_missing_profiler_exits_two(tmp_path, capsys):
    rc = main(
        [
            "capture",
            "--profiler", str(tmp_path / "no-such-profiler"),
            "--out", str(tmp_path / "cap.csv"),
            "--", "true",
        ]
    )
    assert rc == EXIT_CAPTURE
    assert "profiler not found" in capsys.readouterr().err
