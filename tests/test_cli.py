"""Command-line behavior: settings resolution, subcommands, exit codes."""

import io
import math
import os

import numpy as np
import pytest

from hpcwatch.cli import (
    EXIT_ALERTS,
    EXIT_CAPTURE,
    EXIT_ERROR,
    EXIT_OK,
    _normalize_profiler_csv,
    _resolve_settings,
    build_parser,
    load_config_file,
    main,
)
from hpcwatch.detector import Detector, DetectorConfig
from hpcwatch.events import EventKind
from hpcwatch.report import read_alerts_csv, read_attack_factor_csv, read_outliers_csv


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
    settings = _resolve_settings(args)
    assert settings["k"] == 7  # flag wins
    assert settings["delta"] == 2.5  # file beats builtin
    assert settings["window"] == 50  # builtin
    assert settings["coalesce"] == 0


def test_env_var_names_the_config_file(tmp_path, monkeypatch):
    path = tmp_path / "cfg"
    path.write_text("window=64\n")
    monkeypatch.setenv("HPCWATCH_CONFIG", str(path))
    args = build_parser().parse_args(["detect"])
    assert _resolve_settings(args)["window"] == 64


def test_config_flag_beats_env_var(tmp_path, monkeypatch):
    env_cfg = tmp_path / "env_cfg"
    env_cfg.write_text("window=64\n")
    flag_cfg = tmp_path / "flag_cfg"
    flag_cfg.write_text("window=32\n")
    monkeypatch.setenv("HPCWATCH_CONFIG", str(env_cfg))
    args = build_parser().parse_args(["detect", "--config", str(flag_cfg)])
    assert _resolve_settings(args)["window"] == 32


def test_events_setting_splits_and_strips():
    args = build_parser().parse_args(["detect", "--events", "LLC-loads, bus-cycles"])
    assert _resolve_settings(args)["events"] == ["LLC-loads", "bus-cycles"]


def test_coalesce_keeps_first_of_each_run():
    def raised(coalesce: int) -> list[int]:
        # a score of 2.0 lands for each listed tick, so each one alerts
        detector = Detector(DetectorConfig(counters=(EventKind("LLC-loads"),)), coalesce)
        for tick in range(130):
            detector.advance(tick)
            if tick in (100, 101, 103, 120, 121):
                detector.land("LLC-loads", tick, 2.0)
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
    """A profiler prints ``<not supported>`` for an unsupported event once
    per interval, for as long as the capture runs: detect counts those
    lines and keeps none of them."""
    import tracemalloc

    n = 40_000

    def stream():
        for i in range(n):
            yield f"{i * 0.1 + 0.05:.3f},<not supported>,cpu-cycles\n"

    monkeypatch.setattr("sys.stdin", stream())
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


def test_detect_score_maps_stay_bounded(tmp_path, monkeypatch, capsys):
    from hpcwatch import detector
    from hpcwatch.detector import lag

    events = ("--events", "LLC-loads,bus-cycles")
    main(["synth", "--seed", "5", "--duration", "500", "--attack-at", "250",
          "--out", str(tmp_path / "trace"), *events])
    out = tmp_path / "report"
    main(["analyze", *trace_files(tmp_path), "--out", str(out), *events])
    capsys.readouterr()

    sizes: list[int] = []
    evaluate_tick = detector.evaluate_tick

    def spy(scores, tick, config):
        sizes.append(max(len(stream) for stream in scores.values()))
        return evaluate_tick(scores, tick, config)

    monkeypatch.setattr(detector, "evaluate_tick", spy)
    assert detect_on(interleaved(tmp_path), monkeypatch, *events) == EXIT_ALERTS
    assert len(sizes) >= 5000
    assert max(sizes) <= lag(DetectorConfig()) + 1
    rows = capsys.readouterr().out.splitlines()
    assert rows == (out / "alerts.csv").read_text().splitlines()[1:]


def replay_detect(lines: list[str]) -> tuple[list[tuple[str, int]], int]:
    """Alert rows, each with the count of lines read when it fired, and the
    malformed count, from one push and one evaluation at a time."""
    from hpcwatch.detector import (
        DetectorConfig, WindowState, evaluate_tick, prune_scores, push_sample,
        threshold_check,
    )
    from hpcwatch.report import alert_row
    from hpcwatch.trace import LineError, Sample, parse_line, tick_of

    config = DetectorConfig()
    wanted = {c.name for c in config.counters}
    states: dict[str, WindowState] = {}
    scores: dict[str, dict[int, float]] = {name: {} for name in wanted}
    last_ts: dict[str, float] = {}
    rows: list[tuple[str, int]] = []
    malformed = 0
    next_eval = None
    max_tick = -1
    read = 0

    def evaluate(tick: int) -> None:
        point = evaluate_tick(scores, tick, config)
        prune_scores(scores, tick, config)
        alert = threshold_check(point, config) if point is not None else None
        if alert is not None:
            rows.append((",".join(alert_row(alert)), read))

    for read, raw in enumerate(lines, start=1):
        parsed = parse_line(raw, read)
        if not isinstance(parsed, Sample):
            malformed += isinstance(parsed, LineError)
            continue
        name = parsed.event.name
        if name in last_ts and parsed.timestamp <= last_ts[name]:
            malformed += 1
            continue
        last_ts[name] = parsed.timestamp
        if name not in wanted or parsed.delta is None:
            continue  # align gives it no tick, so it does not move the clock
        tick = tick_of(parsed.timestamp, config.tick_interval)
        max_tick = max(max_tick, tick)
        next_eval = tick if next_eval is None else next_eval
        while next_eval < tick:
            evaluate(next_eval)
            next_eval += 1
        state = states.setdefault(name, WindowState(event=parsed.event, window=config.window))
        result = push_sample(state, parsed, config)
        if result is not None:
            scores[name][result[0]] = result[1]
    while next_eval is not None and next_eval <= max_tick:
        evaluate(next_eval)
        next_eval += 1
    return rows, malformed


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
            if text.strip():
                self.printed.append((text, read))
            return len(text)

    out = Recorder()
    monkeypatch.setattr("sys.stdin", stream())
    monkeypatch.setattr("sys.stdout", out)
    assert main(["detect"]) == EXIT_ALERTS
    # the same rows, each printed at the line that fired it, before the
    # next line is read
    assert out.printed == expected
    assert f"{expected_malformed} malformed" in capsys.readouterr().err


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


def test_normalize_profiler_csv_handles_both_layouts(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "# interval mode\n"
        "0.100,1621,branch-load-misses\n"
        "0.200,5149,,instructions,100.00,,\n"
        "short\n"
    )
    out = tmp_path / "norm.csv"
    _normalize_profiler_csv(str(raw), str(out))
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "0.100,1621,branch-load-misses"
    assert lines[2] == "0.200,5149,instructions"
    assert len(lines) == 3
