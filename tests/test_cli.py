"""Command-line behavior: settings resolution, subcommands, exit codes."""

import io
import os

import pytest

from hpcwatch.cli import (
    EXIT_ALERTS,
    EXIT_CAPTURE,
    EXIT_ERROR,
    EXIT_OK,
    _normalize_profiler_csv,
    _resolve_settings,
    build_parser,
    coalesce_alerts,
    load_config_file,
    main,
)
from hpcwatch.detector import Alert
from hpcwatch.report import read_alerts_csv, read_attack_factor_csv, read_outliers_csv


def make_alert(eval_tick: int) -> Alert:
    return Alert(
        eval_time=eval_tick * 0.1,
        eval_tick=eval_tick,
        f=2.0,
        threshold=1.5,
        per_counter_lof={"LLC-loads": 2.0},
    )


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
    alerts = [make_alert(t) for t in (100, 101, 103, 120, 121)]
    kept = coalesce_alerts(alerts, ticks=5)
    assert [a.eval_tick for a in kept] == [100, 120]
    assert coalesce_alerts(alerts, ticks=0) == list(alerts)


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
    from hpcwatch import cli
    from hpcwatch.detector import DetectorConfig, lag

    events = ("--events", "LLC-loads,bus-cycles")
    main(["synth", "--seed", "5", "--duration", "500", "--attack-at", "250",
          "--out", str(tmp_path / "trace"), *events])
    out = tmp_path / "report"
    main(["analyze", *trace_files(tmp_path), "--out", str(out), *events])
    capsys.readouterr()

    sizes: list[int] = []
    evaluate_tick = cli.evaluate_tick

    def spy(scores, tick, config):
        sizes.append(max(len(stream) for stream in scores.values()))
        return evaluate_tick(scores, tick, config)

    monkeypatch.setattr(cli, "evaluate_tick", spy)
    assert detect_on(interleaved(tmp_path), monkeypatch, *events) == EXIT_ALERTS
    assert len(sizes) >= 5000
    assert max(sizes) <= lag(DetectorConfig()) + 1
    rows = capsys.readouterr().out.splitlines()
    assert rows == (out / "alerts.csv").read_text().splitlines()[1:]


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
