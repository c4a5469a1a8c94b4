"""Command-line surface.

Subcommands: analyze (offline report over trace files), detect (streaming
alerts from stdin), synth (seeded trace generation), eval (score alerts
against ground truth), capture (wrap an external interval profiler).

detect reads stdin one read at a time: the lines of each read are pushed
into the ``Detector``, which is polled once, and the rows it returns are
printed and flushed together before the next read.

Exit codes: 0 clean, 3 one or more alerts raised, 1 usage or data error,
2 capture environment error.  Code 3 keeps "detection" distinguishable from
"failure" for scripting.

Settings resolve in one order: built-in defaults, then a key=value config
file (--config flag or HPCWATCH_CONFIG env var), then explicit flags.
"""

from __future__ import annotations

import argparse
import codecs
import io
import os
import subprocess
import sys
from typing import Iterator, Sequence

import numpy as np

from .detector import (
    Alert,
    Detector,
    DetectorConfig,
    evaluate_tick,  # unused here; bench/tracing.py hooks it by this name
    push_sample,  # unused here; bench/tracing.py hooks it by this name
    run_offline,
    threshold_check,  # unused here; bench/tracing.py hooks it by this name
)
from .events import CANDIDATE_EVENTS, EventKind
from .lof import lof_all  # unused here; bench/tracing.py hooks it by this name
from .report import (
    OutlierRow,
    alert_row,
    read_alerts_csv,
    write_alerts_csv,
    write_attack_factor_csv,
    write_outliers_csv,
)
from .svgplot import emit_plot
from .synth import (
    AttackSpec,
    SynthConfig,
    evaluate,
    generate_trace,
    read_ground_truth,
    write_ground_truth,
)
from .trace import (
    LineError,
    ParseDiagnostics,
    Trace,
    align,
    merge_traces,
    parse_file,
    parse_line,  # unused here; bench/tracing.py hooks it by this name
    read_samples,
    tick_of,
    write_trace,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CAPTURE = 2
EXIT_ALERTS = 3

_CONFIG_KEYS = ("k", "delta", "window", "interval", "events", "top", "coalesce")


class _Parser(argparse.ArgumentParser):
    # usage errors are exit 1; argparse's default of 2 is reserved for
    # capture environment failures
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_ERROR)


# ---------------------------------------------------------------------------
# Settings resolution
# ---------------------------------------------------------------------------

def load_config_file(path: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{line_no}: unknown setting {key!r}")
            out[key] = value.strip()
    return out


def _resolve_settings(args: argparse.Namespace) -> dict:
    path = getattr(args, "config", None) or os.environ.get("HPCWATCH_CONFIG")
    file_cfg = load_config_file(path) if path else {}

    def pick(name: str, builtin, cast):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_cfg:
            return cast(file_cfg[name])
        return builtin

    events = pick("events", ",".join(CANDIDATE_EVENTS), str)
    return {
        "k": pick("k", 5, int),
        "delta": pick("delta", 1.5, float),
        "window": pick("window", 50, int),
        "interval": pick("interval", 0.100, float),
        "events": [e.strip() for e in events.split(",") if e.strip()],
        "top": pick("top", 5, int),
        "coalesce": pick("coalesce", 0, int),
    }


def _detector_config(settings: dict) -> DetectorConfig:
    return DetectorConfig(
        k=settings["k"],
        delta_threshold=settings["delta"],
        window=settings["window"],
        tick_interval=settings["interval"],
        counters=tuple(EventKind(n) for n in settings["events"]),
        top_n=settings["top"],
    )


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    config = _detector_config(settings)

    traces: list[Trace] = []
    malformed = 0
    total_samples = 0
    for path in args.inputs:
        trace, diags = parse_file(path)
        malformed += len(diags.malformed)
        total_samples += diags.samples_parsed
        traces.append(trace)
    if total_samples == 0:
        raise ValueError("no samples in input files")

    aligned = align(merge_traces(traces), config.tick_interval)
    points, alerts, ranked = run_offline(aligned, config, settings["coalesce"])

    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    write_attack_factor_csv(
        os.path.join(outdir, "attack_factor.csv"), points, config.tick_interval
    )
    write_alerts_csv(os.path.join(outdir, "alerts.csv"), alerts)

    # one ranking per counter: its rows in outliers.csv and the circles of
    # its chart are the same results, on the same aligned column
    rows: list[OutlierRow] = []
    for name, top in ranked.items():
        col = aligned.values[name]
        present = np.flatnonzero(~np.isnan(col))
        times = (present * config.tick_interval).tolist()
        values = col[present].tolist()
        for rank, result in enumerate(top, start=1):
            rows.append(
                OutlierRow(
                    event=name,
                    tick=int(present[result.index]),
                    time=times[result.index],
                    value=values[result.index],
                    lof=result.lof,
                    rank=rank,
                )
            )
        if args.plot and top:
            emit_plot(
                name, times, values, top, os.path.join(outdir, f"{name}.svg"), args.mark
            )
    write_outliers_csv(os.path.join(outdir, "outliers.csv"), rows)

    if malformed:
        print(f"warning: {malformed} malformed input lines skipped", file=sys.stderr)
    print(f"ticks={aligned.n_ticks} counters={len(ranked)} alerts={len(alerts)}")
    print(f"reports written to {outdir}")
    return EXIT_ALERTS if alerts else EXIT_OK


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def _read_blocks(stream) -> Iterator[list[str]]:
    """The lines of ``stream``, one list per read.

    A text stream over a binary buffer is read as its text layer reads it,
    at most ``io.DEFAULT_BUFFER_SIZE`` bytes per ``read1``, but the lines
    each read completes come out together, without their line feeds.  They
    are decoded with the stream's own encoding and errors and split only at
    line feeds; a line that spans two reads is joined, and a last line with
    no line feed still counts.  Any other line source gives one list per
    line.
    """
    raw = getattr(stream, "buffer", None)
    if not hasattr(raw, "read1"):
        for line in stream:
            yield [line]
        return
    decoder = codecs.getincrementaldecoder(stream.encoding)(stream.errors)
    tail = ""
    while data := raw.read1(io.DEFAULT_BUFFER_SIZE):
        lines = (tail + decoder.decode(data)).split("\n")
        tail = lines.pop()
        yield lines
    tail += decoder.decode(b"", final=True)
    if tail:
        yield [tail]


def cmd_detect(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    config = _detector_config(settings)
    detector = Detector(config, settings["coalesce"])
    diags = ParseDiagnostics()
    alert_count = 0
    malformed = 0

    def emit(alerts: Sequence[Alert]) -> None:
        nonlocal alert_count
        if not alerts:
            return
        alert_count += len(alerts)
        for alert in alerts:
            print(",".join(alert_row(alert)))
        sys.stdout.flush()

    def lines() -> Iterator[str]:
        # a block's rows print once all its lines are pushed, before the
        # next read
        for block in _read_blocks(args.stream):
            yield from block
            emit(detector.poll())

    # errors are counted, not kept: a live stream may be malformed for days
    for item in read_samples(lines(), diags):
        if isinstance(item, LineError):
            malformed += 1
            continue
        tick = tick_of(item.timestamp, config.tick_interval)
        detector.push(item.event.name, tick, item.delta)
    emit(detector.finish())

    if malformed:
        print(f"warning: {malformed} malformed lines skipped", file=sys.stderr)
    return EXIT_ALERTS if alert_count else EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    attack = None
    if args.attack_at is not None:
        attack = AttackSpec(at=args.attack_at, magnitude=args.magnitude, width=args.width)
    config = SynthConfig(
        seed=args.seed,
        duration=args.duration,
        tick_interval=settings["interval"],
        counters=tuple(EventKind(n) for n in settings["events"]),
        attack=attack,
    )
    trace, truth = generate_trace(config)

    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    for name in trace.series:
        write_trace(trace, os.path.join(outdir, f"{name}.csv"), events=[name])
    write_ground_truth(
        os.path.join(outdir, "ground_truth.txt"), truth, config.tick_interval
    )
    print(f"{len(trace.series)} trace files written to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    truth, sidecar_interval = read_ground_truth(args.truth)
    interval = sidecar_interval if sidecar_interval is not None else settings["interval"]
    alerts = read_alerts_csv(args.alerts, interval)
    metrics = evaluate(alerts, truth, args.tolerance)
    print(f"TP={metrics.true_positives}")
    print(f"FP={metrics.false_positives}")
    print(f"FN={metrics.false_negatives}")
    if metrics.detection_latency is not None:
        print(f"latency={metrics.detection_latency}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------

def cmd_capture(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    if args.pid is None and not args.command:
        raise ValueError("capture needs --pid or a command after --")

    interval_ms = max(1, int(round(settings["interval"] * 1000)))
    raw_path = args.out + ".raw"
    cmd = [
        args.profiler,
        "stat",
        "-o", raw_path,
        "-x", ",",
        "-I", str(interval_ms),
        "-e", ",".join(settings["events"]),
    ]
    if args.pid is not None:
        cmd += ["-p", str(args.pid)]
        if args.duration is not None:
            cmd += ["--", "sleep", str(args.duration)]
    else:
        cmd += ["--"] + args.command

    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except FileNotFoundError:
        print(f"profiler not found: {args.profiler}", file=sys.stderr)
        return EXIT_CAPTURE
    except PermissionError:
        print(f"profiler not executable: {args.profiler}", file=sys.stderr)
        return EXIT_CAPTURE

    if proc.returncode != 0:
        stderr = proc.stderr.strip()
        if "permission" in stderr.lower() or "access" in stderr.lower():
            reason = "counter access denied"
        elif "no such process" in stderr.lower() or "attach" in stderr.lower():
            reason = "target not found"
        else:
            reason = "profiler failed"
        print(f"{reason}: {stderr or f'exit code {proc.returncode}'}", file=sys.stderr)
        return EXIT_CAPTURE

    _normalize_profiler_csv(raw_path, args.out)
    os.remove(raw_path)
    print(f"trace written to {args.out}")
    return EXIT_OK


def _normalize_profiler_csv(raw_path: str, out_path: str) -> None:
    """Rewrite profiler interval CSV into the 3-field ingest shape.

    Handles both the bare (time,count,event) layout and the newer one with
    a unit column after the count.
    """
    with open(raw_path, "r", encoding="utf-8") as src, open(
        out_path, "w", encoding="utf-8"
    ) as dst:
        for raw in src:
            line = raw.strip()
            if not line or line.startswith("#"):
                dst.write(raw)
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) < 3:
                continue
            event = fields[3] if len(fields) >= 4 and fields[2] == "" else fields[2]
            dst.write(f"{fields[0]},{fields[1]},{event}\n")


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_detector_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="neighbor count (default 5)")
    p.add_argument("--delta", type=float, help="alert threshold on f (default 1.5)")
    p.add_argument("--window", type=int, help="samples per counter window (default 50)")
    p.add_argument("--top", type=int, help="outliers to mark per counter (default 5)")
    p.add_argument("--coalesce", type=int,
                   help="suppress alerts within N ticks of the last one (default 0)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--interval", type=float, help="tick interval in seconds (default 0.1)")
    p.add_argument("--events", type=str, help="comma-separated counter names")
    p.add_argument("--config", type=str, help="key=value settings file")


def build_parser() -> _Parser:
    parser = _Parser(prog="hpcwatch", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="offline report over trace files")
    p.add_argument("inputs", nargs="+", help="trace files in ingest format")
    p.add_argument("--out", type=str, help="report directory (default .)")
    p.add_argument("--plot", action="store_true", help="emit per-counter SVG charts")
    p.add_argument("--mark", type=float, help="vertical marker time for plots, seconds")
    _add_detector_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("detect", help="streaming alerts from stdin")
    _add_detector_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_detect, stream=sys.stdin)

    p = sub.add_parser("synth", help="generate a seeded synthetic trace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=60.0, help="seconds (default 60)")
    p.add_argument("--attack-at", type=float, help="attack injection time, seconds")
    p.add_argument("--magnitude", type=float, default=20.0,
                   help="attack delta multiplier (default 20)")
    p.add_argument("--width", type=int, default=2, help="attack width in ticks (default 2)")
    p.add_argument("--out", type=str, help="output directory (default .)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score an alerts CSV against ground truth")
    p.add_argument("alerts", help="alerts CSV from analyze/detect")
    p.add_argument("truth", help="ground-truth sidecar from synth")
    p.add_argument("--tolerance", type=int, default=5,
                   help="ticks around the attack that count as detection (default 5)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("capture", help="wrap an external interval profiler")
    p.add_argument("--pid", type=int, help="attach to a process")
    p.add_argument("command", nargs="*", help="command to profile (after --)")
    p.add_argument("--duration", type=float, help="seconds to capture with --pid")
    p.add_argument("--out", type=str, default="capture.csv", help="output trace file")
    p.add_argument("--profiler", type=str, default="perf",
                   help="interval profiler executable (default perf)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_capture)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
