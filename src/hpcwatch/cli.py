"""Command-line surface.

Subcommands: analyze (offline report over trace files), detect (streaming
alerts from stdin), synth (seeded trace generation), eval (score alerts
against ground truth), capture (wrap an external interval profiler).

detect reads stdin one read at a time: the lines of each read are pushed
into the ``Detector``, which is polled once, and the rows it returns are
written and flushed as one block before the next read.

Exit codes: 0 clean, 3 one or more alerts raised, 1 usage or data error,
2 capture environment error.  Code 3 keeps "detection" distinguishable from
"failure" for scripting.

analyze and detect load only the modules they run: synth and eval import
the synthesis module, and capture imports subprocess, when they are called.

Settings resolve in one order: built-in defaults, then a key=value config
file (--config flag or HPCWATCH_CONFIG env var), then explicit flags.
"""

from __future__ import annotations

import argparse
import codecs
import io
import os
import sys
from typing import Iterator, Sequence

from .detector import (
    Alert,
    Detector,
    DetectorConfig,
    evaluate_tick,  # unused here; bench/tracing.py hooks it by this name
    push_sample,  # unused here; bench/tracing.py hooks it by this name
    run_offline,
    threshold_check,  # unused here; bench/tracing.py hooks it by this name
)
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
from .trace import (
    AlignedTrace,
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

# the built-in settings, which a config file and then the flags override
_DEFAULTS = DetectorConfig()


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
            try:
                return cast(file_cfg[name])
            except ValueError as exc:
                raise ValueError(f"{path}: setting {name!r}: {exc}") from None
        return builtin

    events = pick("events", ",".join(_DEFAULTS.counters), str)
    return {
        "k": pick("k", _DEFAULTS.k, int),
        "delta": pick("delta", _DEFAULTS.delta_threshold, float),
        "window": pick("window", _DEFAULTS.window, int),
        "interval": pick("interval", _DEFAULTS.tick_interval, float),
        "events": [e.strip() for e in events.split(",") if e.strip()],
        "top": pick("top", _DEFAULTS.top_n, int),
        "coalesce": pick("coalesce", _DEFAULTS.coalesce, int),
    }


def _detector_config(settings: dict) -> DetectorConfig:
    return DetectorConfig(
        k=settings["k"],
        delta_threshold=settings["delta"],
        window=settings["window"],
        tick_interval=settings["interval"],
        counters=tuple(settings["events"]),
        top_n=settings["top"],
        coalesce=settings["coalesce"],
    )


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _align_inputs(paths: Sequence[str], tick_interval: float) -> tuple[AlignedTrace, int]:
    """Aligned inputs and malformed-line count; the parsed samples die here."""
    traces: list[Trace] = []
    malformed = 0
    for path in paths:
        trace, diags = parse_file(path)
        malformed += len(diags.malformed)
        traces.append(trace)
    if not any(trace.timestamps for trace in traces):
        raise ValueError("no samples in input files")
    return align(merge_traces(traces), tick_interval), malformed


def cmd_analyze(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    config = _detector_config(settings)

    aligned, malformed = _align_inputs(args.inputs, config.tick_interval)
    series, alerts, ranked = run_offline(aligned, config)

    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    write_attack_factor_csv(
        os.path.join(outdir, "attack_factor.csv"), series, config.tick_interval
    )
    write_alerts_csv(os.path.join(outdir, "alerts.csv"), alerts)

    # one ranking per counter: its rows in outliers.csv and the circles of
    # its chart are the same results, on the same aligned values
    rows: list[OutlierRow] = []
    for name, top in ranked.items():
        present = aligned.ticks[name]
        times = present * config.tick_interval
        values = aligned.values[name]
        for rank, (index, _, lof) in enumerate(top, start=1):
            rows.append(OutlierRow(
                event=name, tick=int(present[index]), time=float(times[index]),
                value=float(values[index]), lof=lof, rank=rank,
            ))
        if args.plot and top:
            emit_plot(name, times, values, top, os.path.join(outdir, f"{name}.svg"), args.mark)
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
    detector = Detector(config)
    diags = ParseDiagnostics()
    alert_count = 0
    malformed = 0

    def emit(alerts: Sequence[Alert]) -> None:
        # one write per read: an unbuffered stdout makes a syscall of each
        nonlocal alert_count
        if not alerts:
            return
        alert_count += len(alerts)
        sys.stdout.write("".join(",".join(alert_row(alert)) + "\n" for alert in alerts))
        sys.stdout.flush()

    def lines() -> Iterator[str]:
        # a block's rows print once all its lines are pushed, before the
        # next read
        for block in _read_blocks(args.stream):
            yield from block
            emit(detector.poll())

    # errors are counted, not kept: a live stream may be malformed for days
    interval = config.tick_interval
    for item in read_samples(lines(), diags):
        if type(item) is LineError:
            malformed += 1
        else:
            detector.push(item.event, tick_of(item.timestamp, interval), item.delta)
    emit(detector.finish())

    if malformed:
        print(f"warning: {malformed} malformed lines skipped", file=sys.stderr)
    return EXIT_ALERTS if alert_count else EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import AttackSpec, SynthConfig, generate_trace, write_ground_truth

    settings = _resolve_settings(args)
    attack = None
    if args.attack_at is not None:
        attack = AttackSpec(at=args.attack_at, magnitude=args.magnitude, width=args.width)
    config = SynthConfig(
        seed=args.seed,
        duration=args.duration,
        tick_interval=settings["interval"],
        counters=tuple(settings["events"]),
        attack=attack,
    )
    trace, truth = generate_trace(config)

    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    for name in trace.timestamps:
        write_trace(trace, os.path.join(outdir, f"{name}.csv"), events=[name])
    write_ground_truth(
        os.path.join(outdir, "ground_truth.txt"), truth, config.tick_interval
    )
    print(f"{len(trace.timestamps)} trace files written to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    from .synth import evaluate, read_ground_truth

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
    import subprocess

    settings = _resolve_settings(args)
    if args.pid is None and not args.command:
        raise ValueError("capture needs --pid or a command after --")

    interval_ms = max(1, int(round(settings["interval"] * 1000)))
    cmd = [
        args.profiler,
        "stat",
        "-o", args.out,
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

    print(f"trace written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_detector_flags(p: argparse.ArgumentParser) -> None:
    d = _DEFAULTS
    p.add_argument("--k", type=int, help=f"neighbor count (default {d.k})")
    p.add_argument("--delta", type=float,
                   help=f"alert threshold on f (default {d.delta_threshold})")
    p.add_argument("--window", type=int, help=f"samples per counter window (default {d.window})")
    p.add_argument("--top", type=int, help=f"outliers to mark per counter (default {d.top_n})")
    p.add_argument("--coalesce", type=int,
                   help=f"suppress alerts within N ticks of the last one (default {d.coalesce})")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--interval", type=float,
                   help=f"tick interval in seconds (default {_DEFAULTS.tick_interval})")
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
