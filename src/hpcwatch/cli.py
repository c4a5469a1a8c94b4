"""Command-line surface.

Subcommands: analyze (offline report over trace files), detect (streaming
alerts from stdin), synth (seeded trace generation), eval (score alerts
against ground truth), capture (wrap an external interval profiler).

analyze and detect read every input through ``trace.parse_blocks``, which
splits each read into lines as ``open()`` does and parses them into
columns.  detect hands each read's columns to the ``Detector``.  It polls
the detector, and writes and flushes the rows it returns as one block,
once stdin has nothing more waiting or once BLOCK lines have come since
the last poll; a stream that ``select`` cannot watch is polled after every
read.  A live ``perf stat -I`` pipe is idle after each interval, so its
rows print as soon as that read is processed; a backlog, such as a file
replay, is scored BLOCK lines at a time.

Exit codes: 0 clean, 3 one or more alerts raised, 1 usage or data error,
2 capture environment error.  Code 3 keeps "detection" distinguishable from
"failure" for scripting.

analyze and detect load only the modules they run: synth and eval import
the synthesis module, and capture imports subprocess, when they are called.

Every setting is a ``DetectorConfig`` field, listed once in ``_SETTINGS``
with its flag and config-file key.  analyze and detect take every setting
as a flag; synth, eval and capture take --interval and --events.  Each
subcommand resolves all of them in one order, built-in defaults, then a
key=value config file (--config flag or HPCWATCH_CONFIG env var), then
explicit flags, and ``DetectorConfig`` validates the result before any
input is read or any process is launched.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Sequence
from urllib.parse import quote

from .detector import (
    BLOCK,
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
    ParseDiagnostics,
    Trace,
    align,
    merge_traces,
    parse_blocks,
    parse_file,
    parse_line,  # unused here; bench/tracing.py hooks it by this name
    write_trace,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CAPTURE = 2
EXIT_ALERTS = 3

# the built-in settings, which a config file and then the flags override
_DEFAULTS = DetectorConfig()


def _names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


# Every setting once, by its flag and config-file key: its DetectorConfig
# field, the conversion of its text, its help, and whether synth, eval and
# capture take it too (analyze and detect take them all).
_SETTINGS: dict[str, tuple[str, Callable[[str], object], str, bool]] = {
    "k": ("k", int, f"neighbor count (default {_DEFAULTS.k})", False),
    "delta": ("delta_threshold", float,
              f"alert threshold on f (default {_DEFAULTS.delta_threshold})", False),
    "window": ("window", int, f"samples per counter window (default {_DEFAULTS.window})", False),
    "top": ("top_n", int, f"outliers to mark per counter (default {_DEFAULTS.top_n})", False),
    "coalesce": ("coalesce", int,
                 f"suppress alerts within N ticks of the last one (default {_DEFAULTS.coalesce})",
                 False),
    "interval": ("tick_interval", float,
                 f"tick interval in seconds (default {_DEFAULTS.tick_interval})", True),
    "events": ("counters", _names, "comma-separated counter names", True),
}


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
            if key not in _SETTINGS:
                raise ValueError(f"{path}:{line_no}: unknown setting {key!r}")
            out[key] = value.strip()
    return out


def _resolve_config(args: argparse.Namespace) -> DetectorConfig:
    """Each setting from its flag, else the config file (--config, else
    HPCWATCH_CONFIG), else the built-in default, validated together."""
    path = getattr(args, "config", None) or os.environ.get("HPCWATCH_CONFIG")
    file_cfg = load_config_file(path) if path else {}
    resolved = {}
    for key, (field, convert, _, _) in _SETTINGS.items():
        value = getattr(args, key, None)
        if value is None and key in file_cfg:
            try:
                value = convert(file_cfg[key])
            except ValueError as exc:
                raise ValueError(f"{path}: setting {key!r}: {exc}") from None
        if value is not None:
            resolved[field] = value
    return DetectorConfig(**resolved)


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


def _chart_file(outdir: str, name: str) -> str:
    """The path of a counter's chart in ``outdir``.  perf names events such
    as ``cpu/cycles/``, so every character outside [A-Za-z0-9._-] is
    percent-encoded, and the chart lands in the report directory whatever
    the name holds.  A file name past the directory's name limit is cut at
    a %XX boundary and ends in ``~`` and 16 hex digits of the name's sha256;
    ``~`` itself is always encoded, so a cut name never equals an uncut one.
    """
    stem = quote(name, safe="").replace("~", "%7E")
    try:
        limit = os.pathconf(outdir, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):
        limit = 255
    if len(stem) + len(".svg") > limit:
        import hashlib

        digest = hashlib.sha256(name.encode()).hexdigest()[:16]
        stem = stem[:limit - len(".svg") - len(digest) - 1]
        # a "%" among the last two characters starts an escape the cut split
        escape = stem.find("%", len(stem) - 2)
        if escape >= 0:
            stem = stem[:escape]
        stem += "~" + digest
    return os.path.join(outdir, stem + ".svg")


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _resolve_config(args)

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
    write_outliers_csv(os.path.join(outdir, "outliers.csv"), rows)
    if args.plot:
        for name, top in ranked.items():
            if top:
                times = aligned.ticks[name] * config.tick_interval
                emit_plot(name, times, aligned.values[name], top, _chart_file(outdir, name),
                          args.mark)

    if malformed:
        print(f"warning: {malformed} malformed input lines skipped", file=sys.stderr)
    if not series[0].shape[0] and any(
        aligned.values[name].shape[0] >= config.warmup for name in ranked
    ):
        print(f"warning: no tick was scored, though a counter has at least "
              f"{config.warmup} values (is --interval {config.tick_interval} shorter than "
              f"the sampling interval?)", file=sys.stderr)
    print(f"ticks={aligned.n_ticks} counters={len(ranked)} alerts={len(alerts)}")
    print(f"reports written to {outdir}")
    return EXIT_ALERTS if alerts else EXIT_OK


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def _input_waiting(stream) -> Callable[[], bool]:
    """A check whether more of ``stream`` can be read at once: ``select``
    with a zero timeout on its file descriptor.  A stream without one that
    ``select`` takes never has input waiting."""
    import select

    try:
        fd = stream.fileno()
        select.select([fd], [], [], 0)
    except (AttributeError, OSError, ValueError):
        return lambda: False
    return lambda: bool(select.select([fd], [], [], 0)[0])


def cmd_detect(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    detector = Detector(config)
    diags = ParseDiagnostics()
    alert_count = 0
    malformed = 0

    def emit(alerts: Sequence[Alert]) -> None:
        # one write per poll: an unbuffered stdout makes a syscall of each
        nonlocal alert_count
        if not alerts:
            return
        alert_count += len(alerts)
        sys.stdout.write("".join(",".join(alert_row(alert)) + "\n" for alert in alerts))
        sys.stdout.flush()

    waiting = _input_waiting(args.stream)
    # errors are counted, not kept, and only the counters' order is
    # checked: a live stream may be malformed, or name new events, for days
    blocks = parse_blocks(args.stream, diags, {}, config.counters)
    polled = 0  # lines read at the last poll
    while True:
        try:
            block = next(blocks, None)
            if block is None:
                break
            detector.extend(block.events, block.codes, block.stamps, block.deltas)
        except (ValueError, OSError):
            # a read that cannot be decoded or ticked ends the stream after
            # the rows of every read before it
            emit(detector.poll())
            raise
        malformed += len(block.errors)
        if diags.lines_read - polled >= BLOCK or not waiting():
            emit(detector.poll())
            polled = diags.lines_read
    emit(detector.finish())

    if malformed:
        print(f"warning: {malformed} malformed lines skipped", file=sys.stderr)
    return EXIT_ALERTS if alert_count else EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import AttackSpec, SynthConfig, generate_trace, write_ground_truth

    detector_config = _resolve_config(args)
    attack = None
    if args.attack_at is not None:
        attack = AttackSpec(at=args.attack_at, magnitude=args.magnitude, width=args.width)
    config = SynthConfig(
        seed=args.seed,
        duration=args.duration,
        tick_interval=detector_config.tick_interval,
        counters=detector_config.counters,
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

    config = _resolve_config(args)
    truth, sidecar_interval = read_ground_truth(args.truth)
    interval = sidecar_interval if sidecar_interval is not None else config.tick_interval
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

    config = _resolve_config(args)
    if args.pid is None and not args.command:
        raise ValueError("capture needs --pid or a command after --")
    if args.duration is not None:
        if args.pid is None:
            raise ValueError("--duration needs --pid")
        if not 0 < args.duration < math.inf:
            raise ValueError(f"--duration must be finite and > 0, got {args.duration}")

    interval_ms = max(1, int(round(config.tick_interval * 1000)))
    cmd = [
        args.profiler,
        "stat",
        "-o", args.out,
        "-x", ",",
        "-I", str(interval_ms),
        "-e", ",".join(config.counters),
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

def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="hpcwatch", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="offline report over trace files")
    p.add_argument("inputs", nargs="+", help="trace files in ingest format")
    p.add_argument("--out", type=str, help="report directory (default .)")
    p.add_argument("--plot", action="store_true", help="emit per-counter SVG charts")
    p.add_argument("--mark", type=_finite_float, help="vertical marker time for plots, seconds")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("detect", help="streaming alerts from stdin")
    p.set_defaults(func=cmd_detect, stream=sys.stdin)

    p = sub.add_parser("synth", help="generate a seeded synthetic trace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=60.0, help="seconds (default 60)")
    p.add_argument("--attack-at", type=float, help="attack injection time, seconds")
    p.add_argument("--magnitude", type=float, default=20.0,
                   help="attack delta multiplier (default 20)")
    p.add_argument("--width", type=int, default=2, help="attack width in ticks (default 2)")
    p.add_argument("--out", type=str, help="output directory (default .)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score an alerts CSV against ground truth")
    p.add_argument("alerts", help="alerts CSV from analyze/detect")
    p.add_argument("truth", help="ground-truth sidecar from synth")
    p.add_argument("--tolerance", type=int, default=5,
                   help="ticks around the attack that count as detection (default 5)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("capture", help="wrap an external interval profiler")
    p.add_argument("--pid", type=int, help="attach to a process")
    p.add_argument("command", nargs="*", help="command to profile (after --)")
    p.add_argument("--duration", type=float, help="seconds to capture with --pid")
    p.add_argument("--out", type=str, default="capture.csv", help="output trace file")
    p.add_argument("--profiler", type=str, default="perf",
                   help="interval profiler executable (default perf)")
    p.set_defaults(func=cmd_capture)

    for name, p in sub.choices.items():
        for key, (_, convert, text, everywhere) in _SETTINGS.items():
            if everywhere or name in ("analyze", "detect"):
                p.add_argument(f"--{key}", type=convert, help=text)
        p.add_argument("--config", type=str, help="key=value settings file")
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
