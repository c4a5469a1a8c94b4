"""hpcwatch benchmark: seeded workloads through the CLI, with checked outputs.

    python3 bench/run.py --workload analyze-jitter --seed 1 --seconds 50 --trace 0

Generates the workload's inputs from --seed, then launches the `hpcwatch`
command on them again and again for about --seconds, one process per run.
Every run's outputs are checked against a reference computed once per seed
by another path than the one timed.  Prints every metric by name and unit,
writes a results file under bench/work/results/, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 puts the end-to-end metrics of BENCHMARK.json into that line.
--trace 1 also makes one traced run (spans around every layer, the command
run in-process) and puts the per-layer metrics there instead.
--workload all runs every workload in turn, metrics prefixed by workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from tracing import now
from workloads import (
    TICK_S,
    TOLERANCE_TICKS,
    WORKLOADS,
    Inputs,
    Workload,
    generate_deltas,
    write_inputs,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
CHILD = BENCH / "child.py"

EXIT_OK, EXIT_ALERTS = 0, 3  # the CLI's exit codes for a clean and an alerting run
TOP_N = 5  # the CLI's default --top: outliers.csv holds this many rows per counter
# Import-only launches per run of this script, on top of one set-up sample
# per CLI run: set-up is short and noisy, so its median needs more samples.
SETUP_LAUNCHES = 10


@dataclass
class Run:
    mode: str
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    cpu_s: float
    exit_code: int
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


# --- environment ----------------------------------------------------------------

def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu,
    }


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hpcwatch").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# --- one CLI process ------------------------------------------------------------

def cli_args(workload: Workload, inputs: Inputs, rundir: Path) -> tuple[list[str], str]:
    """The command line of one run and the file it reads on stdin."""
    if workload.command == "analyze":
        mark = f"{inputs.burst_tick * TICK_S:.1f}"
        args = ["analyze", *inputs.counter_files, "--out", str(rundir / "report"),
                "--plot", "--mark", mark]
        return args, os.devnull
    return ["detect"], inputs.stream_file


def launch(mode: str, args: list[str], stdin_path: str, rundir: Path, counters: int) -> Run:
    """Start one child, wait for it, and time it from launch to exit."""
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    info_file = rundir / "info"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(stdin_path, "rb") as fin, open(rundir / "stdout", "wb") as fout, \
            open(rundir / "stderr", "wb") as ferr:
        t0 = now()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, repr(t0), str(info_file), str(counters),
             "--", *args],
            stdin=fin, stdout=fout, stderr=ferr, env=env, cwd=rundir,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = Run(mode, t1 - t0, math.nan, math.nan, usage.ru_utime + usage.ru_stime,
              proc.returncode)
    try:
        text = info_file.read_text()
    except OSError:
        run.problems.append("child wrote no timing info")
        return run
    if mode in ("setup", "plain"):
        import_end, peak_kib = text.split()
        run.setup_s = float(import_end) - t0
        run.peak_rss_mb = int(peak_kib) / 1024.0
    else:
        run.info = json.loads(text)
        run.setup_s = run.info["import_end"] - t0
        run.peak_rss_mb = run.info["peak_rss_kib"] / 1024.0
        run.info["traced_wall_s"] = run.info["main_end"] - t0
    return run


# --- reference and checks -----------------------------------------------------------

def detect_reference(inputs: Inputs) -> list[str]:
    """What `hpcwatch detect` prints for the stream: the parity reference
    for `analyze`'s alerts.csv."""
    with open(inputs.stream_file, "rb") as fin:
        proc = subprocess.run(
            [sys.executable, "-m", "hpcwatch", "detect"], stdin=fin, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, check=False,
        )
    if proc.returncode not in (EXIT_OK, EXIT_ALERTS):
        raise RuntimeError(f"reference detect exited {proc.returncode}: {proc.stderr!r}")
    return proc.stdout.decode().splitlines()


def replay_reference(deltas: dict[str, np.ndarray]) -> list[str]:
    """Alert rows from the library's streaming primitives, fed in stream order
    (every counter of a tick, then that tick's evaluation), as `detect` does."""
    from hpcwatch.detector import (
        DetectorConfig, WindowState, evaluate_tick, push_value, threshold_check,
    )
    from hpcwatch.events import EventKind
    from hpcwatch.report import alert_row

    config = DetectorConfig()
    names = sorted(deltas)
    cols = {name: deltas[name].tolist() for name in names}
    states = {name: WindowState(event=EventKind(name), window=config.window) for name in names}
    scores: dict[str, dict[int, float]] = {name: {} for name in names}
    rows = []
    for i in range(len(cols[names[0]])):
        tick = i + 1
        for name in names:
            result = push_value(states[name], tick, float(cols[name][i]), config)
            if result is not None:
                scores[name][result[0]] = result[1]
        point = evaluate_tick(scores, tick, config)
        alert = threshold_check(point, config) if point is not None else None
        if alert is not None:
            rows.append(",".join(alert_row(alert)))
    return rows


def reference_rows(workload: Workload, inputs: Inputs, deltas) -> list[str]:
    """Reference alert rows, cached per workload, input bytes and program source."""
    key = hashlib.sha256(
        json.dumps([workload.name, inputs.sha256, src_digest()], sort_keys=True).encode()
    ).hexdigest()[:32]
    cache = WORK / "reference" / f"{key}.txt"
    if cache.is_file():
        return cache.read_text().splitlines()
    if workload.command == "analyze":
        rows = detect_reference(inputs)
    else:
        rows = replay_reference(deltas)
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text("".join(r + "\n" for r in rows))
    return rows


def check_run(run: Run, workload: Workload, rundir: Path, reference: list[str],
              counters: list[str]) -> list[str]:
    """The run's alert rows; problems found are appended to ``run.problems``."""
    from hpcwatch import report

    expected_exit = EXIT_ALERTS if reference else EXIT_OK
    if run.exit_code != expected_exit:
        run.problems.append(f"exit code {run.exit_code}, expected {expected_exit}")
    stdout = (rundir / "stdout").read_text()
    try:
        if workload.command == "analyze":
            out = rundir / "report"
            rows = (out / "alerts.csv").read_text().splitlines()[1:]
            if len(report.read_alerts_csv(str(out / "alerts.csv"), TICK_S)) != len(rows):
                run.problems.append("alerts.csv reads back a different row count")
            if not report.read_attack_factor_csv(str(out / "attack_factor.csv")):
                run.problems.append("attack_factor.csv is empty")
            per_counter = [r.event for r in report.read_outliers_csv(str(out / "outliers.csv"))]
            if sorted(per_counter) != sorted(counters * TOP_N):
                run.problems.append(f"outliers.csv has rows {sorted(set(per_counter))}")
            for name in counters:
                if not ET.parse(out / f"{name}.svg").getroot().tag.endswith("svg"):
                    run.problems.append(f"{name}.svg is not an SVG document")
            if f"alerts={len(rows)}" not in stdout:
                run.problems.append("summary line disagrees with alerts.csv")
        else:
            rows = stdout.splitlines()
            readback = rundir / "alerts_readback.csv"
            readback.write_text(",".join(report.ALERTS_HEADER) + "\n" + stdout)
            if len(report.read_alerts_csv(str(readback), TICK_S)) != len(rows):
                run.problems.append("printed alert rows read back a different count")
    except (OSError, ValueError, IndexError, ET.ParseError) as exc:
        run.problems.append(f"report unreadable: {exc}")
        return []
    if rows != reference:
        diff = next((i for i, (a, b) in enumerate(zip(rows, reference)) if a != b),
                    min(len(rows), len(reference)))
        run.problems.append(
            f"alert rows differ from reference at row {diff}: {len(rows)} vs {len(reference)} rows"
        )
    return rows


def quality(rows: list[str], burst_tick: int, duration_s: float) -> dict[str, tuple[float, str]]:
    """The `hpcwatch eval` rule: an alert within +-5 ticks of the burst detects it."""
    ticks = [math.floor(float(r.split(",", 1)[0]) / TICK_S + 0.5) for r in rows]
    hits = [t for t in ticks if abs(t - burst_tick) <= TOLERANCE_TICKS]
    out = {
        "detected": (1.0 if hits else 0.0, "bool"),
        "fp_per_min": ((len(ticks) - len(hits)) / (duration_s / 60.0), "1/min"),
    }
    if hits:
        out["detect_latency_ticks"] = (float(min(hits) - burst_tick), "ticks")
    return out


# --- one workload -----------------------------------------------------------------

def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    load_before = loadavg()
    deltas, burst = generate_deltas(workload, seed)
    seeddir = WORK / workload.name / f"seed{seed}"
    inputs = write_inputs(deltas, burst, str(seeddir / "inputs"))
    counters = list(deltas)
    try:
        reference, reference_error = reference_rows(workload, inputs, deltas), None
    except Exception as exc:  # a broken program still gets a result, with every run failed
        reference, reference_error = [], f"no reference: {exc!r}"
    rundir = seeddir / "run"

    def one(mode: str) -> tuple[Run, list[str]]:
        args, stdin_path = cli_args(workload, inputs, rundir)
        run = launch(mode, args, stdin_path, rundir, len(counters))
        rows = check_run(run, workload, rundir, reference, counters)
        if reference_error:
            run.problems.append(reference_error)
        return run, rows

    # Runs stop once the next would overrun --seconds; a traced run keeps
    # room for itself.
    reserve = 2 if trace else 1
    start = now()
    setups = [launch("setup", [], os.devnull, seeddir / "setup", len(counters))
              for _ in range(SETUP_LAUNCHES)]
    runs: list[Run] = []
    while True:
        run, rows = one("plain")
        if not runs:
            first_rows = rows
        runs.append(run)
        wall = statistics.median(r.wall_s for r in runs)
        if now() - start + reserve * wall > seconds:
            break
    traced = one("trace")[0] if trace else None
    attempted = setups + runs + ([traced] if traced else [])
    failed = sum(1 for r in attempted if r.problems)

    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(r.setup_s for r in setups + runs), "s"),
        "wall_s": (wall, "s"),
        "lines_per_s": (inputs.lines / wall, "lines/s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
        "cpu_s": (statistics.median(r.cpu_s for r in runs), "s"),
        "failed_ratio": (failed / len(attempted), "ratio"),
        **quality(first_rows, burst, workload.duration_s),
    }
    omitted: list[str] = []
    if traced is not None and traced.info:
        metrics.update({k: tuple(v) for k, v in traced.info["metrics"].items()})
        traced_wall = traced.info["traced_wall_s"]
        metrics["trace_overhead_s"] = (traced_wall - wall, "s")
        metrics["spans.unattributed_s"] = (traced_wall - metrics["spans.self_sum_s"][0], "s")
        omitted = traced.info["omitted"]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {**env, "loadavg_before": load_before, "loadavg_after": loadavg()},
        "inputs": {"lines": inputs.lines, "burst_tick": inputs.burst_tick,
                   "sha256": inputs.sha256},
        "reference_rows": len(reference),
        "runs": [asdict(r) for r in attempted],
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "omitted": omitted,
        "missing_hooks": traced.info.get("missing", []) if traced else [],
    }


def report_lines(result: dict) -> list[str]:
    name = result["workload"]
    lines = [f"# {name} seed={result['seed']} runs={result['attempted']} "
             f"failed={result['failed']} env={json.dumps(result['env'], sort_keys=True)}"]
    lines += [f"# {name} input {f} sha256={h}" for f, h in sorted(result["inputs"]["sha256"].items())]
    for r in result["runs"]:
        for problem in r["problems"]:
            lines.append(f"# {name} FAILED {r['mode']} run: {problem}")
    if result["omitted"]:
        lines.append(f"# {name} hooks missing: {', '.join(result['missing_hooks'])}; "
                     f"omitted: {', '.join(result['omitted'])}")
    lines += [f"{name} {k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hpcwatch" / "cli.py").is_file():
        print(f"error: no hpcwatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the reference and the checks use the library in-process
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        out = WORK / "results" / f"{name}.seed{args.seed}.trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1, sort_keys=True))
        print("\n".join(report_lines(result)), flush=True)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update(
            {prefix + k: result["metrics"][k] for k in wanted if k in result["metrics"]}
        )
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
