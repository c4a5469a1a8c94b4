"""Window-kernel benchmark: `lof_at` cost per window on `detect`'s stacks.

    python3 scripts/kernel_bench.py --seed 1

Writes the detect-jitter workload's stream for --seed (the generator in
bench/workloads.py: six counters at their default levels, 3% jitter, one
burst, each tick's lines in name order) and cuts it as `detect` cuts a
file on stdin: into the lines each `io.DEFAULT_BUFFER_SIZE` read
completes, and those reads into runs of the `Detector`, each ending with
the read that brings the lines since the last run to BLOCK (1024).  A run
stacks the full windows its lines complete across counters, in config
order, at most a stack size of windows per `lof_at` call, as the
`Detector` gathers them from one view of the run's samples.  For stack
sizes 32, 64, 128 and 256 (the shipped CHUNK marked), it prints the
calls, and the median and the best of --repeat timed passes over every
call in microseconds per window; the sizes take turns, pass by pass.
Then it times whole `Detector` passes over the same stream at each stack
size, with `detector.CHUNK` set to it: the stream read as `detect` reads
it, `parse_blocks` to `extend`, and a `poll` once BLOCK lines have come
since the last, the sizes again taking turns; it prints the median and
the best seconds of --repeat passes.  Then, for each counter's whole
column of the workload, it prints the median and the best ms per
`lof_all` call over --repeat calls, and the tracemalloc peak of one more.
Exits 1 unless every window score equals `lof_scores` at the lagged
position, every `Detector` pass gives the same points and alerts, and
`lof_all`'s scores of each column's first 1 000 points equal
`lof_scores`', bit for bit.
"""

from __future__ import annotations

import argparse
import io
import statistics
import sys
import tempfile
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import hpcwatch.detector as detector_module  # noqa: E402
from hpcwatch.detector import BLOCK, CHUNK, Detector, DetectorConfig, lag  # noqa: E402
from hpcwatch.lof import lof_all, lof_at, lof_scores  # noqa: E402
from hpcwatch.report import alert_row  # noqa: E402
from hpcwatch.trace import ParseDiagnostics, parse_blocks  # noqa: E402
from workloads import WORKLOADS, generate_deltas, write_inputs  # noqa: E402


SIZES = (32, 64, 128, 256)


def stream_of(deltas: dict[str, np.ndarray]) -> bytes:
    """The workload's stream, as `detect` reads it on stdin."""
    with tempfile.TemporaryDirectory() as tmp:
        return Path(write_inputs(deltas, 0, tmp).stream_file).read_bytes()


def runs_of(
    deltas: dict[str, np.ndarray], stream: bytes, config: DetectorConfig
) -> list[np.ndarray]:
    """The full windows each `Detector` run scores, across counters in
    config order, in run order."""
    names = sorted(deltas)  # each tick's lines, in stream order
    # the read that completes each line, and the run that read belongs to
    ends = np.flatnonzero(np.frombuffer(stream, np.uint8) == ord("\n"))
    read_of = ends // io.DEFAULT_BUFFER_SIZE
    run_of_read, runs, pending = [], 0, 0
    for lines in np.bincount(read_of).tolist():
        run_of_read.append(runs)
        pending += lines
        if pending >= BLOCK:
            runs, pending = runs + 1, 0
    # line i * len(names) + p is tick i's line of names[p]
    run_of = np.array(run_of_read)[read_of].reshape(-1, len(names))
    runs += pending > 0
    window = config.window
    per_counter = []
    for name in config.counters:
        windows = sliding_window_view(deltas[name].astype(np.float64), window)
        # full window j ends with sample j + window - 1
        cuts = np.searchsorted(run_of[window - 1:, names.index(name)], np.arange(runs + 1))
        per_counter.append((windows, cuts))
    return [np.concatenate([windows[cuts[run]:cuts[run + 1]] for windows, cuts in per_counter])
            for run in range(runs)]


def stacks_of(runs: list[np.ndarray], size: int) -> list[np.ndarray]:
    """Each run's windows, at most ``size`` per `lof_at` call."""
    return [run[i:i + size] for run in runs for i in range(0, run.shape[0], size)]


def timed(stacks: list[np.ndarray], k: int, pos: int) -> tuple[np.ndarray, float]:
    """Scores of every stack, in order, and the µs per window of the pass."""
    count = sum(stack.shape[0] for stack in stacks)
    started = time.perf_counter()
    scores = np.concatenate([lof_at(stack, k, pos) for stack in stacks])
    return scores, (time.perf_counter() - started) / count * 1e6


def detect_pass(stream: bytes, config: DetectorConfig, size: int) -> tuple[bytes, float]:
    """One `Detector` pass over the stream, fed as `detect` feeds it a
    backlog, with stacks of at most ``size`` windows: its points and alert
    rows as bytes, and its seconds."""
    points = (array("q"), array("d"), array("q"))
    rows: list[str] = []
    text = io.TextIOWrapper(io.BytesIO(stream), encoding="utf-8")
    detector_module.CHUNK = size
    try:
        started = time.perf_counter()
        detector, diags, polled = Detector(config, points), ParseDiagnostics(), 0
        for block in parse_blocks(text, diags, {}, config.counters):
            detector.extend(block.events, block.codes, block.stamps, block.deltas)
            if diags.lines_read - polled >= BLOCK:
                rows += (",".join(alert_row(alert)) for alert in detector.poll())
                polled = diags.lines_read
        rows += (",".join(alert_row(alert)) for alert in detector.finish())
        elapsed = time.perf_counter() - started
    finally:
        detector_module.CHUNK = CHUNK
    return b"".join(column.tobytes() for column in points) + "\n".join(rows).encode(), elapsed


def series_bench(deltas: dict[str, np.ndarray], config: DetectorConfig, repeat: int) -> bool:
    """Time `lof_all` on each counter's column; whether its scores of each
    column's first 1 000 points equal `lof_scores`', bit for bit."""
    ok = True
    for name in config.counters:
        column = deltas[name].astype(np.float64)
        head = column[:1000]
        ok &= lof_all(head, config.k)[1].tobytes() == lof_scores(head, config.k).tobytes()
        ms = []
        for _ in range(repeat):
            started = time.perf_counter()
            lof_all(column, config.k)
            ms.append((time.perf_counter() - started) * 1e3)
        tracemalloc.start()
        try:
            lof_all(column, config.k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"lof_all on {name} ({column.size} points): median "
              f"{statistics.median(ms):.2f} ms/call, best {min(ms):.2f} of {repeat}, "
              f"tracemalloc peak {peak / 2**20:.2f} MiB")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    config = DetectorConfig()
    k, pos = config.k, config.window - 1 - lag(config)
    deltas, _ = generate_deltas(WORKLOADS["detect-jitter"], args.seed)
    stream = stream_of(deltas)
    runs = runs_of(deltas, stream, config)
    windows = sum(run.shape[0] for run in runs)
    expected = np.array([lof_scores(w, k)[pos] for run in runs for w in run])
    print(f"seed {args.seed}: {len(deltas)} counters, {windows} full windows in {len(runs)} "
          f"runs of at least {BLOCK} lines, k={k}, window={config.window}")

    stacks = {size: stacks_of(runs, size) for size in SIZES}
    passes: dict[int, list[float]] = {size: [] for size in SIZES}
    ok = True
    for _ in range(args.repeat):
        for size in SIZES:
            scores, us = timed(stacks[size], k, pos)
            ok &= scores.tobytes() == expected.tobytes()
            passes[size].append(us)
    for size in SIZES:
        mark = " (CHUNK)" if size == CHUNK else ""
        print(f"stacks of {size}{mark}: {len(stacks[size])} lof_at calls, median "
              f"{statistics.median(passes[size]):.2f} us/window, best {min(passes[size]):.2f} "
              f"of {args.repeat} passes")
    print("every score equals lof_scores" if ok else "SCORES DIFFER FROM lof_scores")

    seconds: dict[int, list[float]] = {size: [] for size in SIZES}
    outputs = set()
    for _ in range(args.repeat):
        for size in SIZES:
            output, elapsed = detect_pass(stream, config, size)
            outputs.add(output)
            seconds[size].append(elapsed)
    for size in SIZES:
        mark = " (CHUNK)" if size == CHUNK else ""
        print(f"detect pass at stacks of {size}{mark}: median "
              f"{statistics.median(seconds[size]):.3f} s, best {min(seconds[size]):.3f} "
              f"of {args.repeat} passes")
    ok &= len(outputs) == 1
    print("every detect pass gives the same points and alerts" if len(outputs) == 1
          else "DETECT PASSES DIFFER ACROSS STACK SIZES")
    series_ok = series_bench(deltas, config, args.repeat)
    print("every lof_all score of the first 1000 points equals lof_scores" if series_ok
          else "LOF_ALL SCORES DIFFER FROM lof_scores")
    return 0 if ok and series_ok else 1


if __name__ == "__main__":
    sys.exit(main())
