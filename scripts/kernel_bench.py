"""Window-kernel benchmark: `lof_at` cost per window on `detect`'s stacks.

    python3 scripts/kernel_bench.py --seed 1

Writes the detect-jitter workload's stream for --seed (the generator in
bench/workloads.py: six counters at their default levels, 3% jitter, one
burst, each tick's lines in name order) and cuts it as `detect` cuts a
file on stdin: into the lines each `io.DEFAULT_BUFFER_SIZE` read
completes, and those reads into runs of the `Detector`, each ending with
the read that brings the lines since the last run to BLOCK.  A run stacks
the full windows its lines complete across counters, in config order, at
most a stack size of windows per `lof_at` call.  For stack sizes 32, 64,
128 and 256 (the shipped CHUNK marked), it prints the calls, and the
median and the best of --repeat timed passes over every call in
microseconds per window; the sizes take turns, pass by pass.  Exits 1
unless every score equals `lof_scores` at the lagged position, bit for
bit.
"""

from __future__ import annotations

import argparse
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from hpcwatch.detector import BLOCK, CHUNK, DetectorConfig, lag  # noqa: E402
from hpcwatch.lof import lof_at, lof_scores  # noqa: E402
from workloads import WORKLOADS, generate_deltas, write_inputs  # noqa: E402


SIZES = (32, 64, 128, 256)


def runs_of(deltas: dict[str, np.ndarray], config: DetectorConfig) -> list[np.ndarray]:
    """The full windows each `Detector` run scores, across counters in
    config order, in run order."""
    names = sorted(deltas)  # each tick's lines, in stream order
    with tempfile.TemporaryDirectory() as tmp:
        stream = Path(write_inputs(deltas, 0, tmp).stream_file).read_bytes()
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
    runs = runs_of(deltas, config)
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
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
