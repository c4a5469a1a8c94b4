"""Window-kernel benchmark: `lof_at` cost per window on benchmark windows.

    python3 scripts/kernel_bench.py --seed 1

Draws the detect-jitter workload's deltas for --seed (the generator in
bench/workloads.py: six counters at their default levels, 3% jitter, one
burst), cuts every counter's full windows, interleaves them tick-major, as
both `detect` and `analyze` stack them, and scores each window's lagged
point with `lof_at`, CHUNK windows per call.  Prints the median and the
best of --repeat timed passes over all windows, in microseconds per window.
Exits 1 unless every score equals `lof_scores` at the lagged position, bit
for bit.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from hpcwatch.detector import CHUNK, DetectorConfig, lag  # noqa: E402
from hpcwatch.lof import lof_at, lof_scores  # noqa: E402
from workloads import WORKLOADS, generate_deltas  # noqa: E402


def timed(windows: np.ndarray, k: int, pos: int, repeat: int) -> tuple[np.ndarray, list[float]]:
    """Scores of every window, cut into stacks of CHUNK, and the µs per
    window of each pass."""
    passes = []
    for _ in range(repeat):
        started = time.perf_counter()
        scores = np.concatenate([
            lof_at(windows[start:start + CHUNK], k, pos)
            for start in range(0, windows.shape[0], CHUNK)
        ])
        passes.append((time.perf_counter() - started) / windows.shape[0] * 1e6)
    return scores, passes


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
    # full[c][s] is counter c's window after push s + window, and the
    # stream carries each tick's lines in name order
    names = sorted(deltas)
    full = [
        np.lib.stride_tricks.sliding_window_view(deltas[name].astype(np.float64), config.window)
        for name in names
    ]
    windows = np.stack(full, axis=1).reshape(-1, config.window)
    expected = np.array([lof_scores(w, k)[pos] for w in windows])

    print(f"seed {args.seed}: {len(names)} counters, {full[0].shape[0]} full windows each, "
          f"{CHUNK} per lof_at call, k={k}, window={config.window}")
    scores, passes = timed(windows, k, pos, args.repeat)
    ok = scores.tobytes() == expected.tobytes()
    print(f"interleaved: {scores.shape[0]} windows, median {statistics.median(passes):.2f} "
          f"us/window, best {min(passes):.2f} of {args.repeat} passes; "
          f"{'equals' if ok else 'DIFFERS FROM'} lof_scores")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
