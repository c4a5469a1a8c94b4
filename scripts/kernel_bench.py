"""Window-kernel benchmark: `lof_at` cost per window on `detect`'s stacks.

    python3 scripts/kernel_bench.py --seed 1

Writes the detect-jitter workload's stream for --seed (the generator in
bench/workloads.py: six counters at their default levels, 3% jitter, one
burst, each tick's lines in name order) and cuts it into the lines each
`io.DEFAULT_BUFFER_SIZE` read completes, as `detect` reads a file on stdin.
Each read is one `Detector` run: every counter, in config order, scores the
full windows its lines of the read complete with `lof_at`, at most CHUNK
windows per call.  Prints the calls and the windows per call, and the
median and the best of --repeat timed passes over every call, in
microseconds per window.  Exits 1 unless every score equals `lof_scores`
at the lagged position, bit for bit.
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

from hpcwatch.detector import CHUNK, DetectorConfig, lag  # noqa: E402
from hpcwatch.lof import lof_at, lof_scores  # noqa: E402
from workloads import WORKLOADS, generate_deltas, write_inputs  # noqa: E402


def stacks_of(deltas: dict[str, np.ndarray], config: DetectorConfig) -> list[np.ndarray]:
    """The stacks of full windows `detect` hands `lof_at`, in call order."""
    names = sorted(deltas)  # each tick's lines, in stream order
    with tempfile.TemporaryDirectory() as tmp:
        stream = Path(write_inputs(deltas, 0, tmp).stream_file).read_bytes()
    # the read that completes each line: line i * len(names) + p is tick
    # i's line of names[p]
    ends = np.flatnonzero(np.frombuffer(stream, np.uint8) == ord("\n"))
    read_of = (ends // io.DEFAULT_BUFFER_SIZE).reshape(-1, len(names))
    reads = int(read_of[-1, -1]) + 1
    window = config.window
    per_counter = []
    for name in config.counters:
        windows = sliding_window_view(deltas[name].astype(np.float64), window)
        # full window j ends with sample j + window - 1
        cuts = np.searchsorted(read_of[window - 1:, names.index(name)], np.arange(reads + 1))
        per_counter.append((windows, cuts))
    stacks = []
    for read in range(reads):
        for windows, cuts in per_counter:
            start, end = cuts[read], cuts[read + 1]
            stacks += [windows[i:min(i + CHUNK, end)] for i in range(start, end, CHUNK)]
    return stacks


def timed(
    stacks: list[np.ndarray], k: int, pos: int, repeat: int
) -> tuple[np.ndarray, list[float]]:
    """Scores of every stack, in order, and the µs per window of each pass."""
    count = sum(stack.shape[0] for stack in stacks)
    passes = []
    for _ in range(repeat):
        started = time.perf_counter()
        scores = np.concatenate([lof_at(stack, k, pos) for stack in stacks])
        passes.append((time.perf_counter() - started) / count * 1e6)
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
    stacks = stacks_of(deltas, config)
    sizes = [stack.shape[0] for stack in stacks]
    expected = np.array([lof_scores(w, k)[pos] for stack in stacks for w in stack])

    print(f"seed {args.seed}: {len(deltas)} counters, {sum(sizes)} full windows in "
          f"{len(sizes)} lof_at calls, {statistics.mean(sizes):.1f} per call "
          f"(median {statistics.median(sizes):g}, at most {CHUNK}), k={k}, "
          f"window={config.window}")
    scores, passes = timed(stacks, k, pos, args.repeat)
    ok = scores.tobytes() == expected.tobytes()
    print(f"detect stacks: median {statistics.median(passes):.2f} us/window, best "
          f"{min(passes):.2f} of {args.repeat} passes; "
          f"{'equals' if ok else 'DIFFERS FROM'} lof_scores")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
