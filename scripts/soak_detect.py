"""Soak test for `hpcwatch detect`: a long seeded stream, flat memory.

    python3 scripts/soak_detect.py --lines 1000000 --seed 1

Pipes a synthetic stream (six counters at their synth baseline levels, 3%
log-normal jitter, one line per counter per 100 ms tick) into one
`hpcwatch detect` process.  At each quarter of the stream it prints the
lines written so far, the quarter's lines/s and the child's resident set
size (VmRSS from /proc/<pid>/status, so Linux only).  Exits 1 if the RSS at
the last quarter exceeds the first quarter's by more than 10%, or if
`detect` fails; a bounded detector holds its windows, score maps and
per-tick batch at a fixed size however long the stream runs.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TICK_S = 0.1
LEVELS = {
    "iTLB-load-misses": 18,
    "dTLB-loads": 61452,
    "bus-cycles": 23917,
    "LLC-store-misses": 47,
    "LLC-loads": 1123,
    "LLC-load-misses": 261,
}
GROWTH_LIMIT = 1.10
BLOCK_TICKS = 1000  # ticks generated and written at a time


def vm_rss_kib(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    raise RuntimeError(f"no VmRSS for pid {pid}")


def blocks(n_lines: int, seed: int):
    """Text blocks of the stream, BLOCK_TICKS ticks each, n_lines in all."""
    rng = np.random.default_rng(seed)
    names = list(LEVELS)
    logs = np.log([LEVELS[name] for name in names])
    written = 0
    tick = 1
    while written < n_lines:
        deltas = np.rint(rng.lognormal(logs, 0.03, (BLOCK_TICKS, len(names)))).astype(np.int64)
        lines = [
            f"{(tick + i) * TICK_S:.1f},{delta},{name}\n"
            for i, row in enumerate(deltas.tolist())
            for name, delta in zip(names, row)
        ][: n_lines - written]
        written += len(lines)
        tick += BLOCK_TICKS
        yield lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lines", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.lines < 4:
        parser.error("--lines must be at least 4")

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.Popen(
        [sys.executable, "-m", "hpcwatch", "detect"],
        stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=env, text=True,
    )
    marks = [math.ceil(args.lines * q / 4) for q in (1, 2, 3, 4)]
    rss: list[int] = []
    written = 0
    started = last = time.perf_counter()
    last_written = 0
    try:
        for block in blocks(args.lines, args.seed):
            child.stdin.writelines(block)
            written += len(block)
            while len(rss) < 4 and written >= marks[len(rss)]:
                child.stdin.flush()
                now = time.perf_counter()
                rss.append(vm_rss_kib(child.pid))
                rate = (written - last_written) / (now - last)
                print(f"quarter {len(rss)}: {written} lines, {rate:.0f} lines/s, "
                      f"VmRSS {rss[-1] / 1024:.1f} MiB", flush=True)
                last, last_written = now, written
        child.stdin.close()
        stderr = child.stderr.read()
        code = child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise
    elapsed = time.perf_counter() - started
    print(f"total: {written} lines in {elapsed:.1f} s, {written / elapsed:.0f} lines/s")
    if code not in (0, 3):
        print(f"detect exited {code}: {stderr.strip()}", file=sys.stderr)
        return 1
    growth = rss[-1] / rss[0]
    print(f"VmRSS last/first quarter: {growth:.3f} (limit {GROWTH_LIMIT})")
    return 0 if growth <= GROWTH_LIMIT else 1


if __name__ == "__main__":
    sys.exit(main())
