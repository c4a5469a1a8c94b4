"""Soak test for `hpcwatch detect`: a long seeded stream, flat memory.

    python3 scripts/soak_detect.py --lines 1000000 --seed 1

Pipes a synthetic stream (six counters at their synth baseline levels, 3%
log-normal jitter, one line per counter per 100 ms tick) into one
`hpcwatch detect` process, in blocks of 1000 ticks with a gap of 10**4
ticks before each.  Every other block is hostile: each of its ticks also
brings three lines, an event named in no other line, a `<not counted>`
readout of a counter half a tick later, and a line that does not parse;
and halfway through it comes one line longer than `detect` holds, an
oversized delta written in LONG_WRITES writes, each read before the next.
`parse_block` reads a clean block's reads at once and a hostile one's
through the line reader.  At each quarter of the stream it prints the lines written so
far, the quarter's lines/s and the child's resident set size (VmRSS from
/proc/<pid>/status, so Linux only); at the end, the lines/s of the clean
and of the hostile blocks.  After each block the writer waits until the
child has read the whole pipe and sleeps for more (its state in
/proc/<pid>/stat), so a block's time is that of its own lines.  Exits 1 if the RSS at
the last quarter exceeds the first quarter's by more than 10%, or if
`detect` fails.  `detect` reads the pipe one block of at most 8 KiB at a
time, holds a partial line only up to 65 536 characters, snaps each
read's timestamps to ticks in the `Detector`, runs its windows at least
every 1024 lines and scores them in stacks of at most 64 gathered from one
view of the run's samples, so a bounded detector holds its windows, score
maps, pending lines, window stack and partial line at a fixed size however
long the stream runs, and keeps nothing of an event it does not score.
"""

from __future__ import annotations

import argparse
import fcntl
import math
import os
import struct
import subprocess
import sys
import termios
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hpcwatch.trace import _MAX_LINE  # noqa: E402

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
GAP_TICKS = 10**4  # ticks with no line before each block
LONG_WRITES = 4  # writes that carry a hostile block's over-long line


def vm_rss_kib(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    raise RuntimeError(f"no VmRSS for pid {pid}")


def settle(child: subprocess.Popen) -> None:
    """Wait until ``child`` has read every byte written to its stdin and
    sleeps, waiting for more, or has exited."""
    fd = child.stdin.fileno()
    stat = Path(f"/proc/{child.pid}/stat")
    while child.poll() is None:
        unread = struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, b"\0" * 4))[0]
        # the state follows the parenthesized command name
        if not unread and stat.read_text().rpartition(")")[2].split()[0] == "S":
            return
        time.sleep(0.0005)


def blocks(n_lines: int, seed: int):
    """Text blocks of the stream, BLOCK_TICKS ticks each, n_lines in all,
    each with whether it is hostile."""
    rng = np.random.default_rng(seed)
    names = list(LEVELS)
    logs = np.log([LEVELS[name] for name in names])
    written = 0
    tick = 1
    hostile = False
    while written < n_lines:
        tick += GAP_TICKS
        deltas = np.rint(rng.lognormal(logs, 0.03, (BLOCK_TICKS, len(names)))).astype(np.int64)
        lines = []
        for i, row in enumerate(deltas.tolist()):
            t = tick + i
            lines += [f"{t * TICK_S:.1f},{delta},{name}\n" for name, delta in zip(names, row)]
            if hostile:
                lines += [
                    f"{t * TICK_S:.1f},{row[0]},uncore_{t}/clockticks/\n",
                    f"{(t + 0.5) * TICK_S:.2f},<not counted>,{names[t % len(names)]}\n",
                    f"garbage {t}\n",
                ]
        if hostile:
            long_line = f"{(tick + BLOCK_TICKS // 2) * TICK_S:.1f},{'9' * _MAX_LINE},LLC-loads\n"
            lines.insert(len(lines) // 2, long_line)
        lines = lines[: n_lines - written]
        written += len(lines)
        tick += BLOCK_TICKS
        yield lines, hostile
        hostile = not hostile


def write(child: subprocess.Popen, lines: list[str]) -> None:
    """Write ``lines`` to ``child`` and wait until it has read them; a line
    longer than ``_MAX_LINE`` goes in LONG_WRITES writes, each read before
    the next."""
    start = 0
    for i, line in enumerate(lines):
        if len(line) > _MAX_LINE:
            child.stdin.writelines(lines[start:i])
            step = -(-len(line) // LONG_WRITES)
            for part in range(0, len(line), step):
                child.stdin.write(line[part:part + step])
                child.stdin.flush()
                settle(child)
            start = i + 1
    child.stdin.writelines(lines[start:])
    child.stdin.flush()
    settle(child)


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
    settle(child)  # imported, and waiting for input
    started = last = time.perf_counter()
    last_written = 0
    # per kind of block, clean and hostile: lines written and seconds taken
    kinds = {False: [0, 0.0], True: [0, 0.0]}
    try:
        for block, hostile in blocks(args.lines, args.seed):
            block_started = time.perf_counter()
            write(child, block)
            kinds[hostile][0] += len(block)
            kinds[hostile][1] += time.perf_counter() - block_started
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
    for hostile, (lines, seconds) in kinds.items():
        if seconds:
            print(f"{'hostile' if hostile else 'clean'} blocks: {lines} lines, "
                  f"{lines / seconds:.0f} lines/s")
    if code not in (0, 3):
        print(f"detect exited {code}: {stderr.strip()}", file=sys.stderr)
        return 1
    growth = rss[-1] / rss[0]
    print(f"VmRSS last/first quarter: {growth:.3f} (limit {GROWTH_LIMIT})")
    return 0 if growth <= GROWTH_LIMIT else 1


if __name__ == "__main__":
    sys.exit(main())
