"""Seeded benchmark inputs, generated without calling ``hpcwatch.synth``.

The model is the one ``synth`` uses: every counter draws one log-normal
delta per 100 ms tick around its default baseline level, rounded to an
integer, and one burst multiplies every counter by 20 for two ticks.  Every
counter gets 3% log-normal jitter, wider than synth's steady baselines, so
windows hold distinct values as well as ties on the small counters.  The
levels are copied here on purpose, so a change to ``synth`` cannot change a
workload: a changed input shows up as a changed sha256 in the results, not
as a change in the program.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

TICK_S = 0.1
BURST_MAGNITUDE = 20.0
BURST_WIDTH = 2
TOLERANCE_TICKS = 5  # the `hpcwatch eval` rule: an alert within +-5 ticks detects

# Counter -> integer baseline level, in the CLI's default aggregation order.
BASELINE_LEVELS: dict[str, int] = {
    "iTLB-load-misses": 18,
    "dTLB-loads": 61452,
    "bus-cycles": 23917,
    "LLC-store-misses": 47,
    "LLC-loads": 1123,
    "LLC-load-misses": 261,
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "analyze" or "detect"
    duration_s: float
    jitter: float  # log-sigma of every counter


# Why each workload was chosen is recorded with it in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("analyze-jitter", "analyze", 300.0, 0.03),
        Workload("detect-jitter", "detect", 1000.0, 0.03),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated files, all inside one directory."""

    counter_files: list[str]  # one ingest file per counter (analyze input)
    stream_file: str  # every sample interleaved in time order (detect input)
    burst_tick: int
    n_ticks: int
    lines: int  # samples per input: the same count in both shapes
    sha256: dict[str, str]  # file name -> hex digest


def burst_tick_for(n_ticks: int, rng: np.random.Generator) -> int:
    """A burst position past the first minute's warm-up and clear of the end."""
    lo = min(600, n_ticks // 5)
    return int(rng.integers(lo, n_ticks - 10))


def generate_deltas(workload: Workload, seed: int) -> tuple[dict[str, np.ndarray], int]:
    """Per-counter integer deltas for ticks 1..n_ticks, and the burst tick."""
    n_ticks = int(round(workload.duration_s / TICK_S))
    rng = np.random.default_rng(seed)
    burst = burst_tick_for(n_ticks, rng)
    deltas: dict[str, np.ndarray] = {}
    for name, level in BASELINE_LEVELS.items():
        draws = np.rint(rng.lognormal(math.log(level), workload.jitter, n_ticks))
        lo = burst - 1  # sample i is stamped at tick i + 1
        draws[lo:lo + BURST_WIDTH] = np.rint(draws[lo:lo + BURST_WIDTH] * BURST_MAGNITUDE)
        deltas[name] = draws.astype(np.int64)
    return deltas, burst


def _line(i: int, delta: int, name: str) -> str:
    return f"{(i + 1) * TICK_S:.1f},{delta},{name}\n"


def write_inputs(deltas: dict[str, np.ndarray], burst_tick: int, outdir: str) -> Inputs:
    """Write both input shapes of one set of deltas into ``outdir``."""
    os.makedirs(outdir, exist_ok=True)
    n_ticks = len(next(iter(deltas.values())))
    counter_files = []
    for name, col in deltas.items():
        path = os.path.join(outdir, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_line(i, v, name) for i, v in enumerate(col.tolist()))
        counter_files.append(path)
    stream_file = os.path.join(outdir, "stream.csv")
    names = sorted(deltas)  # the order `write_trace` interleaves equal timestamps in
    cols = {name: deltas[name].tolist() for name in names}
    with open(stream_file, "w", encoding="utf-8") as fh:
        for i in range(n_ticks):
            fh.writelines(_line(i, cols[name][i], name) for name in names)
    sha = {os.path.basename(p): sha256_file(p) for p in counter_files + [stream_file]}
    return Inputs(counter_files, stream_file, burst_tick, n_ticks, n_ticks * len(names), sha)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
