"""Judge benchmark results against the bounds in BENCHMARK.json.

    python3 bench/compare.py spread RESULT.json...
    python3 bench/compare.py diff --base RESULT.json... --new RESULT.json...

Takes the results files run.py writes under bench/work/results/, one per
run.  ``spread`` prints, per workload and end-to-end metric, the distance
between the first and third quartile of the runs' values as a share of
their median, and marks it when it reaches a third of the metric's bound.
``diff`` flags every workload and end-to-end metric whose median over the
new runs is worse than the median over the base runs by more than the
bound, and exits 1 if any is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Values = dict[str, dict[str, list[float]]]  # workload -> metric -> one value per run


def load(paths: list[str]) -> Values:
    out: Values = defaultdict(lambda: defaultdict(list))
    for path in paths:
        result = json.loads(Path(path).read_text())
        for name, metric in result["metrics"].items():
            out[result["workload"]][name].append(metric["value"])
    return out


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse; negative when better."""
    return (new - base) / base if better == "lower" else (base - new) / base


def regressions(base: Values, new: Values, end_to_end: list[dict]) -> list[tuple]:
    """(workload, metric, base median, new median, worse share) beyond the bound."""
    flagged = []
    for workload in sorted(set(base) & set(new)):
        for m in end_to_end:
            b, n = base[workload].get(m["name"]), new[workload].get(m["name"])
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            share = worse_by(bm, nm, m["better"])
            if share > m["bound"]:
                flagged.append((workload, m["name"], bm, nm, share))
    return flagged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread")
    p.add_argument("results", nargs="+")
    p = sub.add_parser("diff")
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    if args.cmd == "spread":
        values = load(args.results)
        for workload in sorted(values):
            for m in end_to_end:
                v = values[workload].get(m["name"], [])
                if len(v) < 2:
                    continue
                s = spread(v)
                mark = "" if s < m["bound"] / 3 else "  <-- at or over bound/3"
                print(f"{workload} {m['name']} n={len(v)} median={statistics.median(v):.6g} "
                      f"spread={s:.4f} bound={m['bound']}{mark}")
        return 0

    flagged = regressions(load(args.base), load(args.new), end_to_end)
    for workload, name, bm, nm, share in flagged:
        print(f"REGRESSION {workload} {name}: {bm:.6g} -> {nm:.6g} ({share:+.1%} worse)")
    if not flagged:
        print("no end-to-end metric worse than its bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
