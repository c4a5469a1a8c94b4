r"""Hour-long `hpcwatch analyze --plot`: wall time, peak RSS and report digest.

    python3 scripts/hour_analyze.py --runs 3
    python3 scripts/hour_analyze.py --runs 3 --inputs DIR

Synthesizes the hour trace once (`synth --seed 7 --duration 3600
--attack-at 1800`, six counters at 100 ms), or with --inputs takes every
*.csv file in DIR as a counter file, then runs `hpcwatch analyze --plot
--mark 1800` on it --runs times, each in a new process.  For each
run it prints the wall time from launch to exit, the child's own peak RSS
(VmHWM, read by the child from /proc/self/status at exit, so Linux only;
the parent's rusage would also count the parent's RSS at the fork) and one
sha256 over the report files.  A second line splits the run by stage:
the child wraps the `hpcwatch.cli` names of each stage, and prints the
stage's wall time inside the child and its VmRSS/VmHWM after the stage's
last call.  Exits 1 if `analyze` fails or if two runs write different
reports.

A jittered hour (3 % jitter, seed 11) for --inputs, made with the
benchmark's generator in a directory `hour`:

    PYTHONPATH=bench python3 -c "import os; from workloads import *; \
    write_inputs(*generate_deltas(Workload('h', 'analyze', 3600.0, 0.03), 11), 'hour'); \
    os.remove('hour/stream.csv')"
    python3 scripts/hour_analyze.py --inputs hour
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYNTH = ["synth", "--seed", "7", "--duration", "3600", "--attack-at", "1800"]
MARK = "1800"

# Run in the child: the command, with the hpcwatch.cli names of each stage
# wrapped, then its stages and its own high-water RSS as JSON into argv[1].
CHILD = """
import json
import sys
import time
import hpcwatch.cli as cli

STAGES = {
    "parse": ["parse_file"],
    "align": ["merge_traces", "align"],
    "run_offline": ["run_offline"],
    "report": ["write_attack_factor_csv", "write_alerts_csv", "write_outliers_csv",
               "emit_plot"],
}


def status():
    with open("/proc/self/status", encoding="ascii") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return [int(fields[key].split()[0]) for key in ("VmRSS", "VmHWM")]


spent = {}


def timed(stage, fn):
    def call(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = spent.get(stage, [0.0])[0] + time.perf_counter() - started
            spent[stage] = [seconds, *status()]
    return call


for stage, names in STAGES.items():
    for name in names:
        setattr(cli, name, timed(stage, getattr(cli, name)))
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="ascii") as fh:
    json.dump({"hwm_kib": status()[1], "stages": spent}, fh)
sys.exit(code)
"""


def report_digest(outdir: Path) -> str:
    """sha256 over every report file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--inputs", type=Path,
                        help="directory of counter files (default: synthesize the hour)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory(prefix="hour_analyze-") as tmp:
        work = Path(tmp)
        trace_dir = args.inputs
        if trace_dir is None:
            trace_dir = work / "trace"
            subprocess.run(
                [sys.executable, "-m", "hpcwatch", *SYNTH, "--out", str(trace_dir)],
                env=env, check=True, stdout=subprocess.DEVNULL,
            )
        inputs = sorted(str(p) for p in trace_dir.glob("*.csv"))
        if not inputs:
            print(f"no *.csv counter files in {trace_dir}", file=sys.stderr)
            return 1
        digests = set()
        for run in range(1, args.runs + 1):
            outdir, info = work / f"report{run}", work / f"hwm{run}"
            command = ["analyze", *inputs, "--out", str(outdir), "--plot", "--mark", MARK]
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, str(info), *command],
                env=env, capture_output=True, text=True,
            )
            wall = time.perf_counter() - started
            if proc.returncode not in (0, 3):
                print(f"run {run}: analyze exited {proc.returncode}: {proc.stderr.strip()}",
                      file=sys.stderr)
                return 1
            child = json.loads(info.read_text())
            digest = report_digest(outdir)
            digests.add(digest)
            print(f"run {run}: wall {wall:.2f} s, peak RSS {child['hwm_kib'] / 1024.0:.1f} MB, "
                  f"reports sha256 {digest}")
            print(f"run {run}: " + "; ".join(
                f"{stage} {seconds:.2f} s, then VmRSS {rss / 1024.0:.1f} MB, "
                f"VmHWM {hwm / 1024.0:.1f} MB"
                for stage, (seconds, rss, hwm) in child["stages"].items()
            ), flush=True)
    if len(digests) > 1:
        print("runs wrote different reports", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
