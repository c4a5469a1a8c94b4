"""One hpcwatch CLI run, as the benchmark launches it.

    python3 child.py setup|plain|trace LAUNCH_T INFO_FILE COUNTERS -- CLI_ARGS...

LAUNCH_T is the parent's monotonic clock just before it started this
process and COUNTERS the number of counters in the input.  ``plain`` runs
the command untraced and writes to INFO_FILE the clock reading taken once
``hpcwatch.cli`` was imported and the process's peak RSS in KiB.  ``setup``
writes the same but stops after the import.  ``trace`` also wraps the
layer hooks, runs the command in-process, and writes the per-layer metrics
as JSON.
"""

import sys
import time


def peak_rss_kib() -> int:
    """High-water RSS of this process's own address space.

    Read from /proc rather than taken from the parent's rusage, which on
    Linux also counts the parent's RSS at the moment it forked this child.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    mode, launch_t, info_file, counters = sys.argv[1:5]
    launch_t, counters = float(launch_t), int(counters)
    argv = sys.argv[sys.argv.index("--") + 1:]

    import hpcwatch.cli as cli

    # read the clock directly: a plain run imports nothing of the benchmark's,
    # so its set-up time is the command's own
    import_end = time.clock_gettime(time.CLOCK_MONOTONIC)
    if mode in ("setup", "plain"):
        code = cli.main(argv) if mode == "plain" else 0
        with open(info_file, "w", encoding="utf-8") as fh:
            fh.write(f"{import_end!r} {peak_rss_kib()}")
        return code

    import json

    import tracing

    recorder = tracing.Recorder()
    recorder.add("cli.import", launch_t, import_end)
    missing = tracing.install_hooks(recorder)
    code = cli.main(argv)
    main_end = tracing.now()
    metrics, omitted = tracing.layer_metrics(recorder, missing, counters)
    with open(info_file, "w", encoding="utf-8") as fh:
        json.dump(
            {"import_end": import_end, "main_end": main_end, "peak_rss_kib": peak_rss_kib(),
             "missing": missing, "omitted": omitted, "metrics": metrics},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
