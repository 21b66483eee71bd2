"""Run one ``relnet`` command in this process, with the benchmark's probes.

Usage: ``python3 launch.py PROBE_JSON {plain|trace} -- RELNET_ARGS...``

``relnet`` is imported from ``PYTHONPATH`` (the checkout's ``src``).
Both modes record the monotonic clock at the first SGD epoch or first
estimator sweep, which ends the program's set-up, the number of
training rows that epoch is given, and the peak resident memory.
``trace`` also wraps the calls listed in ``spans.TARGETS`` and keeps
their spans in memory.  Everything is written to PROBE_JSON after
the command returns; the exit code is the command's.
"""

import json
import sys

import spans


def peak_rss_kb() -> int:
    """Peak resident memory of this process since it was started.

    Read from ``VmHWM`` rather than ``getrusage``: on Linux the rusage
    figure also counts the memory of the parent the process was
    spawned from.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    probe_path, mode, sep, *relnet_args = argv
    if sep != "--" or mode not in ("plain", "trace"):
        raise SystemExit(f"usage: launch.py PROBE_JSON plain|trace -- ARGS ({argv})")
    from relnet import cli

    marks = spans.install_first_step_probe()
    recorder = None
    if mode == "trace":
        recorder = spans.Recorder()
        recorder.install()
    code = cli.main(relnet_args)
    doc = {
        "first_step": marks.get("first_step"),
        "train_rows": marks.get("train_rows"),
        "peak_rss_kb": peak_rss_kb(),
    }
    if recorder is not None:
        doc["trace"] = recorder.dump()
    with open(probe_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
