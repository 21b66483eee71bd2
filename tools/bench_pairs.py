"""Paired benchmark runs of a parent commit and ``HEAD``.

Usage, from the repository root::

    python tools/bench_pairs.py PARENT_REF [--workload W ...] [--pairs N]
        [--seed S] [--seconds T] [--out PATH]

Both commits are exported with ``git archive`` into a temporary
directory, and ``perfbench/run.py`` runs unchanged in each export, with
``--seed S --seconds T``.  One pair is one run of each side on one
workload; the side that runs first alternates from pair to pair, and
each pair runs every workload in turn, so drift of the machine reaches
both sides alike.  By default the pairs cover every workload of
``BENCHMARK.json``; ``--workload`` may be given more than once.

For every workload and each end-to-end metric of ``BENCHMARK.json``
that the workload defines (its ``metrics`` in ``perfbench/workloads.py``,
loaded read-only) the tool prints the median of each side, the parent's
interquartile range, the number of pairs whose change run is better
(ties count for neither side), and every pair's values.  It writes the
same for every end-to-end metric, also those ``run.py`` reports as a
constant for a workload that does not define them, with both commit
ids, each run's ``env`` line and every run's metrics, to ``--out`` as
JSON (by default ``BENCH.json`` at the repository root; a change that
claims a speed-up commits its file as ``BENCH_<n>.json``).

The exit status is 0 when every run exits 0 and reports ``"correct":
true``, and 1 otherwise.  It needs git and numpy only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """The ``env`` object and the result object of one ``run.py`` output:
    ``{"env": ..., "correct": ..., "attempted": ..., "failed": ...,
    "metrics": {name: value}}``."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {
        "env": env,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def summarize(pairs: list, better: str) -> dict:
    """Statistics of one metric over ``pairs``, each ``(parent value,
    change value)``; ``better`` is ``"higher"`` or ``"lower"``."""
    parent, change = (np.array(side, dtype=float) for side in zip(*pairs))
    q1, q3 = np.percentile(parent, [25, 75])
    gain = change - parent if better == "higher" else parent - change
    return {
        "better": better,
        "parent_median": float(np.median(parent)),
        "change_median": float(np.median(change)),
        "parent_iqr": float(q3 - q1),
        "wins": int(np.count_nonzero(gain > 0)),
        "pairs": [[float(p), float(c)] for p, c in pairs],
    }


def report(runs: list, directions: dict) -> dict:
    """Per workload and metric, :func:`summarize` of ``runs``: the parsed
    runs, each with ``workload``, ``pair`` and ``side`` keys."""
    metrics = {(r["workload"], r["pair"], r["side"]): r["metrics"] for r in runs}
    pairs = sorted({r["pair"] for r in runs})
    return {
        workload: {
            name: summarize(
                [tuple(metrics[workload, p, side][name] for side in SIDES) for p in pairs],
                better,
            )
            for name, better in directions.items()
        }
        for workload in dict.fromkeys(r["workload"] for r in runs)
    }


def document(parent_ref: str, commits: dict, seed: int, seconds: float, runs: list,
             directions: dict) -> dict:
    """What the tool writes to ``--out``: both commits, the run settings,
    the :func:`report` of ``runs`` and the runs themselves."""
    return {
        "parent": {"ref": parent_ref, "commit": commits["parent"]},
        "change": {"ref": "HEAD", "commit": commits["change"]},
        "seed": seed,
        "seconds": seconds,
        "summary": report(runs, directions),
        "runs": runs,
    }


def workload_metrics() -> dict:
    """Each workload's ``metrics``, from ``perfbench/workloads.py``
    loaded from its file."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: w.metrics for name, w in module.WORKLOADS.items()}


def format_report(summary: dict, defined: dict) -> str:
    """The printed form of :func:`report`: one line per workload and
    metric that ``defined[workload]`` names, then one line of its
    pairs."""
    lines = []
    for workload, table in summary.items():
        for name, s in table.items():
            if name not in defined[workload]:
                continue
            n = len(s["pairs"])
            lines.append(
                f"{workload} {name} ({s['better']} is better): parent median "
                f"{s['parent_median']:.6g}, change median {s['change_median']:.6g}, "
                f"parent IQR {s['parent_iqr']:.4g}, change better in {s['wins']} "
                f"of {n} pairs"
            )
            pairs = ", ".join(f"{p:.6g}/{c:.6g}" for p, c in s["pairs"])
            lines.append(f"  pairs (parent/change): {pairs}")
    return "\n".join(lines)


def compare(workloads, pairs: int, run_side, directions: dict) -> list:
    """Run ``pairs`` pairs of every workload; ``run_side(side, workload)``
    runs ``run.py`` in one side's tree and returns ``(exit code,
    stdout)``.  Returns the parsed runs in the order they ran."""
    runs = []
    for pair in range(pairs):
        for workload in workloads:
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                code, stdout = run_side(side, workload)
                run = {"workload": workload, "pair": pair, "side": side,
                       "exit_code": code}
                try:
                    run.update(parse_run(stdout))
                except (ValueError, IndexError, KeyError, StopIteration):
                    nan = float("nan")
                    run.update(correct=False, metrics=dict.fromkeys(directions, nan))
                runs.append(run)
                print(f"pair {pair} {workload} {side}: exit {code}, correct "
                      f"{run['correct']}", file=sys.stderr, flush=True)
    return runs


def export(commit: str, dest: Path) -> None:
    """Write the tree of ``commit`` into ``dest`` with ``git archive``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", commit], stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"bench_pairs: git archive {commit} failed")


def commit_of(ref: str) -> str:
    """The full id of the commit ``ref`` names."""
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", metavar="PARENT_REF")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    commits = {"parent": commit_of(args.parent), "change": commit_of("HEAD")}

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])

        def run_side(side, workload):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds)],
                cwd=trees[side], capture_output=True, text=True,
            )
            if proc.returncode:
                sys.stderr.write(proc.stderr[-2000:])
            return proc.returncode, proc.stdout

        runs = compare(args.workload or names, args.pairs, run_side, directions)

    doc = document(args.parent, commits, args.seed, args.seconds, runs, directions)
    print(format_report(doc["summary"], workload_metrics()))
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    ok = all(run["exit_code"] == 0 and run["correct"] is True for run in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
