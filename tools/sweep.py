"""A grid of ``relnet train`` runs on a benchmark workload's config, as
one deterministic table.

Usage, from the repository root::

    python tools/sweep.py CONFIG --set train.prior_weight=0,1e-6,1e-4
        [--set KEY=V1,V2,...] [--seeds 1,4,7] [--data-seeds 101,102]

``CONFIG`` names a train workload of ``perfbench/workloads.py``
(``train-wide`` or ``train-manytask``), which is loaded read-only: for
each data seed the workload writes its inputs and its config into a
temporary directory, as the benchmark does.  Each ``--set`` takes a
dotted config key and a comma-separated list of JSON values; the grid
is every combination of them, at every data seed (default 101) and
training seed (``train.seed``, default 0).  The values are JSON texts
split at the commas between them, so a list or a matrix is one value:
``--set 'model.trunk_widths=[],[64,32]'`` is two, and strings are
quoted, ``--set 'train.lr_schedule="inv","constant"'``.  The table shows
each value as written, without the whitespace around it, up to 32
characters; a longer one, such as a matrix, as its first 16 characters,
``…`` and the first 8 hex digits of the SHA-256 of its whole text, so
distinct values keep distinct labels.  Seeds are
lists like ``1,4,7`` or ascending ranges like ``1-12``.  Malformed
values and empty ranges are argument errors (exit 2).

Every grid point is one ``relnet train`` in a fresh interpreter with 1
BLAS thread.  Its row gives the exit code, the final mean held-out
``test_acc`` and ``rel_gap`` as the workload's own check computes them
(``-`` where the workload does not define one), the same two figures
of the point's ``train.prior_weight`` 0 baseline, and the last line
the run wrote to stderr, or the check's complaint, if any.

A second table follows, after a blank line: one row per grid point
(one combination of the ``--set`` values), over all of its data seeds
and training seeds.  It gives the point's run count and count of
non-zero exits, and the median, minimum and interquartile range (numpy's
linear percentiles) of ``test_acc`` and of ``rel_gap`` over the runs
that report them.  Neither table holds times, so at a fixed BLAS thread
count two sweeps print the same bytes.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def workloads() -> dict:
    """``WORKLOADS`` of ``perfbench/workloads.py``, loaded from its file."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def seed_list(text: str) -> list:
    """``1,4,7`` or ``1-12`` (or a mix) as a list of ints; an empty
    range such as ``12-1`` is an error."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        span = range(int(first), int(last or first) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds += span
    return seeds


# What JSON counts as whitespace.
_SPACE = re.compile(r"[ \t\n\r]*")


def setting(text: str) -> tuple:
    """``KEY=V1,V2`` as ``(KEY, [V1, V2])``: the values are JSON texts
    separated by commas, each kept as written without the whitespace
    around it."""
    key, sep, values = text.partition("=")
    if not sep or not key or not values:
        raise argparse.ArgumentTypeError(f"expected KEY=V1,V2,..., got {text!r}")
    decoder, items, pos = json.JSONDecoder(), [], 0
    while True:
        pos = _SPACE.match(values, pos).end()
        try:
            _, end = decoder.raw_decode(values, pos)
        except json.JSONDecodeError as err:
            raise argparse.ArgumentTypeError(
                f"{text!r}: {err.msg} at character {err.pos} of the values"
            ) from None
        items.append(values[pos:end])
        pos = _SPACE.match(values, end).end()
        if pos == len(values):
            return key, items
        if values[pos] != ",":
            raise argparse.ArgumentTypeError(
                f"{text!r}: expected ',' at character {pos} of the values"
            )
        pos += 1


def configured(doc: dict, assignments) -> dict:
    """A copy of the config ``doc`` with each ``(dotted key, JSON value
    text)`` of ``assignments`` set."""
    doc = copy.deepcopy(doc)
    for key, value in assignments:
        *path, last = key.split(".")
        node = doc
        for part in path:
            node = node.setdefault(part, {})
        node[last] = json.loads(value)
    return doc


class Runner:
    """Runs ``relnet train`` on configs in one workload's prepared
    directory and keeps each result, so a point and its baseline that
    are the same config run once."""

    def __init__(self, workload, work: Path):
        self.workload, self.work, self.results = workload, work, {}
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def __call__(self, doc: dict) -> tuple:
        """``(exit code, test_acc, rel_gap, message)`` of training on
        ``doc``."""
        text = json.dumps(doc, sort_keys=True)
        if text not in self.results:
            run = self.work / f"run{len(self.results)}"
            cfg = self.work / f"{run.name}.json"
            cfg.write_text(text, encoding="utf-8")
            proc = subprocess.run(
                [sys.executable, "-m", "relnet", "train", "--config", str(cfg),
                 *self.workload.output_args(run)],
                env=self.env, capture_output=True, text=True,
            )
            lines = proc.stderr.strip().splitlines()
            message = lines[-1] if lines else ""
            acc = gap = None
            if proc.returncode == 0:
                # The workload checks the epochs its own config asks for.
                check = copy.copy(self.workload)
                check.epochs = doc["train"]["epochs"]
                errors, metrics, _ = check.check(run)
                acc, gap = metrics.get("test_acc"), metrics.get("rel_gap")
                message = message or "; ".join(errors)
            self.results[text] = (proc.returncode, acc, gap, message)
        return self.results[text]


def label(value: str) -> str:
    """The JSON value text ``value`` as the table shows it."""
    if len(value) <= 32:
        return value
    return value[:16] + "…" + hashlib.sha256(value.encode()).hexdigest()[:8]


def figure(value) -> str:
    return "-" if value is None else f"{value:.4f}"


def markdown(header: list, rows: list) -> str:
    """One Markdown table."""
    lines = [header, ["---"] * len(header), *rows]
    return "".join("| " + " | ".join(line) + " |\n" for line in lines)


def summary(runs: list) -> list:
    """The cells of one grid point's summary row over its ``runs``, each
    ``(exit code, test_acc, rel_gap)``: the run count, the count of
    non-zero exits, then the median, minimum and interquartile range of
    each figure over the runs that have it (``-`` where none has)."""
    cells = [str(len(runs)), str(sum(code != 0 for code, _, _ in runs))]
    for values in zip(*(run[1:] for run in runs)):
        values = [v for v in values if v is not None]
        if not values:
            cells += ["-"] * 3
            continue
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        cells += [figure(median), figure(min(values)), figure(q3 - q1)]
    return cells


def sweep(name: str, settings: list, seeds: list, data_seeds: list) -> str:
    """The Markdown table of the grid's runs, then the table of its
    points' summaries."""
    workload = workloads()[name]
    keys = [key for key, _ in settings]
    header = [*keys, "data seed", "seed", "exit", "test_acc", "rel_gap",
              "λ0 test_acc", "λ0 rel_gap", "error"]
    rows, points = [], {}
    for data_seed in data_seeds:
        with tempfile.TemporaryDirectory(prefix="sweep-") as tmp:
            work = Path(tmp)
            args = workload.prepare(work, data_seed)
            config = Path(args[args.index("--config") + 1])
            base = json.loads(config.read_text(encoding="utf-8"))
            run = Runner(workload, work)
            for values in itertools.product(*(v for _, v in settings)):
                for seed in seeds:
                    fixed = [*zip(keys, values), ("train.seed", str(seed))]
                    code, acc, gap, message = run(configured(base, fixed))
                    points.setdefault(values, []).append((code, acc, gap))
                    _, acc0, gap0, _ = run(
                        configured(base, [*fixed, ("train.prior_weight", "0")])
                    )
                    rows.append([
                        *map(label, values), str(data_seed), str(seed), str(code),
                        figure(acc), figure(gap), figure(acc0), figure(gap0), message,
                    ])
    stats = [f"{fig} {stat}" for fig in ("test_acc", "rel_gap")
             for stat in ("median", "min", "IQR")]
    return markdown(header, rows) + "\n" + markdown(
        [*keys, "runs", "non-zero exits", *stats],
        [[*map(label, values), *summary(runs)] for values, runs in points.items()],
    )


def main(argv=None) -> int:
    names = sorted(n for n, w in workloads().items() if w.epochs > 0)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("config", metavar="CONFIG", choices=names)
    parser.add_argument("--set", dest="settings", type=setting, action="append",
                        default=[], metavar="KEY=V1,V2,...")
    parser.add_argument("--seeds", type=seed_list, default=[0])
    parser.add_argument("--data-seeds", type=seed_list, default=[101])
    args = parser.parse_args(argv)
    sys.stdout.write(sweep(args.config, args.settings, args.seeds, args.data_seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
