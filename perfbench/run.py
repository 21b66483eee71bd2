"""relnet benchmark: closed-loop runs of ``relnet train`` and ``relnet tnd-fit``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-wide --seed 1 --seconds 30 --trace 0

One process runs one ``relnet`` command at a time, for ``--seconds``
seconds, on inputs generated from ``--seed`` before the clock starts.
Every operation is checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from
spans with ``--trace 1``.  The line before it (``env ...``) records the
environment.  README.md in this directory describes the workloads and
what each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# BLAS threads for the benchmark and every command it runs, set before
# numpy is imported.  One thread keeps timings steady on a shared
# machine: the covariance refit varies about 5x between 1 and 2 threads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import spans  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402
from workloads import WORKLOADS, sgd_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
# Two operations at least, so that outputs can be compared; a traced run
# needs two traced operations and two plain ones.
MIN_OPS = {0: 2, 1: 4}
# Seconds from the benchmark's start: no operation starts after
# HARD_STOP_S and none runs past DEADLINE_S, so a run ends within its
# 180-second budget.
HARD_STOP_S = 120.0
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "sgd_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "test_acc": "fraction",
    "rel_gap": "corr",
    "fit_loglik": "nats",
}
# Reported by workloads that do not define the metric: every workload
# prints every metric, and a constant never reads as a regression.
NOT_APPLICABLE = 1.0
TIMINGS = ("setup_s", "run_s", "sgd_rows_per_s")

# per-layer metric -> (span names joined by "+", spans.summarize field, unit)
PER_LAYER = {
    "trainer.sgd_epoch_s": ("trainer.sgd_epoch", "s", "s"),
    "trainer.batches": ("trainer.sgd_epoch", "count", "count"),
    "trainer.sgd_self_s": ("trainer.sgd_epoch", "self_s", "s"),
    "trainer.update_covariances_s": ("trainer.update_covariances", "s", "s"),
    "trainer.objective_s": ("trainer.objective", "s", "s"),
    "network.task_grad_calls": ("network.task_grad", "calls", "count"),
    "network.task_grad_s": ("network.task_grad", "s", "s"),
    "network.accuracy_calls": ("network.accuracy", "calls", "count"),
    "network.accuracy_s": ("network.accuracy", "s", "s"),
    "network.prior_penalty_s": ("network.prior_penalty", "s", "s"),
    "network.save_checkpoint_s": ("network.save_checkpoint", "s", "s"),
    "tensor_normal.apply_inverse_calls": ("tensor_normal.apply_inverse", "calls", "count"),
    "tensor_normal.apply_inverse_s": ("tensor_normal.apply_inverse", "s", "s"),
    "tensor_normal.apply_inverse_flops": (
        "tensor_normal.apply_inverse", "count", "computed-flop"
    ),
    "tensor_normal.cholesky_calls": ("tensor_normal.cholesky", "calls", "count"),
    "tensor_normal.whiten_s": ("tensor_normal.whiten", "s", "s"),
    "tensor_normal.flip_flop_s": ("tensor_normal.flip_flop", "s", "s"),
    "tensor_normal.flip_flop_sweeps": ("tensor_normal.flip_flop", "count", "count"),
    "data.load_s": ("data.load", "s", "s"),
    "data.rows_loaded": ("data.load", "count", "rows"),
    "serialize.json_write_s": ("serialize.json_write", "s", "s"),
    "serialize.csv_write_s": ("serialize.csv_write", "s", "s"),
    "serialize.bytes_written": (
        "serialize.json_write+serialize.csv_write", "count", "bytes"
    ),
    "cli.load_samples_s": ("cli.load_samples", "s", "s"),
}
# Exact counts: they must repeat across operations with the same seed.
EXACT = [m for m, (_, field, _) in PER_LAYER.items() if field in ("calls", "count")]


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_op(workload, relnet_args, work: Path, index: int, traced: bool, timeout: float):
    """Run one command to completion, check it, and return its figures."""
    out = work / f"out{index}"
    probe = work / f"probe{index}.json"
    log = work / f"op{index}.log"
    argv = [
        sys.executable,
        str(HERE / "launch.py"),
        str(probe),
        "trace" if traced else "plain",
        "--",
        *relnet_args,
        *workload.output_args(out),
    ]
    with open(log, "wb") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    op = {"traced": traced, "errors": [], "files": []}
    if proc.returncode != 0 or not probe.is_file():
        tail = log.read_text(errors="replace")[-400:]
        op["errors"].append(f"exit code {proc.returncode}: {tail}")
        return op
    doc = json.loads(probe.read_text())
    if doc["first_step"] is None:
        op["errors"].append("no SGD epoch or estimator sweep was reached")
        return op
    op["setup_s"] = doc["first_step"] - start
    op["run_s"] = end - doc["first_step"]
    op["peak_rss_mb"] = doc["peak_rss_kb"] / 1024.0
    try:
        errors, deterministic, files = workload.check(out)
        op.update(deterministic)
        op["files"] = [hashlib.sha256(p.read_bytes()).hexdigest() for p in files]
        if "sgd_rows_per_s" in workload.metrics and not errors:
            rows = doc["train_rows"] * workload.epochs
            op["sgd_rows_per_s"] = rows / sgd_seconds(out)
    except (KeyError, IndexError, ValueError, TypeError, ZeroDivisionError,
            OSError, np.linalg.LinAlgError) as exc:
        # Malformed output: the operation fails, the run goes on.
        errors = [f"malformed output: {type(exc).__name__}: {exc}"]
    op["errors"] += errors
    if traced:
        summary = spans.summarize(doc["trace"])
        op["layers"] = {
            name: sum(summary.get(s, {}).get(field, 0) for s in span_names.split("+"))
            for name, (span_names, field, _) in PER_LAYER.items()
        }
    shutil.rmtree(out, ignore_errors=True)
    return op


def scale_timings(op, scale: float) -> None:
    """Express an operation's timings at the reference speed.

    ``scale`` is ``NOMINAL_S`` over the reference time measured just
    before and after the operation.
    """
    for key in ("setup_s", "run_s"):
        if key in op:
            op[key] *= scale
    if "sgd_rows_per_s" in op:
        op["sgd_rows_per_s"] /= scale
    for name, (_, _, unit) in PER_LAYER.items():
        if unit == "s" and "layers" in op:
            op["layers"][name] *= scale


def check_repeats(ops) -> None:
    """Operations repeat one seed: outputs and exact counts must match.

    The deterministic metrics are read from the compared files, so they
    repeat when the files do.
    """
    good = [op for op in ops if not op["errors"]]
    for op in good[1:]:
        if op["files"] != good[0]["files"]:
            op["errors"].append("outputs differ from the first operation")
    traced = [op for op in good if op["traced"]]
    for op in traced[1:]:
        for key in EXACT:
            if op["layers"][key] != traced[0]["layers"][key]:
                op["errors"].append(f"{key} differs between traced operations")


def median_of(ops, key):
    values = [op[key] for op in ops if key in op]
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(workload, plain) -> dict:
    return {
        name: {
            "value": median_of(plain, name)
            if name in workload.metrics
            else NOT_APPLICABLE,
            "unit": unit,
        }
        for name, unit in END_TO_END.items()
    }


def per_layer_metrics(plain, traced) -> dict:
    metrics = {
        name: {
            "value": statistics.median(op["layers"][name] for op in traced)
            if traced
            else 0,
            "unit": unit,
        }
        for name, (_, _, unit) in PER_LAYER.items()
    }
    overhead = median_of(traced, "run_s") - median_of(plain, "run_s")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    launched = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2**32

    root = Path.cwd()
    src = root / "src"
    if not (src / "relnet" / "cli.py").is_file():
        print(f"run.py: no relnet sources under {src}; run it from the root of "
              "a checkout", file=sys.stderr)
        return 2
    # A terminated benchmark still stops and waits for its command.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # The reference computation and the commands must run on the same
    # CPU: two CPUs of a shared machine can differ in speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["PYTHONPATH"] = str(src)
    workload = WORKLOADS[args.workload]

    work = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    ops = []
    try:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(src / "relnet")],
            check=True, stdout=subprocess.DEVNULL,
        )
        relnet_args = workload.prepare(work, seed)
        reference = Reference()
        ref_s = [reference.seconds()]
        start = time.monotonic()
        while True:
            now = time.monotonic()
            enough = len(ops) >= MIN_OPS[args.trace]
            if (enough and now - start >= args.seconds) or now - launched >= HARD_STOP_S:
                break
            # A traced run alternates plain and traced operations, so the
            # tracing overhead is measured within the run.  The first is
            # plain, so no warm-up cost reads as overhead.
            traced = bool(args.trace) and len(ops) % 2 == 1
            ops.append(
                run_op(workload, relnet_args, work, len(ops), traced,
                       DEADLINE_S - (now - launched))
            )
            ref_s.append(reference.seconds())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    check_repeats(ops)
    good = [op for op in ops if not op["errors"]]
    plain = [op for op in good if not op["traced"]]
    traced = [op for op in good if op["traced"]]
    env = environment(seed)
    env["reference_s"] = statistics.median(ref_s)
    env["unscaled"] = {k: median_of(plain, k) for k in TIMINGS}
    for i, op in enumerate(ops):
        figures = " ".join(f"{k}={op[k]:.4g}" for k in TIMINGS if k in op)
        print(f"operation {i} traced={int(op['traced'])} {figures} "
              f"reference_s={ref_s[i]:.4g},{ref_s[i + 1]:.4g}", file=sys.stderr)
        scale_timings(op, NOMINAL_S / statistics.mean(ref_s[i:i + 2]))
        for err in op["errors"]:
            print(f"operation {i} failed: {err}", file=sys.stderr)

    if args.trace:
        metrics = per_layer_metrics(plain, traced)
        sgd = metrics["trainer.sgd_epoch_s"]["value"]
        if sgd:
            parts = ("tensor_normal.apply_inverse_s", "network.task_grad_s",
                     "trainer.sgd_self_s")
            split = {k: round(metrics[k]["value"] / sgd, 3) for k in parts}
            print("sgd_split " + json.dumps(split))
    else:
        metrics = end_to_end_metrics(workload, plain)
    print("env " + json.dumps(env))
    failed = len(ops) - len(good)
    print(json.dumps({
        "correct": failed == 0 and bool(ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
