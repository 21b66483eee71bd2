"""CPU time per SGD batch of one benchmark workload, without the harness.

Usage, from the repository root::

    python tools/epoch_cpu.py train-manytask            # best of 10 epochs
    python tools/epoch_cpu.py train-wide --repeat 3

The workload's inputs are written by ``perfbench/workloads.py`` (seed 1)
into a temporary directory and read back as ``relnet train`` reads
them.  One warm-up :func:`relnet.trainer.sgd_epoch` and one covariance
refit follow, so the timed epochs step in a real eigenbasis.  Each of
the ``--repeat`` timed epochs then runs on a fresh copy of the warmed-up
network and optimizer state, so every one does the same work, and is
timed by ``time.process_time``: CPU time of this process, which time
stolen by other processes on a shared machine does not inflate.  The
output is the best and the median microseconds per batch.  BLAS runs on
one thread, as in the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import importlib.util  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from relnet import trainer  # noqa: E402
from relnet.cli import (  # noqa: E402
    build_network,
    load_experiment_data,
    parse_experiment_config,
)
from relnet.serialize import load_json  # noqa: E402

SEED = 1


def _workloads():
    """``perfbench/workloads.py``'s ``WORKLOADS``, loaded from its file."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def warmed_up(workload) -> tuple:
    """``(net, cov, data, cfg, state)`` of the workload after one epoch
    and one covariance refit."""
    with tempfile.TemporaryDirectory() as tmp:
        args = workload.prepare(Path(tmp), SEED)
        config = Path(args[args.index("--config") + 1])
        exp = parse_experiment_config(load_json(config), config.parent)
        data, _ = load_experiment_data(exp)
    net, cfg = build_network(exp, data), exp.train_cfg
    cov = trainer.CovarianceState.identity_for(net.stack, cfg.shared_task_sigma)
    state = trainer.OptimizerState.zeros_like(net)
    trainer.sgd_epoch(net, cov, data, cfg, state)
    if cfg.prior_weight > 0.0:
        cov = trainer.update_covariances(net.stack, cov, cfg)
    return net, cov, data, cfg, state


def epoch_seconds(net, cov, data, cfg, state, repeat: int) -> list:
    """CPU seconds of ``repeat`` epochs, each on copies of ``net`` and
    ``state``."""
    seconds = []
    for _ in range(repeat):
        run_net, run_state = copy.deepcopy(net), copy.deepcopy(state)
        start = time.process_time()
        trainer.sgd_epoch(run_net, cov, data, cfg, run_state)
        seconds.append(time.process_time() - start)
    return seconds


def main(argv=None) -> int:
    workloads = {name: w for name, w in _workloads().items() if w.epochs > 0}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(workloads))
    parser.add_argument("--repeat", type=int, default=10, help="timed epochs")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    net, cov, data, cfg, state = warmed_up(workloads[args.workload])
    batches = math.ceil(sum(data.task_sizes) / cfg.batch_size)
    seconds = epoch_seconds(net, cov, data, cfg, state, args.repeat)
    per_batch = [s / batches * 1e6 for s in seconds]
    print(
        f"{args.workload}: {batches} batches of {cfg.batch_size} rows, "
        f"{args.repeat} timed epoch(s): best {min(per_batch):.1f} us, "
        f"median {statistics.median(per_batch):.1f} us per batch"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
