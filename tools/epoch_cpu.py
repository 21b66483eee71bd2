"""CPU time per SGD batch, per end-of-epoch scoring or per flip-flop
sweep of one benchmark workload.

It runs without the benchmark harness, ``perfbench/run.py``.

Usage, from the repository root::

    python tools/epoch_cpu.py train-manytask            # best of 10 epochs
    python tools/epoch_cpu.py train-wide --repeat 3
    python tools/epoch_cpu.py tnd-fit                   # best of 10 fits

The workload's inputs are written by ``perfbench/workloads.py`` (seed 1)
into a temporary directory and read back as ``relnet train`` or
``relnet tnd-fit`` reads them.

For a training workload, one warm-up :func:`relnet.trainer.sgd_epoch`
and one covariance refit follow, so the timed epochs step in a real
eigenbasis.  Each of the ``--repeat`` timed epochs then runs on a fresh
copy of the warmed-up network and optimizer state, so every one does
the same work.  The output is the best and the median microseconds per
batch, then the best and the median milliseconds of ``--repeat`` timed
end-of-epoch scorings of the warmed-up network: one
:func:`relnet.network.fold_scores` call per fold, on the training fold
and on the held-out fold if the workload has one, as
:func:`relnet.trainer.train` scores them.

For ``tnd-fit``, one warm-up :func:`relnet.tensor_normal.flip_flop_mle`
fit of the samples runs, then ``--repeat`` timed fits of the same
samples.  The output is the best and the median milliseconds per sweep:
a fit's time, its set-up and starting log-likelihood included, over its
sweep count.

Every timing is ``time.process_time``: CPU time of this process, which
time stolen by other processes on a shared machine does not inflate.
BLAS runs on one thread, as in the benchmark.
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
    _load_tnd_samples,
    build_network,
    load_experiment_data,
    parse_experiment_config,
)
from relnet.network import fold_scores  # noqa: E402
from relnet.serialize import load_json  # noqa: E402
from relnet.tensor_normal import flip_flop_mle, mle_mean  # noqa: E402

SEED = 1


def _workloads():
    """``perfbench/workloads.py``'s ``WORKLOADS``, loaded from its file."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def warmed_up(workload) -> tuple:
    """``(net, cov, data, eval_data, cfg, state)`` of the workload after
    one epoch and one covariance refit; ``eval_data`` is the held-out
    fold, or None."""
    with tempfile.TemporaryDirectory() as tmp:
        args = workload.prepare(Path(tmp), SEED)
        config = Path(args[args.index("--config") + 1])
        exp = parse_experiment_config(load_json(config), config.parent)
        data, eval_data = load_experiment_data(exp)
    net, cfg = build_network(exp, data), exp.train_cfg
    cov = trainer.CovarianceState.identity_for(net.stack, cfg.shared_task_sigma)
    state = trainer.OptimizerState.zeros_like(net)
    trainer.sgd_epoch(net, cov, data, cfg, state)
    if cfg.prior_weight > 0.0:
        cov = trainer.update_covariances(net.stack, cov, cfg)
    return net, cov, data, eval_data, cfg, state


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


def scoring_seconds(net, folds, repeat: int) -> list:
    """CPU seconds of ``repeat`` scorings of every fold in ``folds``."""
    seconds = []
    for _ in range(repeat):
        start = time.process_time()
        for fold in folds:
            fold_scores(net, fold)
        seconds.append(time.process_time() - start)
    return seconds


def batch_report(workload, repeat: int) -> str:
    """CPU microseconds per SGD batch over ``repeat`` timed epochs, and
    CPU milliseconds of ``repeat`` timed end-of-epoch scorings."""
    net, cov, data, eval_data, cfg, state = warmed_up(workload)
    batches = math.ceil(sum(data.task_sizes) / cfg.batch_size)
    seconds = epoch_seconds(net, cov, data, cfg, state, repeat)
    per_batch = [s / batches * 1e6 for s in seconds]
    folds = [fold for fold in (data, eval_data) if fold is not None]
    scoring = [s * 1e3 for s in scoring_seconds(net, folds, repeat)]
    rows = " + ".join(str(sum(fold.task_sizes)) for fold in folds)
    return (
        f"{workload.name}: {batches} batches of {cfg.batch_size} rows, "
        f"{repeat} timed epoch(s): best {min(per_batch):.1f} us, "
        f"median {statistics.median(per_batch):.1f} us per batch\n"
        f"{workload.name}: scoring of {len(folds)} fold(s) of {rows} rows, "
        f"{repeat} timed scoring(s): best {min(scoring):.2f} ms, "
        f"median {statistics.median(scoring):.2f} ms per epoch"
    )


def sweep_report(workload, repeat: int) -> str:
    """CPU milliseconds per flip-flop sweep over ``repeat`` timed fits,
    after one warm-up fit."""
    with tempfile.TemporaryDirectory() as tmp:
        args = workload.prepare(Path(tmp), SEED)
        samples = _load_tnd_samples(Path(args[args.index("--input") + 1]))
    mean = mle_mean(samples)
    flip_flop_mle(samples, mean)
    per_sweep = []
    for _ in range(repeat):
        start = time.process_time()
        fit = flip_flop_mle(samples, mean)
        per_sweep.append((time.process_time() - start) / fit.iterations * 1e3)
    return (
        f"{workload.name}: {samples.shape[0]} samples of dims "
        f"{samples.shape[1:]}, {fit.iterations} sweeps per fit, {repeat} "
        f"timed fit(s): best {min(per_sweep):.2f} ms, "
        f"median {statistics.median(per_sweep):.2f} ms per sweep"
    )


def main(argv=None) -> int:
    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(workloads))
    parser.add_argument(
        "--repeat", type=int, default=10, help="timed epochs, or timed fits"
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    workload = workloads[args.workload]
    report = batch_report if workload.epochs > 0 else sweep_report
    print(report(workload, args.repeat))
    return 0


if __name__ == "__main__":
    sys.exit(main())
