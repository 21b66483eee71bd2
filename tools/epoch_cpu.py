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
and one covariance refit follow, so the timed epochs' proximal prior
steps work in a real eigenbasis.  Each of the ``--repeat`` timed epochs
then runs on a fresh copy of the warmed-up network and optimizer state,
so every one does the same work.  The output is the best and the median
microseconds per batch; then those of the gradient kernel alone, the
calls of :func:`relnet.network._gradients_into` within ``--repeat``
more such epochs, each call timed on its own; then the best and the
median microseconds per epoch of the prior's proximal steps, the calls
of ``relnet.trainer._prox_step`` within ``--repeat`` more epochs, timed
alike.  The rest of an epoch's time is its own bookkeeping.  Then the
best and the median milliseconds of
``--repeat`` timed end-of-epoch scorings of the warmed-up network: one
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
BLAS runs on one thread, as in the benchmark, and the process is
pinned to one CPU.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import functools  # noqa: E402
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
    load_config,
    load_experiment_data,
)
from relnet.network import fold_scores  # noqa: E402
from relnet.tensor_normal import flip_flop_mle, mle_mean  # noqa: E402

SEED = 1


def _perfbench(name: str):
    """The module ``perfbench/<name>.py``, loaded from its file."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def timed(calls) -> tuple:
    """``(results, seconds)`` of the zero-argument ``calls``, run in
    turn: their return values and their CPU seconds."""
    results, seconds = [], []
    for call in calls:
        start = time.process_time()
        results.append(call())
        seconds.append(time.process_time() - start)
    return results, seconds


def best_median(values, unit: str, digits: int) -> str:
    """The best and the median of ``values``, in ``unit``."""
    return (
        f"best {min(values):.{digits}f} {unit}, "
        f"median {statistics.median(values):.{digits}f} {unit}"
    )


def warmed_up(workload) -> tuple:
    """``(net, cov, data, eval_data, cfg, state)`` of the workload after
    one epoch and one covariance refit; ``eval_data`` is the held-out
    fold, or None."""
    with tempfile.TemporaryDirectory() as tmp:
        args = workload.prepare(Path(tmp), SEED)
        exp = load_config(args[args.index("--config") + 1])
        data, eval_data = load_experiment_data(exp)
    net, cfg = build_network(exp, data), exp.train_cfg
    cov = trainer.CovarianceState.identity_for(net.stack, cfg.shared_task_sigma)
    state = trainer.OptimizerState.zeros_like(net)
    trainer.sgd_epoch(net, cov, data, cfg, state)
    if cfg.prior_weight > 0.0:
        cov = trainer.update_covariances(net.stack, cov, cfg)
    return net, cov, data, eval_data, cfg, state


def seconds_in(name: str, net, cov, data, cfg, state) -> float:
    """CPU seconds that ``relnet.trainer.<name>`` takes in one
    ``sgd_epoch`` on copies of ``net`` and ``state``, timed call by
    call: the epoch's gradient kernel, ``_gradients_into``, or its
    proximal prior steps, ``_prox_step``."""
    original, spent = getattr(trainer, name), []

    def timed_call(*args):
        start = time.process_time()
        original(*args)
        spent.append(time.process_time() - start)

    setattr(trainer, name, timed_call)
    try:
        trainer.sgd_epoch(copy.deepcopy(net), cov, data, cfg, copy.deepcopy(state))
    finally:
        setattr(trainer, name, original)
    return sum(spent)


def batch_report(workload, repeat: int) -> str:
    """CPU microseconds per SGD batch over ``repeat`` timed epochs, each
    on copies of the warmed-up network and optimizer state, and CPU
    milliseconds of ``repeat`` timed end-of-epoch scorings."""
    net, cov, data, eval_data, cfg, state = warmed_up(workload)
    batches = math.ceil(sum(data.task_sizes) / cfg.batch_size)
    epochs = [
        functools.partial(
            trainer.sgd_epoch, copy.deepcopy(net), cov, data, cfg, copy.deepcopy(state)
        )
        for _ in range(repeat)
    ]
    _, epoch_s = timed(epochs)
    per_batch = [s / batches * 1e6 for s in epoch_s]
    spent = functools.partial(seconds_in, net=net, cov=cov, data=data, cfg=cfg,
                              state=state)
    per_kernel = [spent("_gradients_into") / batches * 1e6 for _ in range(repeat)]
    per_prox = [spent("_prox_step") * 1e6 for _ in range(repeat)]
    proxes = -(-batches // trainer.PROX_EVERY) if cfg.prior_weight > 0.0 else 0
    folds = [fold for fold in (data, eval_data) if fold is not None]

    def score():
        for fold in folds:
            fold_scores(net, fold)

    _, score_s = timed([score] * repeat)
    scoring = [s * 1e3 for s in score_s]
    rows = " + ".join(str(sum(fold.task_sizes)) for fold in folds)
    return (
        f"{workload.name}: {batches} batches of {cfg.batch_size} rows, "
        f"{repeat} timed epoch(s), per batch: "
        f"{best_median(per_batch, 'us', 1)}\n"
        f"{workload.name}: gradient kernel alone, {repeat} timed epoch(s), per "
        f"batch: {best_median(per_kernel, 'us', 1)}\n"
        f"{workload.name}: prior prox, {proxes} per epoch, {repeat} timed "
        f"epoch(s), per epoch: {best_median(per_prox, 'us', 1)}\n"
        f"{workload.name}: scoring of {len(folds)} fold(s) of {rows} rows, "
        f"{repeat} timed scoring(s), per epoch: {best_median(scoring, 'ms', 2)}"
    )


def sweep_report(workload, repeat: int) -> str:
    """CPU milliseconds per flip-flop sweep over ``repeat`` timed fits,
    after one warm-up fit."""
    with tempfile.TemporaryDirectory() as tmp:
        args = workload.prepare(Path(tmp), SEED)
        samples = _load_tnd_samples(Path(args[args.index("--input") + 1]))
    mean = mle_mean(samples)
    flip_flop_mle(samples, mean)
    fits, fit_s = timed([functools.partial(flip_flop_mle, samples, mean)] * repeat)
    per_sweep = [s / fit.iterations * 1e3 for s, fit in zip(fit_s, fits)]
    return (
        f"{workload.name}: {samples.shape[0]} samples of dims "
        f"{samples.shape[1:]}, {fits[0].iterations} sweeps per fit, {repeat} "
        f"timed fit(s), per sweep: {best_median(per_sweep, 'ms', 2)}"
    )


def main(argv=None) -> int:
    workloads = _perfbench("workloads").WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(workloads))
    parser.add_argument(
        "--repeat", type=int, default=10, help="timed epochs, or timed fits"
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads[args.workload]
    report = batch_report if workload.epochs > 0 else sweep_report
    print(report(workload, args.repeat))
    return 0


if __name__ == "__main__":
    sys.exit(main())
