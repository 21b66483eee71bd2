"""Span recording around calls into relnet, and the per-layer metrics
computed from the recorded spans.

The recorder replaces module attributes of the already-imported
``relnet`` package with thin wrappers; nothing inside the program is
edited.  Each wrapped call appends one span ``(name, start, end,
parent, count)`` in memory, and the launcher writes the spans out
once the command has returned.  ``count`` is an exact figure computed
from the call's arguments or result (batches, flops, sweeps, rows,
bytes).

A target whose attribute no longer exists is skipped, so its metrics
read 0 calls instead of the benchmark failing.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from array import array


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _batches(fn, args, kwargs, out):
    data = _bound(fn, args, kwargs, "data")
    cfg = _bound(fn, args, kwargs, "cfg")
    return math.ceil(sum(data.task_sizes) / cfg.batch_size)


def _apply_inverse_flops(fn, args, kwargs, out):
    # Two triangular solves per mode, each d_k^2 flops per right-hand
    # side, over D / d_k right-hand sides: 2 * D * sum(d_k) in total.
    return 2 * out.size * sum(out.shape)


def _sweeps(fn, args, kwargs, out):
    return out.iterations


def _rows(fn, args, kwargs, out):
    return sum(sum(ds.task_sizes) for ds in out if ds is not None)


def _bytes_written(fn, args, kwargs, out):
    path = _bound(fn, args, kwargs, "path")
    # timings.csv holds wall-clock values, so its length varies from run
    # to run; leaving it out keeps the byte count exact.
    if os.path.basename(path) == "timings.csv":
        return 0
    return os.path.getsize(path)


# (span name, module, attribute path, exact count computed per call)
TARGETS = (
    ("trainer.sgd_epoch", "relnet.trainer", "sgd_epoch", _batches),
    ("trainer.update_covariances", "relnet.trainer", "update_covariances", None),
    ("trainer.objective", "relnet.trainer", "objective", None),
    ("network.task_grad", "relnet.network", "_batch_task_gradients", None),
    ("network.accuracy", "relnet.network", "accuracy", None),
    ("network.prior_penalty", "relnet.network", "prior_penalty", None),
    ("network.save_checkpoint", "relnet.network", "save_checkpoint", None),
    (
        "tensor_normal.apply_inverse",
        "relnet.tensor_normal",
        "KronCovariance.apply_inverse",
        _apply_inverse_flops,
    ),
    ("tensor_normal.whiten", "relnet.tensor_normal", "KronCovariance.whiten", None),
    ("tensor_normal.whiten", "relnet.tensor_normal", "_whiten", None),
    ("tensor_normal.cholesky", "relnet.tensor_normal", "SpdFactor.__init__", None),
    ("tensor_normal.flip_flop", "relnet.tensor_normal", "flip_flop_mle", _sweeps),
    ("data.load", "relnet.cli", "load_experiment_data", _rows),
    ("serialize.json_write", "relnet.serialize", "dump_json", _bytes_written),
    ("serialize.csv_write", "relnet.serialize", "write_csv_rows", _bytes_written),
    ("cli.load_samples", "relnet.cli", "_load_tnd_samples", None),
)


def _train_rows(fn, args, kwargs):
    return sum(_bound(fn, args, kwargs, "data").task_sizes)


# Calls that end the program's set-up: the first SGD epoch or the first
# estimator sweep.  (module, attribute path, figure taken from the
# first call's arguments or None)
FIRST_STEP = (
    ("relnet.trainer", "sgd_epoch", _train_rows),
    ("relnet.tensor_normal", "flip_flop_mle", None),
)


def _replace(module_name, path, make_wrapper) -> None:
    """Swap ``module.path`` for ``make_wrapper(original)``.

    A module-level function is replaced in every loaded ``relnet``
    module that imported it by name; a method is replaced on its class.
    Nothing happens when the attribute does not exist.
    """
    *owner_path, attr = path.split(".")
    owner = sys.modules.get(module_name)
    for part in owner_path:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None)
    if original is None:
        return
    wrapper = make_wrapper(original)
    if owner_path:
        setattr(owner, attr, wrapper)
        return
    for name, mod in list(sys.modules.items()):
        if (name == "relnet" or name.startswith("relnet.")) and getattr(
            mod, attr, None
        ) is original:
            setattr(mod, attr, wrapper)


def install_first_step_probe() -> dict:
    """Record the monotonic clock at the first call of any ``FIRST_STEP``
    target, and the number of training rows the first SGD epoch is given.

    Returns the dict that receives ``first_step`` and, for training,
    ``train_rows`` (absent until then).
    """
    marks = {}

    def make(figure, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if "first_step" not in marks:
                marks["first_step"] = time.monotonic()
                if figure is not None:
                    marks["train_rows"] = figure(fn, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    for module_name, path, figure in FIRST_STEP:
        _replace(module_name, path, functools.partial(make, figure))
    return marks


class Recorder:
    """Spans of the wrapped ``TARGETS`` calls, kept in memory.

    Spans are stored column-wise in typed arrays: tens of thousands of
    tuples would be tracked by the cyclic garbage collector and slow the
    traced program down.  A span's count is 0 when it has none.
    """

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = [-1]

    def _wrap(self, name, count, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, starts, ends, counts = (
            self.name, self.parent, self.start, self.end, self.count
        )
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            counts.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                counts[index] = count(fn, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists."""
        for name, module_name, path, count in TARGETS:
            _replace(module_name, path, functools.partial(self._wrap, name, count))

    def dump(self) -> dict:
        columns = ("name", "parent", "start", "end", "count")
        return {"names": self.names, **{c: getattr(self, c).tolist() for c in columns}}


def summarize(doc: dict) -> dict:
    """Per span name: calls, outermost seconds, self seconds, count sum.

    Seconds count only spans with no ancestor of the same name, so a
    wrapped function that calls another wrapped function of the same
    span name is not counted twice.  Self seconds subtract the time
    covered by direct children (children of one span never overlap,
    since the program runs in one thread).
    """
    names, name, parent = doc["names"], doc["name"], doc["parent"]
    duration = [e - s for s, e in zip(doc["start"], doc["end"])]
    child_time = [0.0] * len(name)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += duration[i]
    out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0} for n in names}
    for i, nid in enumerate(name):
        entry = out[names[nid]]
        entry["calls"] += 1
        entry["count"] += doc["count"][i]
        ancestor = parent[i]
        while ancestor >= 0 and name[ancestor] != nid:
            ancestor = parent[ancestor]
        if ancestor < 0:
            entry["s"] += duration[i]
            entry["self_s"] += duration[i] - child_time[i]
    return out
