"""Multi-task feed-forward classifier with stacked task-specific layers.

The network is a shared trunk of dense layers followed by a stack of
task-specific layers.  Every task owns one slice of each stack layer:
layer ``l`` keeps its per-task weight matrices in a single order-3
tensor of shape ``(D_in, D_out, T)`` with tasks along the third mode,
which is exactly the arrangement the tensor-normal prior expects.

The prior couples tasks through layer-wise Kronecker-factored
covariances (feature mode, output mode, task mode).  Biases are not
regularized.  All parameter gradients are computed by hand with
reverse-mode accumulation; the softmax/cross-entropy pair is fused so
losses and gradients stay finite for logits of any magnitude.  Every
loss and accuracy the program reports, in training and in ``relnet
eval``, comes from :func:`fold_scores`, one pass per fold.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .serialize import (
    BinaryArray,
    ConfigError,
    check_task_names,
    dump_json,
    read_json_object,
    read_object,
)
from .tensor_normal import KronCovariance

__all__ = [
    "DenseLayer",
    "TaskLayerStack",
    "MultiTaskNet",
    "Gradients",
    "init_network",
    "logits",
    "forward",
    "fold_scores",
    "softmax",
    "batch_gradients",
    "prior_penalty",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_SCHEMA_VERSION = 2


@dataclass
class DenseLayer:
    """One shared dense layer: ``relu(x @ weight + bias)``."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.ndim != 2:
            raise ValueError(f"weight must be a matrix, got ndim {self.weight.ndim}")
        if self.bias.shape != (self.weight.shape[1],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match out dim "
                f"{self.weight.shape[1]}"
            )


@dataclass
class TaskLayerStack:
    """Task-specific layers stored as stacked order-3 weight tensors.

    ``weights[l][:, :, t]`` is the weight matrix of layer ``layer_ids[l]``
    for task ``t``; ``biases[l][t]`` is the matching bias row.  The last
    layer uses a softmax output, earlier ones ReLU.
    """

    layer_ids: list
    weights: list
    biases: list

    def __post_init__(self):
        n = len(self.layer_ids)
        if n == 0:
            raise ValueError("stack needs at least one task-specific layer")
        if len(set(self.layer_ids)) != n:
            raise ValueError("stack layer ids must be unique")
        if not len(self.weights) == len(self.biases) == n:
            raise ValueError("stack fields must have one entry per layer id")
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        tasks = None
        for lid, w, b in zip(self.layer_ids, self.weights, self.biases):
            if w.ndim != 3:
                raise ValueError(f"layer {lid!r}: weights must be order-3 tensors")
            din, dout, t = w.shape
            if tasks is None:
                tasks = t
            elif t != tasks:
                raise ValueError(f"layer {lid!r}: inconsistent task count")
            if b.shape != (t, dout):
                raise ValueError(
                    f"layer {lid!r}: bias shape {b.shape} != {(t, dout)}"
                )
        for prev, nxt in zip(self.weights, self.weights[1:]):
            if nxt.shape[0] != prev.shape[1]:
                raise ValueError("stack layer dims do not chain")

    @property
    def num_tasks(self) -> int:
        return self.weights[0].shape[2]

    @property
    def num_layers(self) -> int:
        return len(self.layer_ids)


@dataclass
class MultiTaskNet:
    """Shared trunk plus task-specific stack, all parameters in one buffer.

    ``params`` is one contiguous float64 vector: the trunk layers, then
    the stack layers, each layer's weights before its bias.  The net
    makes every ``trunk[i].weight``/``.bias`` and ``stack.weights[l]``/
    ``.biases[l]`` a view of it; ``stack_start`` is where the stack
    segment begins.  Write into a layer array to change it: rebinding
    it (``layer.weight = x``) detaches it from ``params``, and training
    no longer moves it.  ``input_dim``, ``num_classes`` and
    ``num_tasks`` are read off the layer arrays.
    """

    trunk: list
    stack: TaskLayerStack
    input_dim: int = field(init=False)
    num_classes: int = field(init=False)
    num_tasks: int = field(init=False)
    params: np.ndarray = field(init=False, repr=False)
    stack_start: int = field(init=False, repr=False)

    def __post_init__(self):
        stack = self.stack
        weights = [layer.weight for layer in self.trunk] + stack.weights[:1]
        for i, (prev, nxt) in enumerate(zip(weights, weights[1:])):
            if nxt.shape[0] != prev.shape[1]:
                raise ValueError(
                    f"layer {i + 1} takes input dim {nxt.shape[0]}, "
                    f"layer {i} produces {prev.shape[1]}"
                )
        self.input_dim = weights[0].shape[0]
        self.num_classes = stack.weights[-1].shape[1]
        self.num_tasks = stack.num_tasks
        named = []
        for i, layer in enumerate(self.trunk):
            named.append((f"trunk layer {i}", layer.weight, layer.bias))
        for lid, w, b in zip(stack.layer_ids, stack.weights, stack.biases):
            named.append((f"stack layer {lid!r}", w, b))
        self._layout, end = [], 0
        for name, w, b in named:
            for what, arr in (("weights", w), ("bias", b)):
                self._layout.append((f"{name} {what}", arr.shape, end, end + arr.size))
                end += arr.size
        self.params = np.concatenate([a.ravel() for _, w, b in named for a in (w, b)])
        trunk_w, trunk_b, stack.weights[:], stack.biases[:] = self._split(self.params)
        for layer, w, b in zip(self.trunk, trunk_w, trunk_b):
            layer.weight, layer.bias = w, b
        self.stack_start = self._layout[2 * len(self.trunk)][2]

    def __deepcopy__(self, memo):
        # Copying the views one by one would leave the copy's layer
        # arrays apart from its params; rebuilding binds them.
        return replace(
            self,
            trunk=copy.deepcopy(self.trunk, memo),
            stack=copy.deepcopy(self.stack, memo),
        )

    def segments(self, vec) -> list:
        """``(name, view)`` per parameter array, in buffer order: views of
        ``vec``, any vector laid out like :attr:`params` (a gradient, a
        velocity), named like ``"stack layer 'classifier' weights"``."""
        return [(name, vec[a:b].reshape(shape)) for name, shape, a, b in self._layout]

    def first_nonfinite(self, vec) -> str | None:
        """Name of the first segment of ``vec`` that is not all finite.

        A finite squared norm proves every entry finite, so only a norm
        that is not, a bad entry's or an overflow's, leads to the scan.
        ``np.vdot`` forms it without the overflow warning of ``@``.
        """
        if math.isfinite(np.vdot(vec, vec)):
            return None
        bad = (name for name, v in self.segments(vec) if not np.isfinite(v).all())
        return next(bad, None)

    def _split(self, vec) -> tuple:
        """Views of ``vec`` as the four lists of :class:`Gradients`."""
        views = [view for _, view in self.segments(vec)]
        n = 2 * len(self.trunk)
        return views[0:n:2], views[1:n:2], views[n::2], views[n + 1 :: 2]


@dataclass
class Gradients:
    """Parameter gradients mirroring the network's storage layout.

    Stack gradients are dense ``(D_in, D_out, T)`` weight and ``(T,
    D_out)`` bias tensors; the slices of tasks without an example in
    the batch are zero.  From :func:`batch_gradients`, the four lists
    are views of ``flat``, a vector with the layout of
    :attr:`MultiTaskNet.params`, and every array is in the network's
    own basis.
    """

    trunk_weights: list = field(default_factory=list)
    trunk_biases: list = field(default_factory=list)
    stack_weights: list = field(default_factory=list)
    stack_biases: list = field(default_factory=list)
    flat: np.ndarray | None = None

    @classmethod
    def empty_like(cls, net: MultiTaskNet) -> "Gradients":
        """An unfilled ``flat`` vector laid out like ``net.params``, and
        the four lists as its views."""
        flat = np.empty_like(net.params)
        return cls(*net._split(flat), flat=flat)


def init_network(
    input_dim: int,
    trunk_widths: Sequence[int],
    stack_widths: Sequence[int],
    num_tasks: int,
    rng: np.random.Generator,
    tied_tasks: bool = False,
) -> MultiTaskNet:
    """Build a network with seeded Gaussian weights and zero biases.

    ``stack_widths`` lists the output widths of the task-specific
    layers; the last entry is the class count.  Weights are drawn with
    standard deviation ``1/sqrt(fan_in)`` in a fixed order (trunk first,
    then stack), so a given generator state yields one network.  The
    last stack layer is ``classifier``; one layer before it is
    ``bottleneck``, several are ``bottleneck1``, ``bottleneck2``, ...

    With ``tied_tasks`` every task starts from the same stack weights
    (one draw broadcast across tasks), modelling tasks that branch off
    a common starting point.  Without it each task's slice is an
    independent draw, so hidden units of different tasks live in
    unrelated bases and elementwise cross-task coupling is meaningless
    for hidden layers.
    """
    if len(stack_widths) < 1:
        raise ValueError("need at least one task-specific layer")
    if num_tasks < 1:
        raise ValueError("need at least one task")
    hidden = len(stack_widths) - 1
    stack_ids = [f"bottleneck{i + 1}" for i in range(hidden)] + ["classifier"]
    if hidden == 1:
        stack_ids[0] = "bottleneck"

    trunk = []
    dim = int(input_dim)
    for width in trunk_widths:
        w = rng.standard_normal((dim, width)) / np.sqrt(dim)
        trunk.append(DenseLayer(w, np.zeros(width)))
        dim = int(width)

    weights, biases = [], []
    for width in stack_widths:
        if tied_tasks:
            shared = rng.standard_normal((dim, width)) / np.sqrt(dim)
            w = np.repeat(shared[:, :, None], num_tasks, axis=2)
        else:
            w = rng.standard_normal((dim, width, num_tasks)) / np.sqrt(dim)
        weights.append(w)
        biases.append(np.zeros((num_tasks, width)))
        dim = int(width)

    return MultiTaskNet(trunk, TaskLayerStack(stack_ids, weights, biases))


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; finite for any logits.

    The reductions are the ufuncs' own, ``np.maximum.reduce`` and
    ``np.add.reduce``, and the division is in place: the bits of
    ``z.max``, ``e.sum`` and ``e / s`` without their per-call wrappers.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _check_task(net: MultiTaskNet, task: int) -> int:
    task = int(task)
    if not 0 <= task < net.num_tasks:
        raise ValueError(f"task {task} out of range [0, {net.num_tasks})")
    return task


def _as_batch(net: MultiTaskNet, x) -> np.ndarray:
    """``x`` as a float ``(rows, input_dim)`` matrix, rows as examples."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != net.input_dim:
        raise ValueError(
            f"expected features of dim {net.input_dim}, got shape {np.shape(x)}"
        )
    return arr


def logits(net: MultiTaskNet, task: int, x) -> np.ndarray:
    """Classifier pre-activations ``(rows, num_classes)`` of the batch
    ``x`` for one task."""
    task = _check_task(net, task)
    h = _as_batch(net, x)
    for layer in net.trunk:
        h = np.maximum(h @ layer.weight + layer.bias, 0.0)
    stack = net.stack
    for l, (w, b) in enumerate(zip(stack.weights, stack.biases)):
        z = h @ w[:, :, task] + b[task]
        if l < stack.num_layers - 1:
            h = np.maximum(z, 0.0)
    return z


def forward(net: MultiTaskNet, task: int, x) -> np.ndarray:
    """Class probabilities of the batch ``x``, rows as examples, under
    task ``task``."""
    return softmax(logits(net, task, x))


def _check_index(values, rows: int, bound: int, what: str) -> np.ndarray:
    """``values`` (the tasks or labels of a batch) as an int vector of
    one entry for each of the ``rows`` examples, each in ``[0, bound)``."""
    values = np.asarray(values, dtype=int).reshape(-1)
    if values.shape != (rows,):
        raise ValueError("need one task and one label per example")
    if np.any((values < 0) | (values >= bound)):
        raise ValueError(f"{what} out of range [0, {bound})")
    return values


def fold_scores(net: MultiTaskNet, data) -> tuple:
    """``(log_losses, accuracies)`` of a fold, one entry per task.

    ``data`` holds one ``features`` matrix and one ``labels`` vector per
    task and all tasks' labels in order as ``pooled_labels``, as
    :class:`~relnet.data.MultiTaskDataset` does, and no task may be
    empty.  Entry ``t`` is task ``t``'s summed cross-entropy and the
    fraction of its rows whose largest logit is the label's, a tie going
    to the lower class index.  Each task
    costs one :func:`logits` call; the pooled labels are then checked
    once, and one log-sum-exp, one label pick and one argmax run over
    the concatenated logits; the row maximum goes column by column, and
    the argmax is the lowest column equal to it (:func:`_row_argmax`).
    Each task's loss sums its slice of the row losses, in task order.
    """
    z = [logits(net, t, x) for t, x in enumerate(data.features)]
    sizes = [zt.shape[0] for zt in z]
    if 0 in sizes:
        raise ValueError("cannot score an empty set")
    if [np.size(y) for y in data.labels] != sizes:
        raise ValueError("need one task and one label per example")
    z = np.concatenate(z)
    y = _check_index(data.pooled_labels, len(z), net.num_classes, "label")
    # The row maximum column by column: exact, so it is ``z.max(axis=1)``
    # bit for bit, and many times faster over a few classes.
    m = functools.reduce(np.maximum, z.T)
    row_losses = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
    row_losses -= z[np.arange(len(z)), y]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # np.add.reduce is np.sum without its per-call wrapper: the same sum.
    losses = tuple(float(np.add.reduce(row_losses[a:b])) for a, b in zip(starts, ends))
    hits = np.add.reduceat(_row_argmax(z, m) == y, starts, dtype=int)
    return losses, tuple((hits / sizes).tolist())


def _row_argmax(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``np.argmax(z, axis=1)`` of the 2-D ``z`` whose row maxima are
    ``m`` (NaN in a row that holds one): the lowest column that equals
    ``m``, by one argmax over the comparison ``z == m[:, None]``, and
    ``np.argmax``'s first NaN in a row that holds one."""
    arg = np.argmax(z == m[:, None], axis=1)
    nan = np.isnan(m)
    if nan.any():
        arg[nan] = np.argmax(z[nan], axis=1)
    return arg


def batch_gradients(net: MultiTaskNet, tasks, x, labels) -> Gradients:
    """Gradients of the summed cross-entropy of a mixed-task batch.

    Row ``i`` of the ``(B, input_dim)`` matrix ``x`` is an example of
    task ``tasks[i]`` with label ``labels[i]``.  The trunk runs once on
    the whole batch.  Each stack layer acts as one dense layer over the
    ``(D_in, D_out*T)`` unfolding of its weights, its output gradient
    ``dz`` spread to the row's task by the batch's task one-hot ``M``:
    the weight gradient is ``a^T (dz kron M)``, the input gradient ``(dz
    kron M) W^T`` and the bias gradient ``M^T dz``.  One flat index per
    layer and row, from :func:`_stack_plan`, does both halves of the
    row-to-task work: ``take`` gathers each row's own task block from
    the all-task product ``h @ W_(D_in, D_out*T)``, and ``put`` writes
    ``dz`` into a zeroed ``(B, D_out*T)`` buffer, which then is ``dz
    kron M``.  ReLU uses subgradient 0 at 0.  Each gradient
    is written into its view of the returned ``flat`` vector.  Features
    of another dim, or tasks or labels out of range or not one per row,
    raise ``ValueError``.

    The arithmetic is that of the trainer's SGD batches: this function
    builds the plan of :func:`_stack_plan` for its one batch and runs
    the same kernel, :func:`_gradients_into`, unscaled.
    """
    x = _as_batch(net, x)
    tasks = _check_index(tasks, x.shape[0], net.num_tasks, "task")
    labels = _check_index(labels, x.shape[0], net.num_classes, "label")
    grads = Gradients.empty_like(net)
    plan = _stack_plan(net, grads, tasks, x.shape[0])
    onehot, label_rows = np.eye(net.num_tasks)[tasks], np.eye(net.num_classes)[labels]
    _gradients_into(grads, net, *plan, slice(None), x, tasks, onehot, label_rows, 1.0)
    return grads


def _stack_plan(net: MultiTaskNet, grads: Gradients, tasks, size: int) -> tuple:
    """What :func:`_gradients_into` reads of each stack layer, for the
    batches of ``size`` consecutive rows of an epoch whose row ``i`` is
    of task ``tasks[i]``, into the buffer ``grads``: ``(forward,
    backward)``, one tuple per layer in each list.

    A forward tuple holds the ``(D_in, D_out*T)`` unfolded weight view,
    the bias and the flat index ``((i mod size)*D_out + j)*T +
    tasks[i]`` of row ``i`` and output ``j`` (an ``(N, D_out)`` array
    over the epoch's ``N`` rows, so a batch slices its rows' indices).
    A backward tuple holds the unfolded weight view's transpose, a
    zeroed ``(size, D_out*T)`` spread buffer, and the unfolded weight
    gradient and bias gradient views.  The weights and gradients are
    views, so the plan stays valid while they change in place.
    """
    forward, backward = [], []
    local, task_col = np.arange(len(tasks))[:, None] % size, tasks[:, None]
    for s, w in enumerate(net.stack.weights):
        din, dout, t = w.shape
        w_flat = w.reshape(din, dout * t)
        index = (local * dout + np.arange(dout)) * t + task_col
        forward.append((w_flat, net.stack.biases[s], index))
        grad = (grads.stack_weights[s].reshape(w_flat.shape), grads.stack_biases[s])
        backward.append((w_flat.T, np.zeros((size, dout * t)), *grad))
    return forward, backward


def _gradients_into(
    grads, net, forward, backward, batch, x, tasks, onehot, label_rows, scale
) -> None:
    """The arithmetic of :func:`batch_gradients`, written into ``grads``
    and multiplied by ``scale``.

    Every array of ``grads``, a :meth:`Gradients.empty_like` buffer that
    the plan ``(forward, backward)`` of :func:`_stack_plan` was built
    on, is overwritten.  The batch is the rows ``batch`` of the plan's
    epoch, ``tasks`` the plan's tasks of those rows.  ``x`` and
    ``tasks`` are taken as :func:`batch_gradients` checks them, a float
    ``(B, input_dim)`` matrix and an int vector, with ``onehot`` the ``(B, T)`` float one-hot of ``tasks`` and
    ``label_rows`` the ``(B, C)`` float one-hot of the labels.  Per
    stack layer, the batch's slice of the flat index picks each row's
    task block out of the all-task product with ``take``, and in the
    backward pass ``put`` writes ``dz`` into the first ``B`` rows of the
    spread buffer at the same index, which are zeroed again after use.
    The forward pass keeps each layer's input and ReLU mask;
    :func:`softmax` gives the class probabilities, and subtracting
    ``label_rows`` and multiplying by ``scale`` turns them into the
    output gradient.  Every gradient is linear in it, so each comes out
    multiplied by ``scale``; for a power of two that is exact, the bits
    of scaling the gradients afterwards, as rounding commutes with it
    outside the subnormal range.
    """
    rows = x.shape[0]
    inputs, masks, index = [], [], []
    h = x
    for layer in net.trunk:
        inputs.append(h)
        z = h @ layer.weight
        z += layer.bias
        masks.append(z > 0)
        h = np.maximum(z, 0.0, out=z)
    last = len(forward) - 1
    for s, (w_flat, b, flat_index) in enumerate(forward):
        inputs.append(h)
        index.append(flat_index[batch])
        z = (h @ w_flat).take(index[s])
        z += b.take(tasks, axis=0)
        if s < last:
            masks.append(z > 0)
            h = np.maximum(z, 0.0, out=z)

    dz = softmax(z)
    dz -= label_rows
    dz *= scale

    n_trunk = len(net.trunk)
    for s in range(last, -1, -1):
        w_flat_t, buf, grad_w, grad_b = backward[s]
        np.matmul(onehot.T, dz, out=grad_b)
        spread = buf[:rows]
        spread.put(index[s], dz)
        np.matmul(inputs[n_trunk + s].T, spread, out=grad_w)
        if n_trunk + s > 0:
            dz = spread @ w_flat_t
            dz *= masks[n_trunk + s - 1]
        spread.put(index[s], 0.0)
    for l in range(n_trunk - 1, -1, -1):
        np.matmul(inputs[l].T, dz, out=grads.trunk_weights[l])
        np.add.reduce(dz, axis=0, out=grads.trunk_biases[l])
        if l > 0:
            dz = dz @ net.trunk[l].weight.T
            dz *= masks[l - 1]


def _check_priors(stack: TaskLayerStack, priors: Sequence[KronCovariance]):
    if len(priors) != stack.num_layers:
        raise ValueError(
            f"need one covariance per stack layer ({stack.num_layers}), "
            f"got {len(priors)}"
        )
    for lid, w, cov in zip(stack.layer_ids, stack.weights, priors):
        if cov.dims != w.shape:
            raise ValueError(
                f"layer {lid!r}: covariance dims {cov.dims} != weights {w.shape}"
            )


def prior_penalty(stack: TaskLayerStack, priors: Sequence[KronCovariance]) -> float:
    """Negative log prior of the stacked weights (up to constants).

    Per layer: ``0.5 * (vec(W)^T Sigma^{-1} vec(W) - D_in*D_out *
    logdet(Sigma_task))`` where ``Sigma_task`` is the task-mode factor.
    The quadratic form whitens ``W`` by one product per mode with the
    factor's cached ``L_k^{-1}``.
    """
    _check_priors(stack, priors)
    total = 0.0
    for w, cov in zip(stack.weights, priors):
        z = cov.whiten(w)
        din, dout, _ = w.shape
        total += 0.5 * (float(np.sum(z * z)) - din * dout * cov.factors[2].logdet)
    return total


def _layer_doc(w: np.ndarray, b: np.ndarray, activation: str) -> dict:
    return {
        "in_dim": int(w.shape[0]),
        "out_dim": int(w.shape[1]),
        "activation": activation,
        "weight": BinaryArray(w),
        "bias": BinaryArray(b),
    }


def save_checkpoint(net: MultiTaskNet, path, task_names=None) -> None:
    """Write the network to JSON (``schema_version`` 2) with a fixed
    field order.

    Every weight and bias is an array object
    (:class:`~relnet.serialize.BinaryArray`) of its own shape next to
    its dims: the exact float64 bits, so a load gives back the same
    parameters and save/load/save round-trips are byte-stable.  A
    non-finite parameter raises ``ValueError`` before the file is
    opened.
    """
    if task_names is not None and len(task_names) != net.num_tasks:
        raise ValueError("task_names must have one entry per task")
    stack = net.stack
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "input_dim": net.input_dim,
        "num_classes": net.num_classes,
        "num_tasks": net.num_tasks,
        "task_names": list(task_names) if task_names is not None else None,
        "trunk": [_layer_doc(layer.weight, layer.bias, "relu") for layer in net.trunk],
        "stack": {
            "layer_ids": list(stack.layer_ids),
            "layers": [
                {"id": lid, "num_tasks": net.num_tasks, **_layer_doc(w, b, act)}
                for lid, w, b, act in zip(
                    stack.layer_ids,
                    stack.weights,
                    stack.biases,
                    _activation_per_layer(stack.num_layers),
                )
            ],
        },
    }
    dump_json(doc, path)


def _activation_per_layer(n: int) -> list:
    """The activation of each of ``n`` stack layers: ReLU, then softmax."""
    return ["relu"] * (n - 1) + ["softmax"]


def _layer_from_doc(entry, where: str, activation: str, *tasks) -> tuple:
    """``(weight, bias)`` of the layer written by :func:`_layer_doc` at
    ``where``, which must name ``activation``; ``tasks`` is ``(T,)`` for
    a stack layer, whose own ``num_tasks`` must be ``T``, whose weight
    is ``(in_dim, out_dim, T)`` and whose bias is ``(T, out_dim)``.
    Each array is an array object of that shape or a JSON list of its
    entries flattened row-major."""
    table = {
        "in_dim": "count",
        "out_dim": "count",
        "activation": (activation,),
        "weight": "list[float]",
        "bias": "list[float]",
    }
    if tasks:
        # A tuple annotation takes exactly its values: here ``T``.
        table.update(id="str", num_tasks=tasks)
    layer = read_object(entry, where, table)
    din, dout = layer["in_dim"], layer["out_dim"]
    arrays = []
    for key, shape in (("weight", (din, dout, *tasks)), ("bias", (*tasks, dout))):
        want = (math.prod(shape),) if type(entry[key]) is list else shape
        if layer[key].shape != want:
            raise ConfigError(
                f"{where}.{key} has shape {list(layer[key].shape)}, but the "
                f"layer's dims give {list(want)}"
            )
        arrays.append(layer[key].reshape(shape))
    return tuple(arrays)


def load_checkpoint(path) -> tuple:
    """Read a checkpoint of ``schema_version`` 1 or 2; returns ``(net,
    task_names)``.

    The document is read by :func:`~relnet.serialize.read_json_object`,
    and its ``stack`` and each layer by
    :func:`~relnet.serialize.read_object`, so every key is known and
    ``trunk``, ``stack.layers`` and ``stack.layer_ids`` are JSON lists
    of objects, objects and strings.  Dims and counts must be JSON
    integers of at least 1, each stack layer's ``num_tasks`` equal to
    the top-level one, ``input_dim`` and ``num_classes`` equal to what
    the layer shapes give, every ``activation`` ``relu`` but the last
    stack layer's ``softmax``, weights and biases ``list[float]`` values
    (:func:`~relnet.serialize.check_type`) of the shape the layer's dims
    give: array objects, as version 2 writes them, or lists of finite
    JSON numbers flattened row-major, as version 1 did.  ``task_names``
    is optional, and null or one name per task under
    :func:`~relnet.serialize.check_task_names`.  A file that cannot be
    read, parsed or built into a network raises
    :class:`~relnet.serialize.InputError` naming ``path`` and the key.
    """
    top = {
        # Version 1 differs only in writing each array as a flat list.
        "schema_version": (1, 2),
        "input_dim": "int",
        "num_classes": "int",
        "num_tasks": "count",
        "trunk": "list[dict]",
        "stack": "dict",
    }
    doc = read_json_object(path, top, {"task_names": "list[str] | None"})
    trunk = [
        DenseLayer(*_layer_from_doc(entry, f"{path}: trunk[{i}]", "relu"))
        for i, entry in enumerate(doc["trunk"])
    ]
    keys = {"layer_ids": "list[str]", "layers": "list[dict]"}
    stack = read_object(doc["stack"], f"{path}: stack", keys)
    entries = stack["layers"]
    acts = _activation_per_layer(len(entries))
    layers = [
        _layer_from_doc(entry, f"{path}: stack.layers[{i}]", act, doc["num_tasks"])
        for i, (entry, act) in enumerate(zip(entries, acts))
    ]
    ids = [entry["id"] for entry in entries]
    if ids != stack["layer_ids"]:
        raise ConfigError(f"{path}: stack.layer_ids must be the layers' ids {ids}")
    try:
        net = MultiTaskNet(
            trunk, TaskLayerStack(ids, [w for w, _ in layers], [b for _, b in layers])
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for key in ("input_dim", "num_classes"):
        if doc[key] != getattr(net, key):
            raise ConfigError(
                f"{path}: {key} is {doc[key]}, but the layers give {getattr(net, key)}"
            )
    names = doc.get("task_names")
    if names is not None:
        if len(names) != net.num_tasks:
            raise ConfigError(f"{path}: task_names must have one entry per task")
        check_task_names(names, lambda msg: ConfigError(f"{path}: task_names: {msg}"))
    return net, names
