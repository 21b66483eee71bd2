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
losses and gradients stay finite for logits of any magnitude.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .serialize import InputError, check_task_names, check_type, dump_json, load_json
from .tensor import mode_product
from .tensor_normal import KronCovariance

__all__ = [
    "DenseLayer",
    "TaskLayerStack",
    "MultiTaskNet",
    "Gradients",
    "init_network",
    "logits",
    "forward",
    "predict",
    "accuracy",
    "softmax",
    "task_log_loss",
    "task_scores",
    "batch_gradients",
    "prior_penalty",
    "resolve_layer",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_SCHEMA_VERSION = 1


@dataclass
class DenseLayer:
    """One shared dense layer: ``act(x @ weight + bias)``."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str = "relu"

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
        if self.activation != "relu":
            raise ValueError(f"unsupported trunk activation {self.activation!r}")


def resolve_layer(layer_ids, layer) -> int:
    """Position of a stack layer given by id (``str``) or by position."""
    if isinstance(layer, str):
        try:
            return layer_ids.index(layer)
        except ValueError:
            raise ValueError(
                f"unknown stack layer {layer!r}; have {layer_ids}"
            ) from None
    idx = int(layer)
    if not 0 <= idx < len(layer_ids):
        raise ValueError(f"stack layer index {idx} out of range")
    return idx


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
    activations: list

    def __post_init__(self):
        n = len(self.layer_ids)
        if n == 0:
            raise ValueError("stack needs at least one task-specific layer")
        if len(set(self.layer_ids)) != n:
            raise ValueError("stack layer ids must be unique")
        if not (len(self.weights) == len(self.biases) == len(self.activations) == n):
            raise ValueError("stack fields must have one entry per layer id")
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        tasks = None
        for lid, w, b, act in zip(
            self.layer_ids, self.weights, self.biases, self.activations
        ):
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
        for act in self.activations[:-1]:
            if act != "relu":
                raise ValueError(f"unsupported hidden activation {act!r}")
        if self.activations[-1] != "softmax":
            raise ValueError("the final stack layer must use softmax")

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
    no longer moves it.
    """

    input_dim: int
    num_classes: int
    num_tasks: int
    trunk: list
    stack: TaskLayerStack
    params: np.ndarray = field(init=False, repr=False)
    stack_start: int = field(init=False, repr=False)

    def __post_init__(self):
        dim = self.input_dim
        for layer in self.trunk:
            if layer.weight.shape[0] != dim:
                raise ValueError("trunk layer dims do not chain from the input")
            dim = layer.weight.shape[1]
        if self.stack.weights[0].shape[0] != dim:
            raise ValueError(
                f"stack expects input dim {self.stack.weights[0].shape[0]}, "
                f"trunk produces {dim}"
            )
        if self.stack.weights[-1].shape[1] != self.num_classes:
            raise ValueError("final stack layer width must equal num_classes")
        if self.stack.num_tasks != self.num_tasks:
            raise ValueError("stack task count does not match num_tasks")
        stack = self.stack
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
        """Name of the first segment of ``vec`` that is not all finite."""
        bad = (name for name, v in self.segments(vec) if not np.isfinite(v).all())
        return next(bad, None)

    def rotate_stack(self, vec, bases, back: bool = False) -> None:
        """Rotate each stack layer's weight segment of ``vec`` in place.

        ``vec`` is laid out like :attr:`params`; ``bases[l]`` is the
        ``(Q_in, Q_out)`` pair of orthogonal matrices of stack layer
        ``l``.  Each weight tensor ``W`` becomes ``W x1 Q_in^T x2
        Q_out^T``, so task ``t``'s matrix becomes ``Q_in^T W_t Q_out``;
        ``back`` applies the inverse rotation.  Biases and the task mode
        are left as they are.
        """
        for w, (q_in, q_out) in zip(self._split(vec)[2], bases):
            if not back:
                q_in, q_out = q_in.T, q_out.T
            w[...] = mode_product(mode_product(w, q_in, 1), q_out, 2)

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
    :attr:`MultiTaskNet.params`.  Given rotation ``bases``, that
    function returns the stack weight gradients in the rotated basis,
    ``Q_in^T G_t Q_out`` per task, the basis the trainer's SGD steps
    in; every other array is in the network's own basis.
    """

    trunk_weights: list = field(default_factory=list)
    trunk_biases: list = field(default_factory=list)
    stack_weights: list = field(default_factory=list)
    stack_biases: list = field(default_factory=list)
    flat: np.ndarray | None = None


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
        trunk.append(DenseLayer(w, np.zeros(width), "relu"))
        dim = int(width)

    weights, biases, activations = [], [], []
    for i, width in enumerate(stack_widths):
        if tied_tasks:
            shared = rng.standard_normal((dim, width)) / np.sqrt(dim)
            w = np.repeat(shared[:, :, None], num_tasks, axis=2)
        else:
            w = rng.standard_normal((dim, width, num_tasks)) / np.sqrt(dim)
        weights.append(w)
        biases.append(np.zeros((num_tasks, width)))
        activations.append("softmax" if i == len(stack_widths) - 1 else "relu")
        dim = int(width)

    stack = TaskLayerStack(stack_ids, weights, biases, activations)
    return MultiTaskNet(
        input_dim=int(input_dim),
        num_classes=int(stack_widths[-1]),
        num_tasks=int(num_tasks),
        trunk=trunk,
        stack=stack,
    )


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; finite for any logits."""
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_task(net: MultiTaskNet, task: int) -> int:
    task = int(task)
    if not 0 <= task < net.num_tasks:
        raise ValueError(f"task {task} out of range [0, {net.num_tasks})")
    return task


def _stack_pre_act(h: np.ndarray, w: np.ndarray, b: np.ndarray, tasks, q_out=None):
    """``h @ W_t + b_t`` per row, with ``t`` the row's task.

    ``tasks`` is one task for all rows or a vector with one task per
    row.  A vector makes the layer one dense map onto the ``(D_in,
    D_out*T)`` unfolding of ``w``, of which each row keeps its own
    task's slice.  With ``q_out`` the product is taken back from the
    rotated output basis before the bias: ``h @ W_t @ q_out^T + b_t``.
    """
    if np.ndim(tasks) == 0:
        z = h @ w[:, :, tasks]
    else:
        din, dout, t = w.shape
        full = (h @ w.reshape(din, dout * t)).reshape(-1, dout, t)
        z = full[np.arange(h.shape[0]), :, tasks]
    if q_out is not None:
        z = z @ q_out.T
    return z + b[tasks]


def _forward_cached(net: MultiTaskNet, tasks, x: np.ndarray, bases=None):
    """Run the batched forward pass, keeping per-layer caches.

    ``tasks`` is one task for all rows of ``x`` or one task per row.
    Returns ``(inputs, pre_acts, logits)`` where ``inputs[l]`` is the
    activation fed into layer ``l`` and ``pre_acts[l]`` its
    pre-activation.  The final softmax is left to the caller.  With
    ``bases`` (see :func:`batch_gradients`) the stack weights are the
    rotated ones: a stack layer's input is multiplied by its ``Q_in``
    (and cached so) and its product by ``Q_out^T``, so pre-activations
    and logits are those of the unrotated network.
    """
    inputs, pre_acts = [], []
    h = x
    for layer in net.trunk:
        inputs.append(h)
        z = h @ layer.weight + layer.bias
        pre_acts.append(z)
        h = np.maximum(z, 0.0)
    stack = net.stack
    for l in range(stack.num_layers):
        q_in, q_out = (None, None) if bases is None else bases[l]
        if q_in is not None:
            h = h @ q_in
        inputs.append(h)
        z = _stack_pre_act(h, stack.weights[l], stack.biases[l], tasks, q_out)
        pre_acts.append(z)
        if l < stack.num_layers - 1:
            h = np.maximum(z, 0.0)
    return inputs, pre_acts, pre_acts[-1]


def _as_batch(net: MultiTaskNet, x) -> tuple:
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != net.input_dim:
        raise ValueError(
            f"expected features of dim {net.input_dim}, got shape {np.shape(x)}"
        )
    return arr, single


def logits(net: MultiTaskNet, task: int, x) -> np.ndarray:
    """Classifier pre-activations for one task."""
    task = _check_task(net, task)
    arr, single = _as_batch(net, x)
    _, _, out = _forward_cached(net, task, arr)
    return out[0] if single else out


def forward(net: MultiTaskNet, task: int, x) -> np.ndarray:
    """Class probabilities for ``x`` under task ``task``.

    Accepts a single feature vector or a batch with rows as examples.
    """
    return softmax(logits(net, task, x))


def predict(net: MultiTaskNet, task: int, x) -> np.ndarray:
    """Most probable class per example; ties break toward the lower index."""
    out = logits(net, task, x)
    return np.argmax(out, axis=-1)


def accuracy(net: MultiTaskNet, task: int, x, labels) -> float:
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("cannot score an empty set")
    return float(np.mean(predict(net, task, x) == labels))


def _batch_logits(net: MultiTaskNet, task: int, x, labels) -> tuple:
    z = logits(net, task, x)
    if z.ndim == 1:
        z = z[None, :]
    return z, np.asarray(labels, dtype=int).reshape(-1)


def _summed_log_loss(z: np.ndarray, labels: np.ndarray) -> float:
    m = z.max(axis=1)
    lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
    return float(np.sum(lse - z[np.arange(z.shape[0]), labels]))


def task_log_loss(net: MultiTaskNet, task: int, x, labels) -> float:
    """Summed cross-entropy of a batch under one task."""
    return _summed_log_loss(*_batch_logits(net, task, x, labels))


def task_scores(net: MultiTaskNet, task: int, x, labels) -> tuple:
    """``(task_log_loss, accuracy)`` of a non-empty batch under one task,
    both from one forward pass and equal to what each function gives."""
    z, labels = _batch_logits(net, task, x, labels)
    if labels.size == 0:
        raise ValueError("cannot score an empty set")
    hits = np.argmax(z, axis=-1) == labels
    return _summed_log_loss(z, labels), float(np.mean(hits))


def batch_gradients(net: MultiTaskNet, tasks, x, labels, bases=None) -> Gradients:
    """Gradients of the summed cross-entropy of a mixed-task batch.

    Row ``i`` of ``x`` is an example of task ``tasks[i]`` with label
    ``labels[i]``.  The trunk runs once on the whole batch.  Each stack
    layer acts as one dense layer over the ``(D_in, D_out*T)`` unfolding
    of its weights, its output gradient ``dz`` spread to the row's task
    by the batch's task one-hot ``M``: the weight gradient is ``a^T (dz
    kron M)``, the input gradient ``(dz kron M) W^T`` and the bias
    gradient ``M^T dz``.  ReLU uses subgradient 0 at 0.  Each gradient
    is written into its view of the returned ``flat`` vector.

    ``bases``, if given, holds one ``(Q_in, Q_out)`` pair of orthogonal
    matrices per stack layer, and the stack weights are taken to be
    rotated by :meth:`MultiTaskNet.rotate_stack`: ``W~_t = Q_in^T W_t
    Q_out``.  The forward pass multiplies each stack layer's input by
    ``Q_in`` and its product by ``Q_out^T``; the backward pass
    multiplies ``dz`` by ``Q_out`` before the weight gradient and the
    input gradient by ``Q_in^T``.  The stack weight gradients are then
    those of the rotated weights, ``Q_in^T G_t Q_out``, at ``2B (D_in^2
    + D_out^2)`` extra multiplies per layer for a batch of ``B`` rows;
    the bias gradients, the task mode and the trunk are unchanged.
    """
    arr, _ = _as_batch(net, x)
    tasks = np.asarray(tasks, dtype=int).reshape(-1)
    labels = np.asarray(labels, dtype=int).reshape(-1)
    if not tasks.shape == labels.shape == arr.shape[:1]:
        raise ValueError("need one task and one label per example")
    if np.any((tasks < 0) | (tasks >= net.num_tasks)):
        raise ValueError(f"task out of range [0, {net.num_tasks})")
    if np.any((labels < 0) | (labels >= net.num_classes)):
        raise ValueError(f"label out of range [0, {net.num_classes})")

    inputs, pre_acts, out = _forward_cached(net, tasks, arr, bases)
    dz = softmax(out)
    dz[np.arange(dz.shape[0]), labels] -= 1.0
    onehot = (tasks[:, None] == np.arange(net.num_tasks)).astype(float)

    n_trunk = len(net.trunk)
    stack = net.stack
    flat = np.empty_like(net.params)
    grads = Gradients(*net._split(flat), flat=flat)
    for l in range(n_trunk + stack.num_layers - 1, -1, -1):
        a = inputs[l]
        q_in = q_out = None
        if l >= n_trunk:
            s = l - n_trunk
            if bases is not None:
                q_in, q_out = bases[s]
            np.matmul(onehot.T, dz, out=grads.stack_biases[s])
            if q_out is not None:
                dz = dz @ q_out
            w = stack.weights[s]
            w_flat = w.reshape(w.shape[0], -1)
            spread = (dz[:, :, None] * onehot[:, None, :]).reshape(dz.shape[0], -1)
            out = grads.stack_weights[s].reshape(w_flat.shape)
            np.matmul(a.T, spread, out=out)
        else:
            spread, w_flat = dz, net.trunk[l].weight
            np.matmul(a.T, dz, out=grads.trunk_weights[l])
            dz.sum(axis=0, out=grads.trunk_biases[l])
        if l > 0:
            dz = spread @ w_flat.T
            if q_in is not None:
                dz = dz @ q_in.T
            dz *= pre_acts[l - 1] > 0
    return grads


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
        "weight": w.ravel(),
        "bias": b.ravel(),
    }


def save_checkpoint(net: MultiTaskNet, path, task_names=None) -> None:
    """Write the network to JSON with a fixed field order.

    Weight tensors are flattened row-major next to their dims, floats
    carry 17 significant digits, so save/load/save round-trips are
    byte-stable.
    """
    if task_names is not None and len(task_names) != net.num_tasks:
        raise ValueError("task_names must have one entry per task")
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "input_dim": net.input_dim,
        "num_classes": net.num_classes,
        "num_tasks": net.num_tasks,
        "task_names": list(task_names) if task_names is not None else None,
        "trunk": [
            _layer_doc(layer.weight, layer.bias, layer.activation)
            for layer in net.trunk
        ],
        "stack": {
            "layer_ids": list(net.stack.layer_ids),
            "layers": [
                {
                    "id": lid,
                    "num_tasks": net.num_tasks,
                    **_layer_doc(w, b, act),
                }
                for lid, w, b, act in zip(
                    net.stack.layer_ids,
                    net.stack.weights,
                    net.stack.biases,
                    net.stack.activations,
                )
            ],
        },
    }
    dump_json(doc, path)


def _dim(value, where: str) -> int:
    """A dim or count read from a checkpoint: a JSON integer of at least 1."""
    n = check_type(value, "int", where)
    if n < 1:
        raise ValueError(f"{where} must be at least 1, got {n}")
    return n


def _layer_from_doc(entry, where: str, *tasks) -> tuple:
    """``(weight, bias, activation)`` of a layer written by
    :func:`_layer_doc`; ``tasks`` is ``(T,)`` for a stack layer, whose
    weight is ``(in_dim, out_dim, T)`` and bias ``(T, out_dim)``, and
    whose own ``num_tasks`` must be ``T``."""
    for t in tasks:
        n = _dim(entry["num_tasks"], f"{where}.num_tasks")
        if n != t:
            raise ValueError(f"{where}.num_tasks is {n}, but num_tasks is {t}")
    din = _dim(entry["in_dim"], f"{where}.in_dim")
    dout = _dim(entry["out_dim"], f"{where}.out_dim")
    w = check_type(entry["weight"], "list[float]", f"{where}.weight")
    b = check_type(entry["bias"], "list[float]", f"{where}.bias")
    return w.reshape(din, dout, *tasks), b.reshape(*tasks, dout), entry["activation"]


def load_checkpoint(path) -> tuple:
    """Read a checkpoint; returns ``(net, task_names)``.

    Counts and dims must be JSON integers of at least 1, each stack
    layer's ``num_tasks`` equal to the top-level one, weights and
    biases lists of finite JSON numbers
    (:func:`~relnet.serialize.check_type`), and ``task_names`` null or
    one name per task under :func:`~relnet.serialize.check_task_names`.  A
    file that cannot be read, parsed or built into a network raises
    :class:`~relnet.serialize.InputError` naming ``path``.
    """
    doc = load_json(path)
    if not isinstance(doc, dict) or doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise InputError(
            f"{path}: unsupported checkpoint schema: {doc.get('schema_version')!r}"
            if isinstance(doc, dict)
            else f"{path}: checkpoint must be a JSON object"
        )
    try:
        trunk = [
            DenseLayer(*_layer_from_doc(entry, f"trunk[{i}]"))
            for i, entry in enumerate(doc["trunk"])
        ]
        num_tasks = _dim(doc["num_tasks"], "num_tasks")
        layers = [
            _layer_from_doc(entry, f"stack.layers[{i}]", num_tasks)
            for i, entry in enumerate(doc["stack"]["layers"])
        ]
        ids = [entry["id"] for entry in doc["stack"]["layers"]]
        if ids != doc["stack"]["layer_ids"]:
            raise ValueError("stack ids are inconsistent")
        columns = ([layer[c] for layer in layers] for c in range(3))
        net = MultiTaskNet(
            input_dim=check_type(doc["input_dim"], "int", "input_dim"),
            num_classes=check_type(doc["num_classes"], "int", "num_classes"),
            num_tasks=num_tasks,
            trunk=trunk,
            stack=TaskLayerStack(ids, *columns),
        )
        names = check_type(doc.get("task_names"), "list[str] | None", "task_names")
        if names is not None:
            if len(names) != num_tasks:
                raise ValueError("task_names must have one entry per task")
            check_task_names(names)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed checkpoint: {exc}") from None
    return net, names
