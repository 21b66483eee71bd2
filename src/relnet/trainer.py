"""Joint training of the multi-task network and its covariance prior.

Each epoch alternates two blocks:

1. SGD with momentum over the pooled examples of all tasks
   (:func:`sgd_epoch`).  Batches mix tasks, and each batch is one
   vectorized pass of the arithmetic of
   :func:`~relnet.network.batch_gradients`: the data gradient only, in
   the network's own basis.  The prior enters as a proximal step on the
   stack weights once every :data:`PROX_EVERY` batches and after the
   epoch's last, ``W <- (I + c * prior_weight * Sigma^{-1})^{-1} W``,
   made in the joint eigenbasis of each layer's three factors, where it
   is one elementwise division.  It never grows the weights' norm,
   whatever the factors, and its step size ``c`` gives it the fixed
   points of the explicit prior gradient; README "How SGD applies the
   prior" says why and at what cost.
2. One covariance sweep over the stack layers
   (:func:`update_covariances`): with the weights fixed, each mode
   factor in turn is replaced by the maximizer of the prior term given
   the other two, then ridged and trace-normalized.  The sweep whitens
   each layer's weights once and then makes the flip-flop mode step
   that the distribution fitter
   :func:`~relnet.tensor_normal.flip_flop_mle` iterates: form the mode's
   Gram with its old whitening undone, replace the factor, re-whiten
   the mode.  Only the task-mode factor carries the inter-task
   relationship; feature and output factors absorb within-layer scale.
   Layers whose priors hold one task factor object share it, and its
   step pools their task fibres.

The gradient and the velocity share the layout of the network's one
parameter vector, whose layer order only :mod:`relnet.network` knows:
the SGD step updates its trunk segment and its stack segment whole.
Task-specific layers train with a learning-rate multiplier since they
start from scratch while a trunk may be pre-initialized.  Everything is
driven by one integer seed: shuffles come from per-epoch child
generators, so a fixed config yields a bit-identical trajectory at one
BLAS thread count.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from .data import DatasetError, MultiTaskDataset
from .network import (
    Gradients,
    MultiTaskNet,
    TaskLayerStack,
    _check_index,
    _check_priors,
    _gradients_into,
    _stack_plan,
    fold_scores,
    prior_penalty,
)
from .serialize import write_csv_rows
from .tensor import _along_mode
from .tensor_normal import (
    EstimationError,
    KronCovariance,
    SpdFactor,
    _mode_step,
    _whiten,
)

__all__ = [
    "TrainingError",
    "TrainConfig",
    "check_data",
    "CovarianceState",
    "OptimizerState",
    "OpCounter",
    "EpochRecord",
    "TrainReport",
    "learning_rate_at",
    "sgd_epoch",
    "update_covariances",
    "train",
    "extract_relationship",
]


class TrainingError(RuntimeError):
    """Raised when optimization produces unusable values."""


@dataclass
class TrainConfig:
    """Hyper-parameters of the joint training loop.

    ``prior_weight`` scales the whole prior term in the objective and
    the proximal step that SGD makes of it; zero recovers independent
    per-task training.
    ``lr_schedule`` is ``"constant"`` or ``"inv"``, the latter decaying
    the base rate by ``(1 + lr_gamma * iteration) ** -lr_power``.
    ``shared_task_sigma`` chooses the sharing of the covariance state
    a run starts from: one task-mode factor held by every stack layer's
    prior, which each refit then estimates pooled over the layers,
    instead of one per layer.  Every float must be
    finite; a bad value raises ``ValueError`` whose message starts with
    the field's name.
    """

    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 16
    epochs: int = 20
    prior_weight: float = 1.0
    epsilon_ridge: float = 1e-3
    new_layer_lr_multiplier: float = 10.0
    lr_schedule: str = "constant"
    lr_gamma: float = 1e-4
    lr_power: float = 0.75
    shared_task_sigma: bool = False
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        for name in ("epochs", "prior_weight", "lr_gamma", "lr_power"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.epsilon_ridge <= 0:
            raise ValueError("epsilon_ridge must be positive")
        if self.new_layer_lr_multiplier <= 0:
            raise ValueError("new_layer_lr_multiplier must be positive")
        if self.lr_schedule not in ("constant", "inv"):
            raise ValueError(
                f"lr_schedule must be 'constant' or 'inv', got {self.lr_schedule!r}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def learning_rate_at(cfg: TrainConfig, iteration: int) -> float:
    """Base learning rate at a 0-based iteration under the schedule."""
    if cfg.lr_schedule == "constant":
        return cfg.learning_rate
    return cfg.learning_rate * (1.0 + cfg.lr_gamma * iteration) ** (-cfg.lr_power)


@dataclass
class CovarianceState:
    """The Kronecker prior of every stack layer.

    ``priors[l]`` is the :class:`~relnet.tensor_normal.KronCovariance`
    of stack layer ``layer_ids[l]``, its factors in mode order (feature,
    output, task).  Priors may hold one task factor object between them,
    as :meth:`identity_for` makes them with ``shared_task``; the refit
    :func:`update_covariances` then estimates it pooled over their
    layers and keeps that sharing.
    """

    layer_ids: list
    priors: list[KronCovariance]

    @classmethod
    def identity_for(cls, stack: TaskLayerStack, shared_task: bool = False):
        """Unit-trace scaled identities matching the stack's dims."""

        def unit(dim):
            return SpdFactor.identity(dim, 1.0 / dim)

        shared = unit(stack.num_tasks) if shared_task else None
        priors = [
            KronCovariance([unit(din), unit(dout), shared if shared_task else unit(t)])
            for din, dout, t in (w.shape for w in stack.weights)
        ]
        return cls(list(stack.layer_ids), priors)


@dataclass
class OptimizerState:
    """Momentum plus iteration and epoch counters; ``velocity`` has the
    layout of the network's :attr:`~relnet.network.MultiTaskNet.params`."""

    velocity: np.ndarray
    iteration: int = 0
    epoch: int = 0

    @classmethod
    def zeros_like(cls, net: MultiTaskNet):
        return cls(np.zeros_like(net.params))


class OpCounter(Counter):
    """Tallies floating-point multiply counts of covariance updates.

    Keys are ``mode{k}_gram`` (Gram products) and ``mode{k}_factor``
    (Cholesky), accumulated over layers; a key never counted reads 0.
    """


def update_covariances(
    stack: TaskLayerStack,
    cov: CovarianceState,
    cfg: TrainConfig,
    counter: OpCounter | None = None,
) -> CovarianceState:
    """One cyclic re-estimation sweep over all prior factors.

    ``cov`` must have the stack's layer ids, one prior per layer and
    each prior's dims equal to its layer's weight shape, or
    ``ValueError`` is raised.  Per layer, the weights are whitened once
    by the layer's current factors, and the factors of
    ``cov.priors[l]`` are replaced in mode order (feature, output, task)
    by the flip-flop mode step of
    :mod:`relnet.tensor_normal`: each from the weights whitened by the
    other modes' most recent factors, with the rule ``G/(D/d_k) +
    epsilon_ridge * I`` scaled to unit trace.  The layer's new prior is
    a :class:`~relnet.tensor_normal.KronCovariance` of the swept
    factors.  The task-mode step is made once per task factor object of
    ``cov``, after every layer's output step, over the whitened task
    fibres of the layers whose priors hold it.  For one layer that is
    the layer's own step; for several it pools their task Grams
    (weighted by ``D_in * D_out``) before the ridge and normalization,
    and each of their new priors holds the one pooled factor.  So the
    new state shares its task factors as ``cov`` does, whatever
    ``cfg.shared_task_sigma`` says.  ``cov`` is not changed.

    The mode-3 (task) step costs ``O(T^2 D_in D_out)`` arithmetic per
    layer, one Gram product against the whitened weights, plus one
    ``O(T^3)`` Cholesky per task factor.  Pass an :class:`OpCounter` to
    audit that.  A step whose factor is not positive definite raises
    :class:`~relnet.tensor_normal.EstimationError` naming the layer and
    mode, or ``shared task mode``.
    """
    _check_covariances(stack, cov)
    eps = cfg.epsilon_ridge

    def ridged(gram, m):
        s = gram / m + eps * np.eye(len(gram))
        return s / np.trace(s)

    def step(z, factors, k, mode, what):
        if counter is not None:
            dk = z.shape[k - len(factors)]
            counter[f"mode{mode}_gram"] += dk * z.size
            counter[f"mode{mode}_factor"] += dk**3 // 3
        return _mode_step(z, factors, k, ridged, what)

    # Layer indices grouped by the task factor object their priors hold.
    swept, fibres, groups = [], [], {}
    for lid, w, prior in zip(stack.layer_ids, stack.weights, cov.priors):
        factors = list(prior.factors)
        z = _whiten(w, factors)
        for k, name in enumerate(("feature", "output")):
            z = step(z, factors, k, k + 1, f"layer {lid!r} {name} mode")
        groups.setdefault(id(factors[2]), []).append(len(swept))
        swept.append(factors)
        fibres.append(z.reshape(-1, stack.num_tasks))

    for layers in groups.values():
        # The group's task fibres, whitened by its one task factor, are
        # the samples of an order-1 tensor normal with that factor.
        task, lid = [swept[layers[0]][2]], stack.layer_ids[layers[0]]
        what = f"layer {lid!r} task mode" if len(layers) == 1 else "shared task mode"
        step(np.concatenate([fibres[l] for l in layers]), task, 0, 3, what)
        for l in layers:
            swept[l][2] = task[0]

    priors = [KronCovariance(f) for f in swept]
    return CovarianceState(list(cov.layer_ids), priors)


def _check_covariances(stack: TaskLayerStack, cov: CovarianceState) -> None:
    """Raise ``ValueError`` unless ``cov`` has the stack's layer ids, one
    prior per layer and each prior's dims equal to its layer's weight
    shape."""
    if list(stack.layer_ids) != list(cov.layer_ids):
        raise ValueError("covariance state does not match the stack")
    _check_priors(stack, cov.priors)


def check_data(net: MultiTaskNet, data: MultiTaskDataset, what: str) -> None:
    """Raise :class:`~relnet.data.DatasetError` unless ``data`` (named
    ``what`` in the message) has the network's task count, input feature
    dim and class count."""
    if data.num_tasks != net.num_tasks:
        raise DatasetError(
            f"{what} has {data.num_tasks} tasks, network expects {net.num_tasks}"
        )
    if data.feature_dim != net.input_dim:
        raise DatasetError(
            f"{what} feature dim {data.feature_dim} != network input "
            f"{net.input_dim}"
        )
    if data.num_classes != net.num_classes:
        raise DatasetError(
            f"{what} has {data.num_classes} classes, network expects "
            f"{net.num_classes}"
        )


# The prior's proximal step runs once per PROX_EVERY batches, and after
# an epoch's last batch.  Applying it once per block rather than once
# per batch errs by a share of the step that grows with PROX_EVERY * c *
# prior_weight * max(1/sigma), c being one batch's step size: 0.08 on
# train-manytask and 0.05 on train-wide at the benchmark's settings and
# identity factors.  Blocks of 4, 8 and 16 batches kept test accuracy
# and the learned relationship of a prox per batch there, while one prox
# per epoch lost 30-50% of train-manytask's relationship gap.
PROX_EVERY = 16


def _prox_bases(cov: CovarianceState) -> list:
    """Per stack layer, what :func:`_prox_step` reads: the eigenvectors
    ``(Q_in, Q_out, Q_task)`` of the layer's three factors, from their
    cached :attr:`~relnet.tensor_normal.SpdFactor.eigh`, and the
    diagonal of the layer's ``Sigma^-1`` in that joint eigenbasis, ``1 /
    (sigma_in kron sigma_out kron sigma_task)`` as a ``(D_in, D_out,
    T)`` array."""
    layers = []
    for prior in cov.priors:
        (s_in, q_in), (s_out, q_out), (s_task, q_task) = (f.eigh for f in prior.factors)
        sigma = np.multiply.outer(np.multiply.outer(s_in, s_out), s_task)
        layers.append(((q_in, q_out, q_task), 1.0 / sigma))
    return layers


def _prox_step(weights: list, layers: list, strength: float) -> None:
    """One proximal step of the prior on every stack layer's weights, in
    place: ``W <- (I + strength * Sigma^-1)^-1 W``, ``strength`` being
    ``c * prior_weight`` and ``layers`` the :func:`_prox_bases`.

    Each layer's weights are rotated into the joint eigenbasis of its
    three factors by one mode product per mode, divided elementwise by
    ``1 + strength / (sigma_in kron sigma_out kron sigma_task)`` and
    rotated back, the last mode product written into the weights, which
    must be C-contiguous, as the parameter vector's views are.  The
    divisor is at least 1, so the step never grows the weights' norm,
    whatever the factors.
    """
    for w, (bases, inv_sigma) in zip(weights, layers):
        z = w
        for axis, q in enumerate(bases):
            z = _along_mode(q.T, z, axis)
        z /= 1.0 + strength * inv_sigma
        for axis, q in enumerate(bases[:2]):
            z = _along_mode(q, z, axis)
        # The task mode is last, so its product is written into ``w``.
        t = bases[2].shape[0]
        np.matmul(z.reshape(-1, t), bases[2].T, out=w.reshape(-1, t))


def sgd_epoch(
    net: MultiTaskNet,
    cov: CovarianceState,
    data: MultiTaskDataset,
    cfg: TrainConfig,
    state: OptimizerState,
) -> tuple:
    """One epoch of momentum SGD over the pooled examples.

    The examples of all tasks, the dataset's pooled arrays, are shuffled
    together (child generator of ``cfg.seed`` and the epoch counter) and
    walked in batches, each gathering its rows of the pooled matrix.
    Each batch is one pass of the arithmetic of
    :func:`~relnet.network.batch_gradients` over its mixed tasks, with
    data gradients averaged within the batch: a full batch whose
    size is a power of two has the kernel scale its output gradient by
    one over that size, which rounds as scaling the summed gradients
    would; any other batch scales them after the kernel.  Each stack
    layer's flat task index is built once for the epoch's rows, and a
    batch takes its slice.  The velocity update ``v = momentum * v - lr
    * g`` runs on the trunk segment of the parameter vector and then on
    its stack segment, the latter at ``lr * new_layer_lr_multiplier``.

    The batches take the data gradient only.  With ``prior_weight > 0``
    the prior enters as a proximal step on the stack weights after every
    :data:`PROX_EVERY` batches and after the epoch's last batch, ``W <-
    (I + c * prior_weight * Sigma^-1)^-1 W`` with ``c`` the sum over the
    block's batches of ``lr * new_layer_lr_multiplier * B / (N * (1 -
    momentum))``, ``B`` the batch's rows and ``N`` the epoch's.  It is
    made in the joint eigenbasis of each layer's three factors, from
    their cached :attr:`~relnet.tensor_normal.SpdFactor.eigh`, and it
    leaves the velocity alone.  Its fixed points are those of the
    explicit step ``g + prior_weight * (B / N) * Sigma^-1 vec(W)``:
    README "How SGD applies the prior" says why and what it costs.
    With ``prior_weight == 0`` no factor is read.

    Data that does not fit the network raises :func:`check_data`'s
    :class:`~relnet.data.DatasetError`.  Before any parameter moves, a
    label out of range raises ``batch_gradients``' ``ValueError``, and
    so does a covariance state whose layer ids, prior count or prior
    dims do not match the stack, as in :func:`update_covariances`.  A
    non-finite gradient, or a parameter that turns non-finite in the
    update, raises :class:`TrainingError` naming the epoch, the batch,
    the layer and the quantity; each check is one squared norm, and
    only one that is not finite leads to
    :meth:`~relnet.network.MultiTaskNet.first_nonfinite`'s scan, so a
    finite vector whose squared norm overflows steps on.

    Mutates ``net`` and ``state`` in place and returns ``(kernel_seconds,
    prox_seconds)``: the wall time summed over the epoch's calls of the
    gradient kernel and of the prox, each call timed by one
    ``time.perf_counter`` pair.  The prox's calls are its set-up, the
    factors' eigendecompositions of :func:`_prox_bases`, and its steps;
    ``prox_seconds`` is ``0.0`` with ``prior_weight == 0``.
    """
    check_data(net, data, "training data")
    _check_covariances(net.stack, cov)
    features = data.pooled_features
    total = features.shape[0]
    labels = _check_index(data.pooled_labels, total, net.num_classes, "label")
    task_of = np.repeat(np.arange(net.num_tasks), data.task_sizes)
    # A batch larger than the epoch is the whole epoch; clamping keeps
    # the spread buffers of the plan one epoch long at most.
    size = min(cfg.batch_size, total)
    perm = np.random.default_rng([cfg.seed, 0, state.epoch]).permutation(total)
    task_of, label_rows = task_of[perm], np.eye(net.num_classes)[labels[perm]]
    one_hot = np.eye(net.num_tasks)

    g = Gradients.empty_like(net)
    mu = cfg.momentum
    updates = [
        (state.velocity[seg], net.params[seg], g.flat[seg], mult)
        for seg, mult in (
            (slice(None, net.stack_start), 1.0),
            (slice(net.stack_start, None), cfg.new_layer_lr_multiplier),
        )
        if net.params[seg].size
    ]
    plan = _stack_plan(net, g, task_of, size)
    clock, kernel_s = time.perf_counter, 0.0
    # A power-of-two scale commutes with rounding, so a full batch of a
    # power-of-two size has the kernel scale dz by 1/size: the bits of
    # scaling the summed gradient after it.
    exact = size & (size - 1) == 0
    t0 = clock()
    prox = _prox_bases(cov) if cfg.prior_weight > 0.0 else None
    prox_s = 0.0 if prox is None else clock() - t0
    rate = cfg.new_layer_lr_multiplier / (total * (1.0 - mu))
    # The summed lr * rows of the batches since the last prox.
    block = 0.0

    for k, start in enumerate(range(0, total, size)):
        batch = slice(start, start + size)
        tasks = task_of[batch]
        fold = exact and tasks.shape[0] == size
        t0 = clock()
        _gradients_into(
            g, net, *plan, batch, features.take(perm[batch], axis=0), tasks,
            one_hot.take(tasks, axis=0), label_rows[batch],
            1.0 / size if fold else 1.0,
        )
        kernel_s += clock() - t0
        if not fold:
            g.flat *= 1.0 / tasks.shape[0]

        if (bad := net.first_nonfinite(g.flat)) is not None:
            raise TrainingError(
                f"non-finite gradient of {bad} at epoch {state.epoch}, batch {k}"
            )

        # The checked gradient is spent, so it takes the step.
        lr = learning_rate_at(cfg, state.iteration)
        for v, p, grad, mult in updates:
            v *= mu
            grad *= lr * mult
            v -= grad
            p += v
        state.iteration += 1

        if (bad := net.first_nonfinite(net.params)) is not None:
            raise TrainingError(
                f"non-finite {bad} after the update at epoch {state.epoch}, "
                f"batch {k}"
            )

        if prox is not None:
            block += lr * tasks.shape[0]
            if (k + 1) % PROX_EVERY == 0 or start + size >= total:
                t0 = clock()
                _prox_step(net.stack.weights, prox, block * rate * cfg.prior_weight)
                prox_s += clock() - t0
                block = 0.0

    state.epoch += 1
    return kernel_s, prox_s


@dataclass
class EpochRecord:
    """One epoch's row of ``report.csv`` and of ``timings.csv``.

    ``test_accuracy`` and ``test_loss``, the held-out fold's summed
    cross-entropy, are None without eval data.  The wall-clock seconds
    are those :func:`train` measures: ``sgd_seconds`` of
    :func:`sgd_epoch`, within it ``kernel_seconds`` of the gradient
    kernel and ``prox_seconds`` of the prox (its eigenbases and its
    steps), ``cov_seconds`` of the refit, and ``scoring_seconds`` from
    the refit's end to the record.
    """

    epoch: int
    objective: float
    train_accuracy: tuple
    test_accuracy: tuple | None
    test_loss: float | None
    residuals: tuple
    sgd_seconds: float
    cov_seconds: float
    kernel_seconds: float
    prox_seconds: float
    scoring_seconds: float


@dataclass
class TrainReport:
    """Per-epoch training curve plus factored timing columns.

    ``to_csv`` writes the deterministic part (objective, accuracies,
    held-out loss, covariance-update residuals); wall-clock phase
    timings go to a separate file via ``timings_to_csv`` so, at one BLAS
    thread count, the report bytes depend only on the seed and config.
    The ``test_acc_*`` columns and ``test_loss`` after them are there
    when the run was given eval data (``has_test``), however many epochs
    it ran.  ``timings_to_csv`` writes ``epoch``, ``sgd_seconds``,
    ``covariance_seconds``, ``kernel_seconds``, ``prox_seconds`` and
    ``scoring_seconds``, as :class:`EpochRecord` describes them.
    """

    task_names: list
    layer_ids: list
    has_test: bool = False
    records: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        header = ["epoch", "objective"]
        header += [f"train_acc_{name}" for name in self.task_names]
        if self.has_test:
            header += [f"test_acc_{name}" for name in self.task_names] + ["test_loss"]
        header += [f"residual_{lid}" for lid in self.layer_ids]
        rows = [header]
        for r in self.records:
            test = (*r.test_accuracy, r.test_loss) if self.has_test else ()
            rows.append([r.epoch, r.objective, *r.train_accuracy, *test, *r.residuals])
        write_csv_rows(path, rows)

    def timings_to_csv(self, path) -> None:
        header = ["epoch", "sgd_seconds", "covariance_seconds", "kernel_seconds",
                  "prox_seconds", "scoring_seconds"]
        rows = [[r.epoch, r.sgd_seconds, r.cov_seconds, r.kernel_seconds,
                 r.prox_seconds, r.scoring_seconds] for r in self.records]
        write_csv_rows(path, [header, *rows])


def _residual(old: KronCovariance, new: KronCovariance) -> float:
    return max(
        float(np.linalg.norm(a.matrix - b.matrix))
        for a, b in zip(old.factors, new.factors)
    )


def train(
    net: MultiTaskNet,
    data: MultiTaskDataset,
    cfg: TrainConfig,
    eval_data: MultiTaskDataset | None = None,
) -> tuple:
    """Run the full joint loop; returns ``(net, covariances, report)``.

    Covariances start as unit-trace scaled identities.  Every epoch runs
    :func:`sgd_epoch`, one :func:`update_covariances` sweep, then scores
    each fold with one :func:`~relnet.network.fold_scores` call: the
    training fold's per-task accuracies and log losses, and the held-out
    fold's accuracies and ``test_loss``, the sum of its log losses.  The
    epoch's objective is the data loss, the sum of the training fold's
    log losses, plus ``prior_weight`` times
    :func:`~relnet.network.prior_penalty`.  With ``epochs == 0`` the
    initialization is returned untouched and the report is empty.

    Each epoch's record holds its wall-clock phases, which tile the
    epoch: ``sgd_seconds`` around :func:`sgd_epoch`, with the kernel and
    prox seconds it returns; ``cov_seconds`` around the refit; and
    ``scoring_seconds`` from the refit's end to the record, the
    residuals, both folds' scoring and the prior term.

    When ``cfg.prior_weight == 0`` the covariance refit is skipped: the
    prior has no influence on the parameters, so tasks train
    independently and the factors stay at their identity initialization.

    A refit that fails raises its
    :class:`~relnet.tensor_normal.EstimationError` prefixed with the
    0-based epoch it followed.  A non-finite epoch objective raises
    :class:`TrainingError` giving the epoch, the data loss and the
    weighted prior term.
    """
    check_data(net, data, "training data")
    if eval_data is not None:
        check_data(net, eval_data, "eval data")

    cov = CovarianceState.identity_for(net.stack, cfg.shared_task_sigma)
    state = OptimizerState.zeros_like(net)
    report = TrainReport(
        task_names=list(data.task_names),
        layer_ids=list(net.stack.layer_ids),
        has_test=eval_data is not None,
    )

    for _ in range(cfg.epochs):
        t0 = time.perf_counter()
        kernel_s, prox_s = sgd_epoch(net, cov, data, cfg, state)
        t1 = time.perf_counter()
        new_cov = cov
        if cfg.prior_weight > 0.0:
            try:
                new_cov = update_covariances(net.stack, cov, cfg)
            except EstimationError as exc:
                raise EstimationError(
                    f"covariance refit after epoch {state.epoch - 1}: {exc}"
                ) from None
        t2 = time.perf_counter()

        residuals = tuple(map(_residual, cov.priors, new_cov.priors))
        cov = new_cov
        losses, train_acc = fold_scores(net, data)
        data_loss, prior = float(sum(losses)), 0.0
        if cfg.prior_weight > 0.0:
            prior = cfg.prior_weight * prior_penalty(net.stack, cov.priors)
        obj = data_loss + prior
        if not math.isfinite(obj):
            raise TrainingError(
                f"non-finite objective after epoch {state.epoch - 1}: data loss "
                f"{data_loss!r}, prior term {prior!r}"
            )
        test_acc = test_loss = None
        if eval_data is not None:
            held_out, test_acc = fold_scores(net, eval_data)
            test_loss = float(sum(held_out))
        report.records.append(
            EpochRecord(
                epoch=state.epoch,
                objective=obj,
                train_accuracy=train_acc,
                test_accuracy=test_acc,
                test_loss=test_loss,
                residuals=residuals,
                sgd_seconds=t1 - t0,
                cov_seconds=t2 - t1,
                kernel_seconds=kernel_s,
                prox_seconds=prox_s,
                scoring_seconds=time.perf_counter() - t2,
            )
        )
    return net, cov, report


def extract_relationship(cov: CovarianceState, layer: str) -> np.ndarray:
    """Task correlation matrix of the task-mode factor of the stack
    layer with id ``layer``.

    Normalizes the covariance factor to correlations; the diagonal is
    exactly 1.  An unknown id raises ``ValueError``.
    """
    if layer not in cov.layer_ids:
        raise ValueError(f"unknown stack layer {layer!r}; have {cov.layer_ids}")
    m = cov.priors[cov.layer_ids.index(layer)].factors[2].matrix
    scale = np.sqrt(np.diag(m))
    corr = m / np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)
    return corr
