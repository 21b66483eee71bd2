"""Reference implementations that the tests compare relnet against.

Each is the plainest spelling of a convention or quantity stated in
:mod:`relnet.tensor`, :mod:`relnet.tensor_normal`, :mod:`relnet.network`,
:mod:`relnet.trainer` or :mod:`relnet.serialize`, written for clarity
rather than speed.
"""

import base64
import math

import numpy as np
from scipy.linalg import solve_triangular

from relnet.network import batch_gradients, logits
from relnet.tensor_normal import (
    _LOG_2PI,
    EstimationError,
    FlipFlopResult,
    KronCovariance,
    SpdFactor,
    _stack_samples,
)
from relnet.tensor import mode_product
from relnet.trainer import PROX_EVERY, TrainingError, check_data, learning_rate_at

kronecker = np.kron
vectorize = np.ravel


def array_object(arr):
    """``arr`` as the JSON array object of :class:`relnet.serialize.BinaryArray`,
    spelled out by hand, so that it may hold NaN: little-endian float64
    bytes in row-major order, in standard base64."""
    arr = np.asarray(arr, dtype="<f8")
    data = base64.b64encode(arr.tobytes()).decode("ascii")
    return {"dtype": "<f8", "shape": list(arr.shape), "base64": data}


def matricize(t, mode):
    """Mode-``mode`` unfolding: row ``i`` is the slice with index ``i``
    along the mode, columns run over the other modes ascending with the
    later mode fastest."""
    return np.moveaxis(t, mode - 1, 0).reshape(t.shape[mode - 1], -1)


def fold(m, mode, dims):
    """Inverse of :func:`matricize` for a tensor of shape ``dims``."""
    rest = [d for k, d in enumerate(dims, start=1) if k != mode]
    return np.moveaxis(m.reshape(dims[mode - 1], *rest), 0, mode - 1)


def dense_cov(cov):
    """The dense covariance ``Sigma_1 kron Sigma_2 kron ...`` of a
    :class:`~relnet.tensor_normal.KronCovariance`."""
    out = cov.factors[0].matrix
    for f in cov.factors[1:]:
        out = kronecker(out, f.matrix)
    return out


def solve_kron(cov, arr):
    """``Sigma^-1 vec(arr)`` by a dense solve against :func:`dense_cov`,
    reshaped like ``arr``."""
    arr = np.asarray(arr, dtype=float)
    return np.linalg.solve(dense_cov(cov), arr.ravel()).reshape(arr.shape)


def backward(net, task, x, label):
    """Cross-entropy gradient of one labeled example: a batch of one."""
    return batch_gradients(net, [task], np.reshape(x, (1, -1)), [label])


def task_log_loss(net, task, x, labels):
    """Summed cross-entropy of a batch under one task, from the logits of
    :func:`relnet.network.logits`: per row, the log-sum-exp shifted by
    the row's maximum, less the label's logit.  This is the arithmetic of
    :func:`relnet.network.fold_scores`, whose row maximum, taken column by
    column, is exact, so the two agree bit for bit.  Labels are checked
    as ``batch_gradients`` checks them."""
    z = logits(net, task, np.atleast_2d(x))
    labels = np.asarray(labels, dtype=int).reshape(-1)
    if labels.shape != (z.shape[0],):
        raise ValueError("need one task and one label per example")
    if np.any((labels < 0) | (labels >= net.num_classes)):
        raise ValueError(f"label out of range [0, {net.num_classes})")
    m = z.max(axis=1)
    lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
    return float(np.sum(lse - z[np.arange(z.shape[0]), labels]))


def task_accuracy(net, task, x, labels):
    """Fraction of a batch's rows under one task whose largest logit of
    :func:`relnet.network.logits` is the label's.  ``np.argmax`` takes
    the first largest, so a tie goes to the lower class index."""
    z = logits(net, task, np.atleast_2d(x))
    hits = np.count_nonzero(np.argmax(z, axis=1) == np.reshape(labels, -1))
    return hits / z.shape[0]


def prior_gradient_full(stack, priors, l):
    """``Sigma^-1 vec(W)`` of stack layer ``l``, as a ``(D_in, D_out, T)``
    tensor covering every task."""
    return solve_kron(priors[l], stack.weights[l])


def per_batch_sgd_epoch(net, cov, data, cfg, state):
    """:func:`relnet.trainer.sgd_epoch` spelled batch by batch: each
    batch calls the public :func:`~relnet.network.batch_gradients` and
    updates with a temporary ``rate * g``; after every
    ``trainer.PROX_EVERY`` batches and after the last, each stack
    layer's weights are rotated into the eigenbasis of its three factors
    by :func:`~relnet.tensor.mode_product`, divided by ``1 + c * lambda
    / sigma`` and rotated back.  It runs the floating-point operations of
    ``sgd_epoch`` in the same order, so the two give equal results."""
    check_data(net, data, "training data")
    stack = net.stack
    task_of = np.repeat(np.arange(net.num_tasks), data.task_sizes)
    features = np.concatenate(data.features)
    labels = np.concatenate(data.labels)
    total = task_of.shape[0]

    rng = np.random.default_rng([cfg.seed, 0, state.epoch])
    perm = rng.permutation(total)

    mu = cfg.momentum
    mult = cfg.new_layer_lr_multiplier
    segments = (slice(None, net.stack_start), slice(net.stack_start, None))
    starts = range(0, total, cfg.batch_size)
    block = 0.0
    for k, start in enumerate(starts):
        where = f"epoch {state.epoch}, batch {k}"
        batch = perm[start : start + cfg.batch_size]
        tasks = task_of[batch]
        g = batch_gradients(net, tasks, features[batch], labels[batch])
        g.flat *= 1.0 / batch.shape[0]

        if not np.isfinite(g.flat).all():
            bad = net.first_nonfinite(g.flat)
            raise TrainingError(f"non-finite gradient of {bad} at {where}")

        lr = learning_rate_at(cfg, state.iteration)
        for seg, rate in zip(segments, (lr, lr * mult)):
            v, p = state.velocity[seg], net.params[seg]
            v *= mu
            v -= rate * g.flat[seg]
            p += v
        state.iteration += 1

        if not np.isfinite(net.params).all():
            bad = net.first_nonfinite(net.params)
            raise TrainingError(f"non-finite {bad} after the update at {where}")

        if cfg.prior_weight > 0.0:
            block += lr * batch.shape[0]
            if (k + 1) % PROX_EVERY == 0 or k + 1 == len(starts):
                c = block * (mult / (total * (1.0 - mu))) * cfg.prior_weight
                for w, prior in zip(stack.weights, cov.priors):
                    (s1, q1), (s2, q2), (s3, q3) = (f.eigh for f in prior.factors)
                    sigma = np.multiply.outer(np.multiply.outer(s1, s2), s3)
                    z = mode_product(w, q1.T, 1)
                    z = mode_product(mode_product(z, q2.T, 2), q3.T, 3)
                    z = z / (1.0 + c * (1.0 / sigma))
                    z = mode_product(mode_product(mode_product(z, q1, 1), q2, 2), q3, 3)
                    w[...] = z
                block = 0.0

    state.epoch += 1
    return net, state


def triangular_whiten(x, factors, skip=None):
    """Whiten every mode (the trailing axes) of ``x`` but mode ``skip``
    by a triangular solve against its factor's Cholesky factor ``L_k``,
    the mode's unfolding taken as the right-hand sides."""
    z = np.asarray(x, dtype=float)
    for k, f in enumerate(factors):
        if k != skip:
            moved = np.moveaxis(z, k - len(factors), 0)
            rhs = moved.reshape(moved.shape[0], -1)
            solved = solve_triangular(f.chol, rhs, lower=True)
            z = np.moveaxis(solved.reshape(moved.shape), 0, k - len(factors))
    return z


def whitened_gram(x, factors, k):
    """Gram matrix of mode ``k`` of ``x`` whitened along every other mode
    by :func:`triangular_whiten`, summed over any leading sample axes:
    ``sum_i X_i(k) (kron of the other factors)^{-1} X_i(k)^T``."""
    z = np.moveaxis(triangular_whiten(x, factors, skip=k), k - len(factors), 0)
    rows = z.reshape(z.shape[0], -1)
    return rows @ rows.T


def _total_log_likelihood(centered, factors):
    """Sum of log densities for pre-centered stacked samples."""
    n = centered.shape[0]
    d = math.prod(centered.shape[1:])
    z = triangular_whiten(centered, factors)
    maha = float(np.sum(z * z))
    logdet = sum((d / f.dim) * f.logdet for f in factors)
    return -0.5 * (n * d * _LOG_2PI + n * logdet + maha)


def reference_flip_flop_mle(samples, mean, tol=1e-8, max_iter=200):
    """:func:`relnet.tensor_normal.flip_flop_mle` spelled from scratch
    each sweep: every mode's Gram whitens the centred samples along the
    other two modes (:func:`whitened_gram`), and every sweep's
    log-likelihood whitens all three modes again, each whitening by
    triangular solves."""
    stacked = _stack_samples(samples)
    if stacked.ndim != 4:
        raise ValueError(
            f"expected order-3 samples, got tensors of ndim {stacked.ndim - 1}"
        )
    mean_arr = np.asarray(mean, dtype=float)
    if mean_arr.shape != stacked.shape[1:]:
        raise ValueError(
            f"mean shape {mean_arr.shape} does not match samples "
            f"{stacked.shape[1:]}"
        )
    if tol < 0:
        raise ValueError("tol must be non-negative")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    dims = stacked.shape[1:]
    n = stacked.shape[0]
    d = math.prod(dims)
    centered = stacked - mean_arr

    factors = [SpdFactor.identity(dk) for dk in dims]

    ll = _total_log_likelihood(centered, factors)
    history = [ll]
    converged = False
    sweeps = 0
    for sweep in range(1, max_iter + 1):
        for k in range(3):
            gram = whitened_gram(centered, factors, k)
            try:
                factors[k] = SpdFactor(gram / (n * (d / dims[k])))
            except ValueError:
                raise EstimationError(
                    f"mode {k + 1} covariance update is not positive definite"
                ) from None
        new_ll = _total_log_likelihood(centered, factors)
        history.append(new_ll)
        sweeps = sweep
        if abs(new_ll - ll) <= tol * max(1.0, abs(ll)):
            converged = True
            ll = new_ll
            break
        ll = new_ll

    return FlipFlopResult(
        cov=KronCovariance(factors),
        iterations=sweeps,
        log_likelihood=ll,
        converged=converged,
        history=tuple(history),
    )
