"""Reference implementations that the tests compare relnet against.

Each is the plainest spelling of a convention or quantity stated in
:mod:`relnet.tensor` or :mod:`relnet.network`, written for clarity
rather than speed.
"""

import numpy as np

from relnet.network import batch_gradients

kronecker = np.kron
vectorize = np.ravel


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


def backward(net, task, x, label):
    """Cross-entropy gradient of one labeled example: a batch of one."""
    return batch_gradients(net, [task], x, [label])


def prior_gradient_full(stack, priors, l):
    """``Sigma^-1 vec(W)`` of stack layer ``l``, as a ``(D_in, D_out, T)``
    tensor covering every task."""
    return priors[l].apply_inverse(stack.weights[l])
