"""Dense order-3 tensor algebra.

Tensors are NumPy arrays of ``ndim == 3`` interpreted in row-major
(C) order: the first index varies slowest in memory, the last fastest.
Modes are numbered 1 to 3, matching the subscripts in the
linear-algebra notation rather than Python axis numbers.  Every
layout-sensitive operation in this package follows two conventions:

* ``vec(t)`` flattens in storage order, so for dims ``(d1, d2, d3)``
  the entry ``t[i1, i2, i3]`` lands at flat position
  ``i1*d2*d3 + i2*d3 + i3``.
* The mode-``n`` unfolding ``t_(n)`` puts mode-``n`` fibers into rows.
  Its columns run over the remaining modes in ascending order with the
  later mode varying fastest, e.g. mode 1 gives columns ``(i2, i3)``
  with ``i3`` fastest; the mode-1 unfolding is a plain reshape.

Under these two conventions the classical identity

    vec(t x1 A x2 B x3 C) == (A kron B kron C) vec(t)

holds verbatim, with the Kronecker factors in mode order, and the
mode-``n`` product is ``(t x_n M)_(n) == M t_(n)``.

:func:`mode_product` is made by the private kernel ``_along_mode``,
which multiplies a matrix into one axis of an array of any order
without moving axes; :mod:`relnet.tensor_normal` makes every per-mode
product (whitening, sampling, the flip-flop's update of its whitened
samples) with it too.  The unfolding, its inverse, ``vec`` and the
dense Kronecker product are spelled out in ``tests/oracles.py``, the
reference that :func:`mode_product` is checked against.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["as_tensor3", "mode_product"]


def as_tensor3(t) -> np.ndarray:
    """Validate and return ``t`` as a float order-3 array."""
    arr = np.asarray(t, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got ndim={arr.ndim}")
    return arr


def mode_product(t, m, mode: int) -> np.ndarray:
    """Multiply ``t`` along ``mode`` by the matrix ``m``.

    Equals folding ``m @ t_(mode)`` back into a tensor whose
    mode-``mode`` dim is ``m.shape[0]``.

    Parameters
    ----------
    t : array_like
        Order-3 tensor.
    m : array_like
        Matrix with ``m.shape[1] == t.shape[mode-1]``.
    mode : int
        Mode to contract, in ``{1, 2, 3}``.
    """
    arr = as_tensor3(t)
    mat = np.asarray(m, dtype=float)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={mat.ndim}")
    if mat.shape[1] != arr.shape[mode - 1]:
        raise ValueError(
            f"matrix has {mat.shape[1]} columns but mode {mode} has dim "
            f"{arr.shape[mode - 1]}"
        )
    return _along_mode(mat, arr, mode - 1)


def _along_mode(mat: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """Multiply the unfolding of ``arr`` along the Python axis ``axis``
    by the matrix ``mat``, whose column count is that axis's dim.

    ``arr`` is viewed by a plain reshape as ``(before, d, after)``, the
    products of the dims on either side of the axis, and ``mat``
    multiplies the middle index: one matrix product when the axis is
    first or last, one batched product over ``before`` otherwise.  No
    axis is moved, so no copy of ``arr`` is made for a C-contiguous
    input, and the result, the shape of ``arr`` with ``mat.shape[0]``
    along the axis, is C-contiguous, so the next mode's reshape is free.
    The shape products use ``math.prod``: on the trainer's small tensors
    a numpy reduction over the shape would cost more than the product.
    """
    shape = arr.shape
    axis %= arr.ndim
    d = shape[axis]
    before = math.prod(shape[:axis])
    after = math.prod(shape[axis + 1 :])
    if before == 1:
        out = mat @ arr.reshape(d, after)
    elif after == 1:
        out = arr.reshape(before, d) @ mat.T
    else:
        out = mat @ arr.reshape(before, d, after)
    return out.reshape(shape[:axis] + (mat.shape[0],) + shape[axis + 1 :])
