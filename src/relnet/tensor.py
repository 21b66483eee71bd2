"""Dense order-3 tensor algebra.

Tensors are NumPy arrays of ``ndim == 3`` interpreted in row-major
(C) order: the first index varies slowest in memory, the last fastest.
All layout-sensitive operations in this package share one set of
conventions, fixed here once:

* ``vectorize`` flattens in storage order, so for dims ``(d1, d2, d3)``
  the entry ``t[i1, i2, i3]`` lands at flat position
  ``i1*d2*d3 + i2*d3 + i3``.
* ``matricize(t, mode)`` puts mode-``n`` fibers into rows.  Columns are
  indexed by the remaining modes in ascending order with the later mode
  varying fastest, e.g. mode 1 gives columns ``(i2, i3)`` with ``i3``
  fastest.  Under these two conventions the classical identity

      vec(t x1 A x2 B x3 C) == (A kron B kron C) vec(t)

  holds verbatim, with the Kronecker factors in mode order.

Modes are numbered 1 to 3 throughout, matching the subscripts in the
linear-algebra notation rather than Python axis numbers.

:func:`mode_product` is made by the private kernel ``_along_mode``,
which multiplies a matrix into one axis of an array of any order
without moving axes; :mod:`relnet.tensor_normal` makes every per-mode
product (whitening, applying an inverse, sampling) with it too.
:func:`matricize` and :func:`fold` spell out the unfolding, as the
reference the kernel agrees with.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_tensor3",
    "matricize",
    "fold",
    "vectorize",
    "mode_product",
    "kronecker",
]

# Refuse Kronecker results whose index arithmetic would leave C-int range.
_MAX_KRON_ELEMENTS = 2**31


def as_tensor3(t) -> np.ndarray:
    """Validate and return ``t`` as a float order-3 array."""
    arr = np.asarray(t, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got ndim={arr.ndim}")
    return arr


def _check_mode(mode: int) -> int:
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
    return mode


def matricize(t, mode: int) -> np.ndarray:
    """Unfold ``t`` along ``mode`` into a matrix of mode-``mode`` fibers.

    Row ``i`` holds the slice of ``t`` with index ``i`` in the chosen
    mode; columns run over the remaining modes in ascending order, the
    later mode varying fastest.  Mode 1 is a pure reshape of the
    underlying storage.

    Parameters
    ----------
    t : array_like
        Order-3 tensor with dims ``(d1, d2, d3)``.
    mode : int
        Mode to unfold, in ``{1, 2, 3}``.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(d_mode, prod(other dims))``.
    """
    arr = as_tensor3(t)
    _check_mode(mode)
    d1, d2, d3 = arr.shape
    if mode == 1:
        return arr.reshape(d1, d2 * d3)
    if mode == 2:
        return np.transpose(arr, (1, 0, 2)).reshape(d2, d1 * d3)
    return np.transpose(arr, (2, 0, 1)).reshape(d3, d1 * d2)


def fold(m, mode: int, dims) -> np.ndarray:
    """Inverse of :func:`matricize`: rebuild the tensor with shape ``dims``.

    Parameters
    ----------
    m : array_like
        Matrix of shape ``(dims[mode-1], prod(other dims))``.
    mode : int
        Mode the matrix was unfolded along.
    dims : tuple of int
        Target tensor dims ``(d1, d2, d3)``.

    Returns
    -------
    numpy.ndarray
        Order-3 tensor such that ``matricize(fold(m, mode, dims), mode) == m``.
    """
    mat = np.asarray(m, dtype=float)
    _check_mode(mode)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d <= 0 for d in dims):
        raise ValueError(f"dims must be three positive ints, got {dims!r}")
    d1, d2, d3 = dims
    other = {1: d2 * d3, 2: d1 * d3, 3: d1 * d2}[mode]
    if mat.shape != (dims[mode - 1], other):
        raise ValueError(
            f"matrix shape {mat.shape} does not fold to dims {dims} along mode {mode}"
        )
    if mode == 1:
        return mat.reshape(d1, d2, d3)
    if mode == 2:
        return mat.reshape(d2, d1, d3).transpose(1, 0, 2)
    return mat.reshape(d3, d1, d2).transpose(1, 2, 0)


def vectorize(t) -> np.ndarray:
    """Flatten ``t`` in storage order (first index slowest)."""
    return as_tensor3(t).ravel()


def mode_product(t, m, mode: int) -> np.ndarray:
    """Multiply ``t`` along ``mode`` by the matrix ``m``.

    Equals ``fold(m @ matricize(t, mode), mode, new_dims)`` where the
    mode-``mode`` dim is replaced by ``m.shape[0]``.

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
    _check_mode(mode)
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


def kronecker(a, b) -> np.ndarray:
    """Dense Kronecker product ``a kron b``.

    Entry ``(i*b_rows + k, j*b_cols + l)`` equals ``a[i, j] * b[k, l]``.
    Intended for oracles and desk-scale checks; refuses results whose
    element count exceeds ``2**31``.
    """
    am = np.asarray(a, dtype=float)
    bm = np.asarray(b, dtype=float)
    if am.ndim != 2 or bm.ndim != 2:
        raise ValueError("kronecker expects two matrices")
    rows = am.shape[0] * bm.shape[0]
    cols = am.shape[1] * bm.shape[1]
    if rows * cols > _MAX_KRON_ELEMENTS:
        raise ValueError(
            f"kronecker result {rows}x{cols} exceeds the supported size"
        )
    return np.kron(am, bm)
