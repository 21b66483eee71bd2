"""Tensor normal distribution with Kronecker-factored covariance.

A tensor-variate normal over arrays of dims ``(d1, ..., dK)`` whose
vectorization is Gaussian with covariance ``Sigma_1 kron ... kron
Sigma_K``.  The factored form is never materialized: densities,
Mahalanobis distances and sampling work through per-mode factor
matrices, which keeps the cost at a handful of small matrix products
instead of anything cubic in ``prod(dims)``.

Density and sampling accept any order ``K >= 1`` (one factor per mode).
The maximum-likelihood machinery (:func:`flip_flop_mle`) is order-3
only, matching the rest of the package.

Modes are always the trailing ``K`` axes of an array; any leading axes
index samples.  Every per-mode operation (whitening by ``L_k^{-1}``,
applying ``Sigma_k^{-1}``, coloring by ``L_k``) is one product of a
factor matrix with the array's unfolding along that mode, made by the
private kernel ``_along_mode`` of :mod:`relnet.tensor`, which also
makes :func:`relnet.tensor.mode_product`.  Whitening, all modes or all
but one, is ``_whiten``; :func:`mode_gram` forms the Gram matrix of one
mode after whitening the others.  The flip-flop estimator and the
trainer's covariance refit share that function.

Each :class:`SpdFactor` forms its inverse Cholesky factor ``L_k^{-1}``
and its precision ``Sigma_k^{-1} = L_k^{-T} L_k^{-1}`` once, on first
use, so no per-mode step solves a system: applying the full inverse is
the Kronecker-factored inverse of K-FAC (Martens & Grosse, 2015).  A
factor is immutable, so the trainer, which builds new factors only in
its covariance refit, forms each of them once per refit however many
batches use it.  Only numpy is needed.

Vectorization follows :mod:`relnet.tensor`: row-major flattening, under
which the factors appear in mode order in the Kronecker product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .tensor import _along_mode

__all__ = [
    "EstimationError",
    "SpdFactor",
    "KronCovariance",
    "TensorNormal",
    "FlipFlopResult",
    "mahalanobis",
    "log_pdf",
    "sample",
    "mle_mean",
    "mode_gram",
    "flip_flop_mle",
    "normalize_identifiable",
]

_LOG_2PI = float(np.log(2.0 * np.pi))

# Symmetry check tolerance, relative to the largest entry.
_SYMMETRY_TOL = 1e-10


class EstimationError(RuntimeError):
    """Raised when a covariance estimate cannot be formed or is degenerate."""


class SpdFactor:
    """A symmetric positive definite matrix with its cached factor matrices.

    Parameters
    ----------
    matrix : array_like
        Square matrix, symmetric to a relative tolerance of ``1e-10``.
        It is symmetrized exactly on construction and must admit a
        Cholesky factorization.

    Attributes
    ----------
    matrix : numpy.ndarray
        The (symmetrized) matrix.
    chol : numpy.ndarray
        Lower-triangular Cholesky factor ``L`` with ``L @ L.T == matrix``.
    logdet : float
        ``log det(matrix)``, computed from the Cholesky diagonal.
    chol_inv : numpy.ndarray
        ``L^{-1}``, the inverse of ``chol``, formed on first access;
        exactly lower triangular and read-only.
    precision : numpy.ndarray
        ``matrix^{-1} = L^{-T} L^{-1}``, formed from ``chol_inv`` on
        first access, exactly symmetric and read-only.
    """

    __slots__ = ("matrix", "chol", "logdet", "_chol_inv", "_precision")

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
        if not np.allclose(m, m.T, rtol=0.0, atol=_SYMMETRY_TOL * scale):
            raise ValueError("matrix is not symmetric")
        m = 0.5 * (m + m.T)
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ValueError("matrix is not positive definite") from None
        self.matrix = m
        self.chol = chol
        self.logdet = float(2.0 * np.sum(np.log(np.diag(chol))))
        self._chol_inv = None
        self._precision = None

    @classmethod
    def identity(cls, dim: int, scale: float = 1.0) -> "SpdFactor":
        """Scaled identity factor of the given dimension."""
        return cls(np.eye(int(dim)) * float(scale))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def chol_inv(self) -> np.ndarray:
        """``L^{-1}``, formed once and cached.

        The inverse of a lower-triangular matrix is lower triangular;
        the upper triangle is zeroed so that rounding in the general
        inverse leaves no entries there.
        """
        if self._chol_inv is None:
            inv = np.tril(np.linalg.inv(self.chol))
            inv.setflags(write=False)
            self._chol_inv = inv
        return self._chol_inv

    @property
    def precision(self) -> np.ndarray:
        """``matrix^{-1} = L^{-T} L^{-1}``, formed once and cached."""
        if self._precision is None:
            inv = self.chol_inv.T @ self.chol_inv
            inv = 0.5 * (inv + inv.T)
            inv.setflags(write=False)
            self._precision = inv
        return self._precision

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdFactor(dim={self.dim})"


class KronCovariance:
    """Covariance ``Sigma_1 kron ... kron Sigma_K`` stored by its factors.

    The dense matrix is never formed; every operation that needs it
    works mode by mode, as one product per mode with a factor's cached
    ``L_k^{-1}`` or precision.

    Parameters
    ----------
    factors : sequence
        One :class:`SpdFactor` (or raw SPD matrix) per mode, in mode
        order.

    Attributes
    ----------
    factors : tuple of SpdFactor
    dims : tuple of int
        ``(d_1, ..., d_K)``, stored once: the factors never change.
    """

    __slots__ = ("factors", "dims")

    def __init__(self, factors: Sequence):
        if len(factors) == 0:
            raise ValueError("need at least one covariance factor")
        self.factors = tuple(
            f if isinstance(f, SpdFactor) else SpdFactor(f) for f in factors
        )
        self.dims = tuple(f.dim for f in self.factors)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def logdet(self) -> float:
        """``log det`` of the full Kronecker product."""
        d = self.total_dim
        return float(sum((d / f.dim) * f.logdet for f in self.factors))

    def whiten(self, arr) -> np.ndarray:
        """Multiply every mode of ``arr`` by its factor's ``L_k^{-1}``.

        The result ``z`` satisfies ``||z||^2 == vec(arr)^T Sigma^{-1}
        vec(arr)``.
        """
        arr = np.asarray(arr, dtype=float)
        if arr.shape != self.dims:
            raise ValueError(f"shape {arr.shape} does not match dims {self.dims}")
        return _whiten(arr, self.factors)

    def apply_inverse(self, arr) -> np.ndarray:
        """Apply the full inverse mode by mode.

        Returns the tensor reshaping of ``(Sigma_1 kron ... kron
        Sigma_K)^{-1} vec(arr)`` without materializing the product:
        each mode is multiplied by its factor's cached
        :attr:`SpdFactor.precision`, so repeated calls with the same
        factors cost ``D * sum(d_k)`` multiplies and no solves.
        """
        arr = np.asarray(arr, dtype=float)
        if arr.shape != self.dims:
            raise ValueError(f"shape {arr.shape} does not match dims {self.dims}")
        for k, f in enumerate(self.factors):
            arr = _along_mode(f.precision, arr, k)
        return arr

    def __repr__(self) -> str:  # pragma: no cover
        return f"KronCovariance(dims={self.dims})"


@dataclass(frozen=True)
class TensorNormal:
    """Tensor normal distribution with mean ``mean`` and covariance ``cov``.

    ``mean`` is an array whose shape equals ``cov.dims``; the
    distribution of the vectorized tensor is Gaussian with mean
    ``vec(mean)`` and covariance ``Sigma_1 kron ... kron Sigma_K``.
    """

    mean: np.ndarray
    cov: KronCovariance

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        object.__setattr__(self, "mean", mean)
        if mean.shape != self.cov.dims:
            raise ValueError(
                f"mean shape {mean.shape} does not match covariance dims "
                f"{self.cov.dims}"
            )

    @property
    def dims(self) -> tuple:
        return self.cov.dims

    @property
    def total_dim(self) -> int:
        return self.cov.total_dim


def _whiten(centered: np.ndarray, factors, skip: int | None = None) -> np.ndarray:
    """Multiply every mode (the trailing axes) of ``centered`` but mode
    ``skip`` by its factor's cached ``L_k^{-1}``.

    With no mode skipped, the result has identity covariance under the
    model.
    """
    z = centered
    for k, f in enumerate(factors):
        if k != skip:
            z = _along_mode(f.chol_inv, z, k - len(factors))
    return z


def mode_gram(x, factors, k: int) -> np.ndarray:
    """Gram matrix of mode ``k`` after whitening every other mode.

    ``x`` holds one tensor with dims ``(d_1, ..., d_K)`` matching
    ``factors`` (one :class:`SpdFactor` per mode), or a batch of them
    along leading axes.  Each other mode is whitened by one product with
    its factor's cached ``L_j^{-1}`` (``_whiten`` skipping mode ``k``),
    mode ``k`` is unfolded to ``(d_k, rest)`` (the columns running over
    samples too) and the result is ``rows @ rows.T``, i.e.

        sum_i  X_i(k) (kron of the other factors)^{-1} X_i(k)^T.

    It is symmetric PSD by construction.  Dividing by ``n * d / d_k``
    gives the flip-flop update of ``Sigma_k``.
    """
    z = _whiten(np.asarray(x, dtype=float), factors, skip=k)
    moved = np.moveaxis(z, k - len(factors), 0)
    rows = moved.reshape(moved.shape[0], -1)
    return rows @ rows.T


def _check_point(dist: TensorNormal, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != dist.dims:
        raise ValueError(f"point shape {arr.shape} does not match dims {dist.dims}")
    return arr


def mahalanobis(dist: TensorNormal, x) -> float:
    """Squared Mahalanobis distance of ``x`` under ``dist``.

    Computed as ``||z||^2`` where ``z`` whitens ``x - mean`` by one
    product with ``L_k^{-1}`` per mode; no Kronecker product is formed.
    """
    arr = _check_point(dist, x)
    z = _whiten(arr - dist.mean, dist.cov.factors)
    return float(np.sum(z * z))


def log_pdf(dist: TensorNormal, x) -> float:
    """Log density of ``x`` under the tensor normal ``dist``."""
    maha = mahalanobis(dist, x)
    d = dist.total_dim
    return -0.5 * (d * _LOG_2PI + dist.cov.logdet() + maha)


def sample(dist: TensorNormal, rng: np.random.Generator, size: int | None = None):
    """Draw from ``dist`` using ``rng``.

    A standard normal array is colored mode by mode with the Cholesky
    factors and shifted by the mean.  With ``size=None`` a single tensor
    of shape ``dist.dims`` is returned, otherwise an array of shape
    ``(size, *dist.dims)`` whose leading axis indexes draws.
    """
    dims = dist.dims
    shape = dims if size is None else (int(size),) + dims
    z = rng.standard_normal(shape)
    for k, f in enumerate(dist.cov.factors):
        z = _along_mode(f.chol, z, k - len(dims))
    return dist.mean + z


def mle_mean(samples) -> np.ndarray:
    """Maximum-likelihood mean: the elementwise average of the samples."""
    stacked = _stack_samples(samples)
    return stacked.mean(axis=0)


def _stack_samples(samples) -> np.ndarray:
    if isinstance(samples, np.ndarray):
        stacked = np.asarray(samples, dtype=float)
        if stacked.ndim < 2:
            raise ValueError("expected a batch of tensors")
    else:
        seq = list(samples)
        if not seq:
            raise ValueError("need at least one sample")
        try:
            stacked = np.stack([np.asarray(s, dtype=float) for s in seq])
        except ValueError:
            raise ValueError("samples do not share a common shape") from None
    if stacked.shape[0] == 0:
        raise ValueError("need at least one sample")
    return stacked


def _total_log_likelihood(centered: np.ndarray, factors) -> float:
    """Sum of log densities for pre-centered stacked samples."""
    n = centered.shape[0]
    d = math.prod(centered.shape[1:])
    z = _whiten(centered, factors)
    maha = float(np.sum(z * z))
    logdet = sum((d / f.dim) * f.logdet for f in factors)
    return -0.5 * (n * d * _LOG_2PI + n * logdet + maha)


class FlipFlopResult(NamedTuple):
    """Outcome of :func:`flip_flop_mle`.

    ``history`` holds the total log-likelihood at initialization and
    after each completed sweep, so consecutive differences expose the
    ascent property.  ``converged`` is False when ``max_iter`` sweeps
    ran without the stopping rule firing.
    """

    cov: KronCovariance
    iterations: int
    log_likelihood: float
    converged: bool
    history: tuple


def flip_flop_mle(
    samples,
    mean,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> FlipFlopResult:
    """Estimate the three covariance factors by cyclic maximization.

    Starting from identity factors, with the mean held fixed, each
    factor in turn is replaced by the exact maximizer of the likelihood
    given the other two:

        Sigma_k  <-  (1/(n * d/d_k)) * sum_i  Z_(k) Z_(k)^T

    where ``Z`` is the centered sample whitened along the other two
    modes (:func:`mode_gram`), so the update is symmetric PSD by
    construction.  Each such step cannot decrease the likelihood, hence
    the per-sweep log-likelihood history is non-decreasing up to
    rounding.

    Only the Kronecker product of the factors is identifiable; the
    returned factors carry an arbitrary scale split (pass the result to
    :func:`normalize_identifiable` for the canonical one).

    Parameters
    ----------
    samples : sequence of array_like or ndarray
        Order-3 tensors of a common shape (or one stacked array with a
        leading sample axis).
    mean : array_like
        Fixed mean tensor; typically :func:`mle_mean` of the samples.
    tol : float
        Stop when the relative log-likelihood change over a sweep,
        ``|new - old| / max(1, |old|)``, drops to ``tol`` or below.
    max_iter : int
        Maximum number of sweeps.

    Returns
    -------
    FlipFlopResult

    Raises
    ------
    EstimationError
        If an update is not positive definite (for example when every
        sample equals the mean), naming the offending mode.
    """
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
            gram = mode_gram(centered, factors, k)
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


def normalize_identifiable(cov: KronCovariance) -> tuple:
    """Rescale every factor to unit trace, returning the residual scale.

    The Kronecker product only identifies the factors up to scale
    splits.  This picks the canonical representative with
    ``trace(Sigma_k) == 1`` for all ``k`` and returns ``(normalized,
    scale)`` where ``scale`` is the product of the original traces, so

        scale * kron(normalized factors) == kron(original factors).

    Factors already at unit trace come back unchanged with scale 1.
    """
    traces = [float(np.trace(f.matrix)) for f in cov.factors]
    scale = float(np.prod(traces))
    normalized = KronCovariance(
        [SpdFactor(f.matrix / tr) for f, tr in zip(cov.factors, traces)]
    )
    return normalized, scale
