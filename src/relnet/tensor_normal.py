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
coloring by ``L_k``) is one product of a factor matrix with the
array's unfolding along that mode, made by the private kernel
``_along_mode`` of :mod:`relnet.tensor`, which also makes
:func:`relnet.tensor.mode_product`.  Whitening every mode is
``_whiten``.  A flip-flop step on one mode, the private ``_mode_step``,
takes tensors whitened by all current factors, forms the mode's Gram
matrix with its old whitening undone, replaces the mode's factor by a
caller-given rule of that Gram and re-whitens the mode in place, block
by block of samples.  It is the one place that forms a mode's Gram
matrix: :func:`flip_flop_mle` iterates it to convergence, holding the
samples, one working tensor and a block of scratch, and the trainer's
covariance refit makes one sweep of it per layer.

Each :class:`SpdFactor` forms its inverse Cholesky factor ``L_k^{-1}``
and its eigendecomposition once, on first use, so no per-mode step
solves a system; the trainer's proximal prior step works in the
factors' eigenbasis, the basis of EKFAC (George et al., 2018).  A
factor is immutable, so the trainer, which builds new factors only in
its covariance refit, forms each of them once per refit however many
batches use it.  Only numpy is needed.

Vectorization follows :mod:`relnet.tensor`: row-major flattening, under
which the factors appear in mode order in the Kronecker product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    "flip_flop_mle",
    "normalize_identifiable",
]

_LOG_2PI = float(np.log(2.0 * np.pi))

# Symmetry check tolerance, relative to the largest entry.
_SYMMETRY_TOL = 1e-10

# Entries per block of the in-place flip-flop step, which bound its
# scratch.  A block holds at least one whole tensor, so each is one
# large product, never a loop over single fibres.
_BLOCK = 1 << 15


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
    eigh : tuple of numpy.ndarray
        ``(sigma, Q)`` with ``matrix == Q diag(sigma) Q^T`` and ``Q``
        orthogonal, formed on first access and read-only.  The trainer
        makes its proximal prior step in the basis of these
        eigenvectors, so each factor pays for the ``O(dim^3)``
        decomposition once per covariance refit, not per step.
    """

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

    @classmethod
    def identity(cls, dim: int, scale: float = 1.0) -> "SpdFactor":
        """Scaled identity factor of the given dimension."""
        return cls(np.eye(int(dim)) * float(scale))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def chol_inv(self) -> np.ndarray:
        """``L^{-1}``, formed once and cached.

        The inverse of a lower-triangular matrix is lower triangular;
        the upper triangle is zeroed so that rounding in the general
        inverse leaves no entries there.
        """
        inv = np.tril(np.linalg.inv(self.chol))
        inv.setflags(write=False)
        return inv

    @cached_property
    def eigh(self) -> tuple:
        """``(sigma, Q)``, the eigendecomposition of ``matrix``, formed
        once and cached: eigenvalues ascending, eigenvectors in the
        columns of ``Q``."""
        sigma, q = np.linalg.eigh(self.matrix)
        sigma.setflags(write=False)
        q.setflags(write=False)
        return sigma, q

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdFactor(dim={self.dim})"


class KronCovariance:
    """Covariance ``Sigma_1 kron ... kron Sigma_K`` stored by its factors.

    The dense matrix is never formed: :meth:`logdet` sums the factors'
    log-determinants and :meth:`whiten` makes one product per mode with
    a factor's cached ``L_k^{-1}``.

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


def _whiten(centered: np.ndarray, factors) -> np.ndarray:
    """Multiply every mode (the trailing axes) of ``centered`` by its
    factor's cached ``L_k^{-1}``; under the model the result has
    identity covariance."""
    z = centered
    for k, f in enumerate(factors):
        z = _along_mode(f.chol_inv, z, k - len(factors))
    return z


def _mode_step(z: np.ndarray, factors: list, k: int, rule, what: str) -> np.ndarray:
    """One flip-flop step on mode ``k``, in place: re-whitens ``z`` and
    returns it.

    ``z`` is a C-contiguous array of tensors whitened by every factor of
    ``factors`` (one :class:`SpdFactor` per trailing axis), any leading
    axes indexing samples.  With ``G`` the Gram matrix of ``z``'s
    mode-``k`` unfolding (its columns running over samples too) and
    ``C_k`` the Cholesky factor of the old ``factors[k]``, undoing the
    old whitening gives

        gram = C_k G C_k^T
             = sum_i  X_i(k) (kron of the other factors)^{-1} X_i(k)^T,

    symmetric PSD by construction.  ``factors[k]`` is replaced by
    ``rule(gram, m)``, ``m = z.size / d_k`` being the unfolding's column
    count, and mode ``k`` of ``z`` is re-whitened by one product with the
    ``d_k x d_k`` matrix ``L_k'^{-1} C_k``.  So the step costs one mode
    product and one Gram over ``z`` plus ``O(d_k^3)`` work.  A rule whose
    value is not positive definite raises :class:`EstimationError`
    naming ``what``, and ``z`` is left as it was.

    Both passes run over blocks of the leading indices, each of about
    ``_BLOCK`` entries and at least one whole tensor, so the scratch is
    one block, never a copy of ``z``.  The last mode's Gram is one
    product over all of ``z``, whose unfolding along it is a view.  A
    tensor without leading axes is one block: one Gram product and one
    re-whitening product, as over the whole unfolding.
    """
    axis = k - len(factors)
    old, dk = factors[k], z.shape[axis]
    lead = z.reshape((-1,) + z.shape[-len(factors) :])
    # A power of two of leading indices per block: the rows of each
    # block's product then fill the same kernel tiles as in one product
    # over all of z, which keeps its bits on OpenBLAS.
    per = _BLOCK // (math.prod(lead.shape[1:]) or 1)
    step = 1 << max(per.bit_length() - 1, 0)
    blocks = [lead[i : i + step] for i in range(0, len(lead), step)]
    # The last mode's unfolding of z is a view: its Gram is one product.
    unfold = (
        np.moveaxis(b, axis, 0).reshape(dk, -1)
        for b in ([z] if axis == -1 else blocks)
    )
    gram = old.chol @ sum(r @ r.T for r in unfold) @ old.chol.T
    try:
        factors[k] = SpdFactor(rule(gram, z.size / dk))
    except ValueError:
        raise EstimationError(
            f"{what} covariance update is not positive definite"
        ) from None
    mat = factors[k].chol_inv @ old.chol
    for b in blocks:
        b[...] = _along_mode(mat, b, axis)
    return z


def mahalanobis(dist: TensorNormal, x) -> float:
    """Squared Mahalanobis distance of ``x`` under ``dist``.

    Computed as ``||z||^2`` where ``z`` whitens ``x - mean`` by one
    product with ``L_k^{-1}`` per mode; no Kronecker product is formed.
    """
    arr = np.asarray(x, dtype=float)
    if arr.shape != dist.dims:
        raise ValueError(f"point shape {arr.shape} does not match dims {dist.dims}")
    z = _whiten(arr - dist.mean, dist.cov.factors)
    return float(np.sum(z * z))


def log_pdf(dist: TensorNormal, x) -> float:
    """Log density of ``x`` under the tensor normal ``dist``."""
    return _total_log_likelihood(
        1, dist.total_dim, dist.cov.factors, mahalanobis(dist, x)
    )


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
    """``samples`` as one float array, its leading axis indexing samples."""
    stacked = np.asarray(samples, dtype=float)
    if stacked.ndim < 2:
        raise ValueError("expected a batch of tensors")
    if stacked.shape[0] == 0:
        raise ValueError("need at least one sample")
    return stacked


def _total_log_likelihood(n: int, d: int, factors, maha: float) -> float:
    """Sum of the log densities of ``n`` samples of ``d`` entries whose
    squared Mahalanobis distances under ``factors`` sum to ``maha``."""
    return -0.5 * (n * d * _LOG_2PI + n * KronCovariance(factors).logdet() + maha)


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
    modes, so the update is symmetric PSD by construction.  Each such
    step cannot decrease the likelihood, hence the per-sweep
    log-likelihood history is non-decreasing up to rounding.

    The sweep keeps one array, the centered samples whitened by all
    current factors, and updates it in place one mode at a time with
    ``_mode_step``, which undoes the old whitening of mode ``k`` in that
    array's mode-``k`` Gram and re-whitens the mode after the update,
    both by blocks of samples.  So the fit holds the caller's
    ``samples``, which it never writes, that one working array and a
    block of scratch.
    The sweep's log-likelihood needs no Mahalanobis product: after the
    mode-3 step ``Sigma_3`` is ``sym(G_3) / m_3``, so ``tr(Sigma_3^{-1}
    G_3) = m_3 * d_3 = n * d`` and the log-likelihood is ``-n/2 * (d
    log 2 pi + d + log det Sigma)``.  So a sweep costs three mode
    products and three Gram matrices over the ``n * d`` entries, plus
    ``O(d_k^3)`` work per mode; it makes no full whitening.

    Only the Kronecker product of the factors is identifiable; the
    returned factors carry an arbitrary scale split (pass the result to
    :func:`normalize_identifiable` for the canonical one).

    Parameters
    ----------
    samples : array_like
        One ``(n, d1, d2, d3)`` array, its leading axis indexing the
        order-3 samples.
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

    # z is the centred samples whitened by every current factor; the
    # factors start as identities, so z starts as the centred samples.
    factors = [SpdFactor.identity(dk) for dk in dims]
    z = stacked - mean_arr

    ll = _total_log_likelihood(n, d, factors, float(np.vdot(z, z)))
    history = [ll]
    for sweep in range(1, max_iter + 1):
        for k in range(3):
            # The rule is the maximizer gram / (n * d / d_k).
            _mode_step(z, factors, k, np.divide, f"mode {k + 1}")
        # ||z||^2 = tr(Sigma_3^{-1} G_3) with Sigma_3 = sym(G_3) / m_3,
        # and tr(sym(G)^{-1} G) = d_3 for any G: the antisymmetric part
        # has zero trace against a symmetric matrix.  So ||z||^2 is
        # m_3 * d_3 = n * d, an integer and exact as a double.
        new_ll = _total_log_likelihood(n, d, factors, n * d)
        history.append(new_ll)
        converged = abs(new_ll - ll) <= tol * max(1.0, abs(ll))
        ll = new_ll
        if converged:
            break

    return FlipFlopResult(
        cov=KronCovariance(factors),
        iterations=sweep,
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
