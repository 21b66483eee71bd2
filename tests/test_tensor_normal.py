"""Distribution machinery against dense Gaussian oracles and Monte Carlo."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from oracles import (
    dense_cov,
    kronecker,
    matricize,
    reference_flip_flop_mle,
    triangular_whiten,
    vectorize,
)
from relnet.tensor import _along_mode
from relnet.tensor_normal import (
    EstimationError,
    FlipFlopResult,
    KronCovariance,
    SpdFactor,
    TensorNormal,
    _mode_step,
    _whiten,
    flip_flop_mle,
    log_pdf,
    mahalanobis,
    mle_mean,
    normalize_identifiable,
    sample,
)


def rand_spd(rng, n, jitter=None):
    a = rng.standard_normal((n, n))
    return a @ a.T + (jitter if jitter is not None else n) * np.eye(n)


def rand_dist(rng, dims):
    factors = [SpdFactor(rand_spd(rng, d)) for d in dims]
    mean = rng.standard_normal(dims)
    return TensorNormal(mean, KronCovariance(factors))


def ill_conditioned_spd(rng, n, kind, cond=1e10):
    """SPD matrix of condition number about ``cond``.

    ``graded``: a well-conditioned correlation matrix between scales
    spread over ``sqrt(cond)``, so the ill-conditioning is in the scales
    (features of very different magnitudes).  ``rotated``: eigenvalues
    spread over ``cond`` in a random basis, so it is in the directions.
    """
    if kind == "graded":
        c = np.corrcoef(rng.standard_normal((n, 4 * n)))
        scales = np.logspace(0, -0.5 * np.log10(cond), n)
        return scales[:, None] * c * scales[None, :]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.logspace(0, -np.log10(cond), n)) @ q.T


def substitution_whiten(x, factors):
    """Reference whitening: forward substitution against each ``L_k``,
    carried in extended precision (``np.longdouble``)."""
    z = np.asarray(x, dtype=np.longdouble)
    for k, f in enumerate(factors):
        chol = f.chol.astype(np.longdouble)
        z = np.moveaxis(z, k, 0).copy()
        for i in range(chol.shape[0]):
            z[i] = (z[i] - np.tensordot(chol[i, :i], z[:i], axes=1)) / chol[i, i]
        z = np.moveaxis(z, 0, k)
    return z.astype(float)


class TestSpdFactor:
    def test_cholesky_and_logdet(self):
        rng = np.random.default_rng(0)
        m = rand_spd(rng, 5)
        f = SpdFactor(m)
        np.testing.assert_allclose(f.chol @ f.chol.T, m, rtol=1e-12, atol=1e-12)
        assert f.logdet == pytest.approx(np.linalg.slogdet(m)[1], rel=1e-12)

    def test_rejects_asymmetric_and_indefinite(self):
        with pytest.raises(ValueError):
            SpdFactor(np.array([[1.0, 0.5], [0.1, 1.0]]))
        with pytest.raises(ValueError):
            SpdFactor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_chol_inv_is_cached_triangular_inverse(self):
        """The cached ``L^-1``: formed once, read-only and exactly lower
        triangular."""
        rng = np.random.default_rng(3)
        f = SpdFactor(rand_spd(rng, 6))
        li = f.chol_inv
        assert f.chol_inv is li
        assert not li.flags.writeable
        np.testing.assert_array_equal(np.triu(li, 1), 0.0)
        np.testing.assert_allclose(li @ f.chol, np.eye(6), atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.integers(-6, 6),
        st.floats(1e-6, 10.0),
    )
    def test_eigh_reconstructs_the_factor_with_orthogonal_vectors(
        self, dim, seed, exponent, ridge
    ):
        """On random SPD factors, ``Q diag(sigma) Q^T`` equals the matrix
        and ``Q^T Q`` equals I, both to 1e-12; the eigenvalues are
        positive, and the pair is formed once and read-only."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim))
        f = SpdFactor((a @ a.T + ridge * np.eye(dim)) * 10.0**exponent)
        sigma, q = f.eigh
        assert f.eigh[0] is sigma and f.eigh[1] is q
        assert not sigma.flags.writeable and not q.flags.writeable
        assert np.all(sigma > 0)
        scale = np.abs(f.matrix).max()
        assert np.abs((q * sigma) @ q.T - f.matrix).max() <= 1e-12 * scale
        assert np.abs(q.T @ q - np.eye(dim)).max() <= 1e-12


class TestKronCovariance:
    def test_dims_and_logdet(self):
        rng = np.random.default_rng(2)
        cov = KronCovariance([rand_spd(rng, d) for d in (4, 3, 2)])
        assert cov.dims == (4, 3, 2)
        assert cov.total_dim == 24
        assert cov.logdet() == pytest.approx(
            np.linalg.slogdet(dense_cov(cov))[1], rel=1e-12
        )

    @pytest.mark.parametrize(
        "kind, seed",
        [
            # Seed 18 keeps the ids of the test's single-seed form.
            pytest.param(kind, seed, id=kind if seed == 18 else f"{kind}-{seed}")
            for kind in ("graded", "rotated")
            for seed in (*range(12), 18)
        ],
    )
    def test_whiten_on_ill_conditioned_factor(self, kind, seed):
        """Whitening by the cached ``L^-1`` against forward substitution,
        with a 32x32 mode factor of condition number 1e10.  Ill-conditioning
        in the scales costs no accuracy (rtol 1e-12 entrywise).  In the
        directions no float64 method reaches that; the error then stays
        within the normwise forward-error bound ``d * eps * cond(L)``.
        Over these 13 seeds a whitening by ``eigh``'s factor
        ``diag(sigma^-1/2) Q^T`` passes the rotated case but not the
        graded one (ROADMAP item 7)."""
        rng = np.random.default_rng(seed)
        factors = [
            SpdFactor(ill_conditioned_spd(rng, 32, kind)),
            SpdFactor(rand_spd(rng, 3)),
            SpdFactor(rand_spd(rng, 2)),
        ]
        assert 5e9 <= np.linalg.cond(factors[0].matrix) <= 2e10
        cov = KronCovariance(factors)
        x = sample(TensorNormal(np.zeros(cov.dims), cov), rng)
        got = cov.whiten(x)
        want = substitution_whiten(x, factors)
        if kind == "graded":
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        else:
            bound = 32 * np.finfo(float).eps * np.linalg.cond(factors[0].chol)
            assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)

    def test_mean_shape_checked(self):
        cov = KronCovariance([np.eye(2), np.eye(3), np.eye(2)])
        with pytest.raises(ValueError):
            TensorNormal(np.zeros((2, 2, 2)), cov)


class TestLogPdf:
    def test_scalar_standard_normal(self):
        """dims (1,1,1) with unit factors at the mean gives -0.5*ln(2*pi)."""
        dist = TensorNormal(
            np.zeros((1, 1, 1)),
            KronCovariance([np.eye(1), np.eye(1), np.eye(1)]),
        )
        assert log_pdf(dist, np.zeros((1, 1, 1))) == pytest.approx(
            -0.5 * np.log(2 * np.pi), rel=1e-15
        )

    def test_identity_factors_at_mean(self):
        """Identity covariance at the mean: log pdf is -(d/2) ln(2*pi)."""
        rng = np.random.default_rng(3)
        mean = rng.standard_normal((2, 3, 2))
        dist = TensorNormal(
            mean, KronCovariance([np.eye(2), np.eye(3), np.eye(2)])
        )
        assert log_pdf(dist, mean) == pytest.approx(-6 * np.log(2 * np.pi), rel=1e-14)

    def test_matches_dense_multivariate_normal(self):
        """Mode-solve log pdf equals scipy's dense Gaussian on vec(x)."""
        rng = np.random.default_rng(4)
        for dims in [(2, 2, 2), (4, 3, 2), (3, 1, 2)]:
            dist = rand_dist(rng, dims)
            x = sample(dist, rng)
            want = multivariate_normal(
                mean=vectorize(dist.mean), cov=dense_cov(dist.cov)
            ).logpdf(vectorize(x))
            assert log_pdf(dist, x) == pytest.approx(want, rel=1e-10)

    def test_mahalanobis_matches_dense(self):
        rng = np.random.default_rng(5)
        dist = rand_dist(rng, (3, 2, 2))
        x = sample(dist, rng)
        delta = vectorize(x) - vectorize(dist.mean)
        want = delta @ np.linalg.solve(dense_cov(dist.cov), delta)
        assert mahalanobis(dist, x) == pytest.approx(want, rel=1e-10)

    def test_order_k_signature(self):
        """Density accepts any number of factors matching the array order."""
        rng = np.random.default_rng(6)
        cov = KronCovariance([rand_spd(rng, 2), rand_spd(rng, 3)])
        dist = TensorNormal(rng.standard_normal((2, 3)), cov)
        x = rng.standard_normal((2, 3))
        want = multivariate_normal(
            mean=dist.mean.ravel(), cov=dense_cov(dist.cov)
        ).logpdf(x.ravel())
        assert log_pdf(dist, x) == pytest.approx(want, rel=1e-10)

    def test_shape_mismatch_raises(self):
        dist = rand_dist(np.random.default_rng(7), (2, 2, 2))
        with pytest.raises(ValueError):
            log_pdf(dist, np.zeros((2, 2, 3)))


class TestSample:
    def test_moments_standard(self):
        """1e5 identity-covariance draws: mean within 0.02, variance within 0.05."""
        rng = np.random.default_rng(8)
        dist = TensorNormal(
            np.zeros((2, 2, 2)),
            KronCovariance([np.eye(2), np.eye(2), np.eye(2)]),
        )
        draws = sample(dist, rng, size=100_000)
        assert draws.shape == (100_000, 2, 2, 2)
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02
        assert np.max(np.abs(draws.var(axis=0) - 1.0)) < 0.05

    def test_covariance_recovered(self):
        """Sample covariance of vec(draws) approaches the Kronecker product."""
        rng = np.random.default_rng(9)
        factors = [
            SpdFactor(np.array([[1.0, 0.3], [0.3, 0.8]])),
            SpdFactor(np.array([[1.2, -0.2], [-0.2, 0.7]])),
            SpdFactor(np.array([[0.9, 0.1], [0.1, 1.1]])),
        ]
        dist = TensorNormal(np.zeros((2, 2, 2)), KronCovariance(factors))
        draws = sample(dist, rng, size=100_000).reshape(100_000, -1)
        emp = draws.T @ draws / draws.shape[0]
        assert np.max(np.abs(emp - dense_cov(dist.cov))) < 0.1

    def test_deterministic_given_seed(self):
        dist = rand_dist(np.random.default_rng(10), (2, 3, 2))
        a = sample(dist, np.random.default_rng(42))
        b = sample(dist, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestMleMean:
    def test_elementwise_average(self):
        rng = np.random.default_rng(11)
        xs = [rng.standard_normal((2, 3, 2)) for _ in range(7)]
        np.testing.assert_allclose(mle_mean(xs), np.mean(xs, axis=0), rtol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mle_mean([])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            mle_mean([np.zeros((2, 2, 2)), np.zeros((2, 2, 3))])


class TestFlipFlop:
    def test_monotone_loglikelihood(self):
        """Every sweep's total log-likelihood is non-decreasing."""
        rng = np.random.default_rng(12)
        dist = rand_dist(rng, (4, 3, 2))
        draws = sample(dist, rng, size=80)
        res = flip_flop_mle(draws, mle_mean(draws))
        assert isinstance(res, FlipFlopResult)
        diffs = np.diff(res.history)
        assert np.all(diffs >= -1e-9)
        assert res.converged

    def test_single_nontrivial_mode_is_sample_covariance(self):
        """dims (d,1,1): one sweep gives the mode-1 sample covariance and
        unit trailing factors."""
        rng = np.random.default_rng(13)
        d = 4
        xs = rng.standard_normal((60, d, 1, 1))
        mean = mle_mean(xs)
        res = flip_flop_mle(xs, mean, max_iter=1)
        centered = (xs - mean).reshape(60, d)
        want = centered.T @ centered / 60
        np.testing.assert_allclose(res.cov.factors[0].matrix, want, rtol=1e-12)
        np.testing.assert_allclose(res.cov.factors[1].matrix, [[1.0]], rtol=1e-12)
        np.testing.assert_allclose(res.cov.factors[2].matrix, [[1.0]], rtol=1e-12)

    def test_degenerate_samples_raise(self):
        """All samples equal to the mean: the first update is singular."""
        xs = np.zeros((5, 3, 2, 2))
        with pytest.raises(EstimationError, match="mode 1"):
            flip_flop_mle(xs, np.zeros((3, 2, 2)))

    def test_kron_product_recovered(self):
        """The estimated Kronecker product approaches the truth with n."""
        rng = np.random.default_rng(14)
        dist = rand_dist(rng, (3, 2, 2))
        truth = dense_cov(dist.cov)
        draws = sample(dist, rng, size=4000)
        res = flip_flop_mle(draws, mle_mean(draws))
        est = dense_cov(res.cov)
        rel = np.linalg.norm(est - truth) / np.linalg.norm(truth)
        assert rel < 0.15

    def test_gauss_seidel_uses_fresh_factors(self):
        """A single sweep's mode-2 update must see the new mode-1 factor:
        replicate sweep one densely and compare."""
        rng = np.random.default_rng(15)
        dims = (3, 2, 2)
        dist = rand_dist(rng, dims)
        draws = sample(dist, rng, size=50)
        mean = mle_mean(draws)
        res = flip_flop_mle(draws, mean, max_iter=1)

        centered = draws - mean
        n = 50
        d1, d2, d3 = dims
        factors = [np.eye(d1), np.eye(d2), np.eye(d3)]
        for k, dk in enumerate(dims):
            others = [factors[j] for j in range(3) if j != k]
            kinv = np.linalg.inv(np.kron(others[0], others[1]))
            gram = np.zeros((dk, dk))
            for i in range(n):
                mat = brute_unfold(centered[i], k + 1)
                gram += mat @ kinv @ mat.T
            factors[k] = gram / (n * d1 * d2 * d3 / dk)
        for k in range(3):
            np.testing.assert_allclose(
                res.cov.factors[k].matrix, factors[k], rtol=1e-10
            )


def conditioned_draws(seed, dims, cond, n):
    """``n`` draws from a tensor normal whose factors each have
    eigenvalues spread evenly in log scale over ``cond``, in a random
    basis (the benchmark's ``tnd-fit`` generator)."""
    rng = np.random.default_rng(seed)
    factors = [ill_conditioned_spd(rng, d, "rotated", cond) for d in dims]
    dist = TensorNormal(rng.standard_normal(dims), KronCovariance(factors))
    return sample(dist, rng, size=n)


def assert_same_fit(got, want):
    """Same sweeps and stopping decision; normalized factors, the
    log-likelihood and every history entry equal to 1e-10 relative."""
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    np.testing.assert_allclose(got.history, want.history, rtol=1e-10, atol=1e-10)
    assert got.log_likelihood == got.history[-1]
    for a, b in zip(
        normalize_identifiable(got.cov)[0].factors,
        normalize_identifiable(want.cov)[0].factors,
    ):
        np.testing.assert_allclose(
            a.matrix, b.matrix, rtol=1e-10, atol=1e-10 * np.abs(b.matrix).max()
        )


class TestFlipFlopOracle:
    """The sweep that keeps one whitened array against the oracle that
    whitens the centred samples from scratch for every Gram and every
    log-likelihood."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(*[st.integers(1, 6)] * 3),
        st.floats(0.0, 3.0),
        st.integers(0, 20),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_sweeps(self, dims, log_cond, extra, seed):
        """Factor condition up to 1e3, and ``n`` at least two above the
        rank threshold ``(n - 1) * d / d_k >= d_k``.  Closer to the
        threshold or at higher condition the fit itself amplifies
        rounding: there the oracle moves as far under a one-ulp change
        of its input as the two implementations differ."""
        d = math.prod(dims)
        n = max(-(-dk * dk // d) + 1 for dk in dims) + 2 + extra
        draws = conditioned_draws(seed, dims, 10.0**log_cond, n)
        mean = mle_mean(draws)
        assert_same_fit(
            flip_flop_mle(draws, mean), reference_flip_flop_mle(draws, mean)
        )

    @pytest.mark.parametrize("block", [1, 1 << 6, 1 << 9])
    def test_blocks_match_reference_and_keep_the_samples(self, block, monkeypatch):
        """With blocks down to one sample each, the in-place sweep matches
        the oracle and never writes to the caller's samples."""
        draws = conditioned_draws(5, (4, 3, 5), 10.0, 30)
        before = draws.copy()
        monkeypatch.setattr("relnet.tensor_normal._BLOCK", block)
        mean = mle_mean(draws)
        assert_same_fit(
            flip_flop_mle(draws, mean), reference_flip_flop_mle(draws, mean)
        )
        assert draws.tobytes() == before.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(*[st.integers(1, 6)] * 3),
        st.floats(0.0, 3.0),
        st.integers(0, 20),
        st.integers(0, 2**32 - 1),
    )
    def test_fitted_mahalanobis_is_n_times_d(self, dims, log_cond, extra, seed):
        """After 1, 2 and up to 200 sweeps, the centred samples' squared
        Mahalanobis distance under the returned factors, by triangular
        solves, is ``n * d`` to 1e-10 relative: the closed form each
        sweep's log-likelihood takes, which holds because the last step
        sets ``Sigma_3`` to the mode-3 maximizer."""
        d = math.prod(dims)
        n = max(-(-dk * dk // d) + 1 for dk in dims) + 2 + extra
        draws = conditioned_draws(seed, dims, 10.0**log_cond, n)
        mean = mle_mean(draws)
        for max_iter in (1, 2, 200):
            fit = flip_flop_mle(draws, mean, max_iter=max_iter)
            z = triangular_whiten(draws - mean, fit.cov.factors)
            assert float(np.sum(z * z)) == pytest.approx(n * d, rel=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_at_condition_1e6(self, seed):
        draws = conditioned_draws([seed, 16], (6, 5, 4), 1e6, 40)
        mean = mle_mean(draws)
        assert_same_fit(
            flip_flop_mle(draws, mean), reference_flip_flop_mle(draws, mean)
        )

    @pytest.mark.parametrize("dims", [(3, 2, 2), (1, 4, 3), (2, 1, 1)])
    def test_all_equal_samples_raise_as_the_reference(self, dims):
        draws = np.full((6, *dims), 0.25)
        with pytest.raises(EstimationError) as want:
            reference_flip_flop_mle(draws, mle_mean(draws))
        with pytest.raises(EstimationError, match=f"^{want.value}$"):
            flip_flop_mle(draws, mle_mean(draws))


def moveaxis_along_mode(mat, arr, axis):
    """Reference per-mode product: move the axis to the front, multiply
    the ``(d, rest)`` unfolding, move it back."""
    moved = np.moveaxis(arr, axis, 0)
    out = mat @ moved.reshape(moved.shape[0], -1)
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


class TestAlongMode:
    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize(
        "dims", [(5,), (4, 3), (4, 3, 2), (3, 2, 4, 2), (1, 4, 1), (4, 1, 3)]
    )
    def test_matches_moveaxis_oracle(self, lead, dims):
        """Every axis, negative ones too, of orders 1-4 with and without a
        leading sample axis; size-1 dims put the axis first or last of
        the ``(before, d, after)`` view."""
        rng = np.random.default_rng(len(dims) + 10 * len(lead))
        arr = rng.standard_normal(lead + dims)
        for axis in range(-arr.ndim, arr.ndim):
            mat = rng.standard_normal((arr.shape[axis],) * 2)
            got = _along_mode(mat, arr, axis)
            assert got.shape == arr.shape
            assert got.flags.c_contiguous
            np.testing.assert_allclose(
                got, moveaxis_along_mode(mat, arr, axis), rtol=1e-13
            )

    def test_non_contiguous_view(self):
        rng = np.random.default_rng(18)
        arr = rng.standard_normal((5, 4, 6)).transpose(2, 0, 1)[:, ::2]
        assert not arr.flags.c_contiguous
        for axis in range(-arr.ndim, arr.ndim):
            mat = rng.standard_normal((arr.shape[axis],) * 2)
            got = _along_mode(mat, arr, axis)
            assert got.flags.c_contiguous
            np.testing.assert_allclose(
                got, moveaxis_along_mode(mat, arr, axis), rtol=1e-13
            )


def dense_mode_gram(xs, factors, k):
    """``sum_i X_i(k) (kron of the other factors)^{-1} X_i(k)^T`` with the
    Kronecker product materialized and inverted."""
    a, b = [factors[j].matrix for j in range(3) if j != k]
    kinv = np.linalg.inv(kronecker(a, b))
    return sum(matricize(x, k + 1) @ kinv @ matricize(x, k + 1).T for x in xs)


def ridge_rule(gram, m):
    """A step rule that is positive definite for any Gram."""
    return gram / m + np.eye(len(gram))


def mode_step_with_gram(z, factors, k, what):
    """``_mode_step`` with :func:`ridge_rule`; returns ``(z', gram)``,
    ``gram`` being the Gram matrix the rule was given."""
    grams = []

    def rule(gram, m):
        grams.append(gram)
        return ridge_rule(gram, m)

    return _mode_step(z, factors, k, rule, what), grams[0]


class TestModeStep:
    """The flip-flop mode step that both the estimator and the trainer's
    refit make, against dense Kronecker arithmetic."""

    def test_matches_dense_oracle(self):
        """Undoing the old whitening of mode ``k`` in the Gram of the
        fully whitened batch equals the dense inverse Kronecker product
        of the other factors, summed over the batch."""
        rng = np.random.default_rng(16)
        xs = rng.standard_normal((3, 4, 3, 2))
        factors = [SpdFactor(rand_spd(rng, d)) for d in (4, 3, 2)]
        z = _whiten(xs, factors)
        for k in range(3):
            _, gram = mode_step_with_gram(z.copy(), list(factors), k, "mode")
            np.testing.assert_allclose(
                gram, dense_mode_gram(xs, factors, k), rtol=1e-10
            )

    def test_single_tensor_equals_batch_of_one(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((4, 3, 2))
        factors = [SpdFactor(rand_spd(rng, d)) for d in (4, 3, 2)]
        for k in range(3):
            single, batch = list(factors), list(factors)
            z, gram = mode_step_with_gram(_whiten(x, factors), single, k, "m")
            zb, gram_b = mode_step_with_gram(_whiten(x[None], factors), batch, k, "m")
            np.testing.assert_array_equal(gram, gram_b)
            np.testing.assert_array_equal(single[k].matrix, batch[k].matrix)
            np.testing.assert_array_equal(z, zb[0])

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(*[st.integers(1, 5)] * 3),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_step_matches_dense_kronecker(self, dims, n, seed):
        """For every mode: the Gram, the factor the rule makes of it and
        the re-whitened samples, against the dense Gram and whitening
        by triangular solves; the other factors stay as they were."""
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((n, *dims))
        factors = [SpdFactor(rand_spd(rng, d)) for d in dims]
        z = _whiten(xs, factors)
        for k, dk in enumerate(dims):
            new = list(factors)
            z_new, gram = mode_step_with_gram(z.copy(), new, k, f"mode {k + 1}")
            want = dense_mode_gram(xs, factors, k)
            np.testing.assert_allclose(
                gram, want, rtol=1e-10, atol=1e-10 * np.abs(want).max()
            )
            np.testing.assert_allclose(
                new[k].matrix, ridge_rule(want, n * math.prod(dims) / dk),
                rtol=1e-10,
            )
            assert all(new[j] is factors[j] for j in range(3) if j != k)
            want_z = triangular_whiten(xs, new)
            np.testing.assert_allclose(
                z_new, want_z, rtol=1e-10, atol=1e-10 * np.abs(want_z).max()
            )

    def test_step_works_in_place(self):
        """The step re-whitens the array it is given and returns it."""
        rng = np.random.default_rng(18)
        factors = [SpdFactor(rand_spd(rng, d)) for d in (4, 3, 2)]
        for k in range(3):
            z = _whiten(rng.standard_normal((5, 4, 3, 2)), factors)
            assert mode_step_with_gram(z, list(factors), k, "m")[0] is z

    @pytest.mark.parametrize(
        "shape, modes",
        [((20, 8, 40), 3), ((256, 64, 4), 3), ((16384, 4), 1), ((320, 4), 1),
         ((16384, 40), 1), ((160, 40), 1)],
    )
    def test_trainer_tensors_step_as_over_the_whole_unfolding(self, shape, modes):
        """For a tensor without leading axes and for an ``(m, T)`` fibre
        matrix with one factor, the Gram and the re-whitened tensor are
        the products over the whole unfolding bit for bit, so the
        trainer's refit is unchanged by the blocks."""
        rng = np.random.default_rng(19)
        factors = [SpdFactor(rand_spd(rng, d)) for d in shape[-modes:]]
        z = _whiten(rng.standard_normal(shape), factors)
        for k in range(modes):
            axis = k - modes
            rows = np.moveaxis(z, axis, 0).reshape(z.shape[axis], -1)
            old = factors[k].chol
            want_gram = old @ (rows @ rows.T) @ old.T
            new = list(factors)
            got, gram = mode_step_with_gram(z.copy(), new, k, "m")
            want = _along_mode(new[k].chol_inv @ old, z, axis)
            assert gram.tobytes() == want_gram.tobytes()
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(
        st.tuples(*[st.integers(1, 5)] * 3),
        st.integers(1, 9),
        st.integers(0, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_blocks_match_the_whole_unfolding(self, dims, n, log_block, seed):
        """With blocks of any size, down to one tensor each, the step
        agrees with the products over the whole unfolding."""
        rng = np.random.default_rng(seed)
        factors = [SpdFactor(rand_spd(rng, d)) for d in dims]
        z = _whiten(rng.standard_normal((n, *dims)), factors)
        for k in range(3):
            axis = k - 3
            rows = np.moveaxis(z, axis, 0).reshape(dims[k], -1)
            want_gram = factors[k].chol @ (rows @ rows.T) @ factors[k].chol.T
            new = list(factors)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("relnet.tensor_normal._BLOCK", 1 << log_block)
                got, gram = mode_step_with_gram(z.copy(), new, k, "m")
            want = _along_mode(new[k].chol_inv @ factors[k].chol, z, axis)
            for a, b in ((gram, want_gram), (got, want)):
                np.testing.assert_allclose(
                    a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max()
                )

    def test_failed_rule_names_the_mode(self):
        z = np.zeros((2, 3, 2, 2))
        factors = [SpdFactor.identity(d) for d in (3, 2, 2)]
        with pytest.raises(
            EstimationError,
            match="^layer 'x' output mode covariance update is not positive definite$",
        ):
            _mode_step(z, factors, 1, np.divide, "layer 'x' output mode")


def brute_unfold(t, mode):
    d1, d2, d3 = t.shape
    if mode == 1:
        return t.reshape(d1, d2 * d3)
    if mode == 2:
        return t.transpose(1, 0, 2).reshape(d2, d1 * d3)
    return t.transpose(2, 0, 1).reshape(d3, d1 * d2)


class TestNormalizeIdentifiable:
    def test_documented_example(self):
        """Factors (2I, 3I, I) in R^2: unit-trace factors I/2 and scale 48."""
        cov = KronCovariance([2 * np.eye(2), 3 * np.eye(2), np.eye(2)])
        norm, scale = normalize_identifiable(cov)
        assert scale == pytest.approx(48.0, rel=1e-15)
        for f in norm.factors:
            np.testing.assert_allclose(f.matrix, np.eye(2) / 2, rtol=1e-15)
        np.testing.assert_allclose(
            scale * dense_cov(norm), dense_cov(cov), rtol=1e-12
        )

    def test_unit_trace_fixed_point(self):
        rng = np.random.default_rng(16)
        mats = []
        for d in (3, 2, 2):
            m = rand_spd(rng, d)
            mats.append(m / np.trace(m))
        cov = KronCovariance(mats)
        norm, scale = normalize_identifiable(cov)
        assert scale == pytest.approx(1.0, rel=1e-12)
        for f, m in zip(norm.factors, mats):
            np.testing.assert_allclose(f.matrix, m, rtol=1e-12)

    def test_product_invariant(self):
        rng = np.random.default_rng(17)
        cov = KronCovariance([rand_spd(rng, d) for d in (2, 3, 2)])
        norm, scale = normalize_identifiable(cov)
        np.testing.assert_allclose(
            scale * dense_cov(norm), dense_cov(cov), rtol=1e-10
        )
        for f in norm.factors:
            assert np.trace(f.matrix) == pytest.approx(1.0, rel=1e-12)
