"""Tensor algebra against brute-force index-loop and dense Kronecker oracles.

The unfolding, ``vec`` and Kronecker oracles of ``oracles.py`` are first
checked against index loops, then ``mode_product`` against them.
"""

import numpy as np
import pytest

from oracles import fold, kronecker, matricize, vectorize
from relnet.tensor import mode_product


def brute_matricize(t, mode):
    """Index-loop unfolding: rows are mode fibers, columns run over the
    remaining modes ascending with the later mode fastest."""
    d1, d2, d3 = t.shape
    if mode == 1:
        out = np.zeros((d1, d2 * d3))
        for i in range(d1):
            for j in range(d2):
                for k in range(d3):
                    out[i, j * d3 + k] = t[i, j, k]
    elif mode == 2:
        out = np.zeros((d2, d1 * d3))
        for i in range(d1):
            for j in range(d2):
                for k in range(d3):
                    out[j, i * d3 + k] = t[i, j, k]
    else:
        out = np.zeros((d3, d1 * d2))
        for i in range(d1):
            for j in range(d2):
                for k in range(d3):
                    out[k, i * d2 + j] = t[i, j, k]
    return out


class TestMatricize:
    def test_documented_2x2x2_example(self):
        """Mode-1 rows of the 0..7 tensor are the contiguous slabs."""
        t = np.arange(8.0).reshape(2, 2, 2)
        m = matricize(t, 1)
        np.testing.assert_array_equal(m[0], [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(m[1], [4.0, 5.0, 6.0, 7.0])

    def test_matches_index_loops_all_modes(self):
        rng = np.random.default_rng(11)
        for dims in [(2, 3, 4), (4, 1, 3), (1, 1, 5), (3, 3, 3)]:
            t = rng.standard_normal(dims)
            for mode in (1, 2, 3):
                np.testing.assert_array_equal(
                    matricize(t, mode), brute_matricize(t, mode)
                )

    def test_rows_are_fibers(self):
        rng = np.random.default_rng(12)
        t = rng.standard_normal((3, 4, 2))
        np.testing.assert_array_equal(matricize(t, 2)[1], t[:, 1, :].reshape(-1))


class TestFold:
    def test_roundtrip_exact(self):
        """fold(matricize(t, n), n, dims) recovers t exactly for every mode."""
        rng = np.random.default_rng(13)
        for dims in [(2, 3, 4), (5, 1, 2), (1, 4, 1)]:
            t = rng.standard_normal(dims)
            for mode in (1, 2, 3):
                np.testing.assert_array_equal(fold(matricize(t, mode), mode, dims), t)


class TestVectorize:
    def test_storage_order(self):
        """vec places t[i1,i2,i3] at i1*d2*d3 + i2*d3 + i3."""
        rng = np.random.default_rng(14)
        d1, d2, d3 = 3, 2, 4
        t = rng.standard_normal((d1, d2, d3))
        v = vectorize(t)
        for i in range(d1):
            for j in range(d2):
                for k in range(d3):
                    assert v[i * d2 * d3 + j * d3 + k] == t[i, j, k]

    def test_matches_mode1_rows(self):
        t = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(vectorize(t), matricize(t, 1).reshape(-1))


class TestModeProduct:
    def test_equals_fold_of_matrix_product(self):
        rng = np.random.default_rng(15)
        t = rng.standard_normal((3, 4, 2))
        m = rng.standard_normal((6, 4))
        expect = fold(m @ matricize(t, 2), 2, (3, 6, 2))
        np.testing.assert_array_equal(mode_product(t, m, 2), expect)

    def test_kron_vec_identity(self):
        """vec(t x1 A x2 B x3 C) equals (A kron B kron C) vec(t)."""
        rng = np.random.default_rng(16)
        t = rng.standard_normal((2, 3, 2))
        a = rng.standard_normal((4, 2))
        b = rng.standard_normal((3, 3))
        c = rng.standard_normal((2, 2))
        chained = mode_product(mode_product(mode_product(t, a, 1), b, 2), c, 3)
        dense = kronecker(a, kronecker(b, c)) @ vectorize(t)
        np.testing.assert_allclose(vectorize(chained), dense, rtol=1e-12, atol=1e-13)

    def test_identity_matrix_is_noop(self):
        rng = np.random.default_rng(17)
        t = rng.standard_normal((2, 5, 3))
        for mode, d in zip((1, 2, 3), t.shape):
            np.testing.assert_array_equal(mode_product(t, np.eye(d), mode), t)

    def test_dim_mismatch_raises(self):
        t = np.zeros((2, 3, 4))
        with pytest.raises(ValueError):
            mode_product(t, np.zeros((5, 2)), 2)

    def test_rejects_bad_mode_and_order(self):
        t = np.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            mode_product(t, np.eye(2), 0)
        with pytest.raises(ValueError):
            mode_product(t, np.eye(2), 4)
        with pytest.raises(ValueError):
            mode_product(np.zeros((2, 2)), np.eye(2), 1)


class TestKronecker:
    def test_entry_formula(self):
        """(a kron b)[i*rb+k, j*cb+l] == a[i,j] * b[k,l] by direct loop."""
        rng = np.random.default_rng(18)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        k = kronecker(a, b)
        for i in range(2):
            for j in range(3):
                for r in range(3):
                    for c in range(2):
                        assert k[i * 3 + r, j * 2 + c] == a[i, j] * b[r, c]
