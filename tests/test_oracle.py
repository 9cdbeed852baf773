import numpy as np
import pytest

import minplus as mp
from minplus import INF, Matrix
from minplus.oracle import PolyMatrix, encode_poly, extract_min, poly_matmul

from conftest import random_matrix


def minplus_brute(a, b):
    """Independent reference: explicit triple loop over python ints."""
    ra, k = a.shape
    cb = b.shape[1]
    out = np.full((ra, cb), INF, dtype=np.int64)
    for i in range(ra):
        for j in range(cb):
            best = INF
            for t in range(k):
                x, y = int(a[i, t]), int(b[t, j])
                if x != INF and y != INF and x + y < best:
                    best = x + y
            out[i, j] = best
    return out


def test_naive_single():
    assert mp.minplus_naive(Matrix([[0]]), Matrix([[0]])) == Matrix([[0]])


def test_naive_two_by_two():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[5, 6], [7, 8]])
    got = mp.minplus_naive(a, b)
    assert np.array_equal(got.data, minplus_brute(a.data, b.data))
    assert got == Matrix([[6, 7], [8, 9]])


def test_naive_inf_row():
    a = Matrix(np.array([[INF, INF], [0, 1]]))
    b = Matrix(np.array([[1, 2], [3, 4]]))
    got = mp.minplus_naive(a, b)
    assert np.all(got.data[0] == INF)
    assert np.all(got.data[1] != INF)


def test_naive_dimension_mismatch():
    with pytest.raises(ValueError):
        mp.minplus_naive(Matrix([[0, 0]]), Matrix([[0, 0]]))


def test_naive_matches_brute_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ra, k, cb = rng.integers(1, 9, size=3)
        a = random_matrix(rng, ra, k, 50, inf_prob=0.25)
        b = random_matrix(rng, k, cb, 50, inf_prob=0.25)
        got = mp.minplus_naive(a, b)
        assert np.array_equal(got.data, minplus_brute(a.data, b.data))


def test_transpose_duality():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_matrix(rng, 6, 5, 40, 0.2)
        b = random_matrix(rng, 5, 7, 40, 0.2)
        lhs = mp.minplus_naive(a, b).data.T
        rhs = mp.minplus_naive(Matrix(b.data.T), Matrix(a.data.T)).data
        assert np.array_equal(lhs, rhs)


def test_shift_equivariance():
    rng = np.random.default_rng(2)
    a = random_matrix(rng, 6, 6, 40, 0.2)
    b = random_matrix(rng, 6, 6, 40, 0.2)
    base = mp.minplus_naive(a, b).data
    shifted = mp.minplus_naive(Matrix(np.where(a.data == INF, INF, a.data + 17)), b).data
    assert np.array_equal(shifted, np.where(base == INF, INF, base + 17))


def test_bd_preservation(pool):
    # products of delta-bounded-difference inputs stay delta-bounded-difference
    for delta in (1, 2, 5):
        a, b = pool.pair(32, delta, 0)
        c = pool.naive(32, delta, 0)
        assert mp.validate_bd(c, delta)


# --- polynomial encoding -----------------------------------------------


def test_encode_examples():
    enc = encode_poly(Matrix([[3]]), 5)
    assert enc.degree_bound == 10
    assert enc.coeffs[0, 0, 8] == 1 and enc.coeffs.sum() == 1

    enc_inf = encode_poly(Matrix(np.array([[INF]])), 5)
    assert enc_inf.coeffs.sum() == 0

    enc_lo = encode_poly(Matrix([[-5]]), 5)
    assert enc_lo.coeffs[0, 0, 0] == 1


def test_encode_range_error():
    with pytest.raises(ValueError):
        encode_poly(Matrix([[6]]), 5)


def test_poly_matmul_monomials():
    a = PolyMatrix(np.zeros((1, 1, 4), dtype=np.int64))
    a.coeffs[0, 0, 2] = 1
    b = PolyMatrix(np.zeros((1, 1, 4), dtype=np.int64))
    b.coeffs[0, 0, 3] = 1
    c = poly_matmul(a, b)
    assert c.degree_bound == 6
    assert c.coeffs[0, 0, 5] == 1 and c.coeffs.sum() == 1


def test_poly_matmul_two_witnesses():
    # two inner terms land on the same degree: coefficient 2
    a = encode_poly(Matrix([[0, 0]]), 1)
    b = encode_poly(Matrix([[0], [0]]), 1)
    c = poly_matmul(a, b)
    assert c.coeffs[0, 0, 2] == 2
    assert c.coeffs.sum() == 2


def test_poly_matmul_annihilator():
    a = encode_poly(Matrix([[1, 2], [3, 4]]), 5)
    b = PolyMatrix(np.zeros((2, 2, 11), dtype=np.int64))
    c = poly_matmul(a, b)
    assert c.coeffs.sum() == 0


def test_extract_examples():
    c = PolyMatrix(np.zeros((1, 1, 8), dtype=np.int64))
    c.coeffs[0, 0, 4] = 1
    c.coeffs[0, 0, 7] = 3
    assert extract_min(c, 4) == Matrix([[0]])
    zero = PolyMatrix(np.zeros((1, 1, 8), dtype=np.int64))
    assert extract_min(zero, 4).data[0, 0] == INF


def test_extract_equals_naive_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        k = int(rng.integers(1, 8))
        a = random_matrix(rng, int(rng.integers(1, 8)), k, 12, 0.2)
        b = random_matrix(rng, k, int(rng.integers(1, 8)), 12, 0.2)
        got = extract_min(poly_matmul(encode_poly(a, 12), encode_poly(b, 12)), 24)
        assert got == mp.minplus_naive(a, b)


def test_small_entries_all_zero():
    z = Matrix(np.zeros((4, 4), dtype=np.int64))
    assert mp.minplus_small_entries(z, z, 0) == mp.minplus_naive(z, z)


def test_small_entries_random():
    rng = np.random.default_rng(4)
    a = random_matrix(rng, 16, 16, 10)
    b = random_matrix(rng, 16, 16, 10)
    assert mp.minplus_small_entries(a, b, 10) == mp.minplus_naive(a, b)


def test_small_entries_inf_column():
    rng = np.random.default_rng(5)
    a = random_matrix(rng, 6, 6, 10)
    bdat = random_matrix(rng, 6, 6, 10).data.copy()
    bdat[:, 2] = INF
    b = Matrix(bdat)
    got = mp.minplus_small_entries(a, b, 10)
    assert np.all(got.data[:, 2] == INF)
    assert got == mp.minplus_naive(a, b)


def test_small_entries_sweep():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(1, 33))
        m_bound = int(rng.integers(0, 65))
        a = random_matrix(rng, n, n, m_bound, 0.1)
        b = random_matrix(rng, n, n, m_bound, 0.1)
        assert mp.minplus_small_entries(a, b, m_bound) == mp.minplus_naive(a, b)


# --- degree-slice products ------------------------------------------------


def _poly_product(a, b):
    """Reference coefficients of a polynomial matrix product, in python ints."""
    ca, cb = a.coeffs.astype(object), b.coeffs.astype(object)
    out = np.zeros((a.n_rows, b.n_cols, a.degree_bound + b.degree_bound + 1), dtype=object)
    for d1 in range(a.degree_bound + 1):
        for d2 in range(b.degree_bound + 1):
            out[:, :, d1 + d2] += ca[:, :, d1] @ cb[:, :, d2]
    return out


def test_poly_matmul_exact_small():
    # a slice bound below 2**53: the float64 GEMM, exact
    rng = np.random.default_rng(7)
    a = PolyMatrix(rng.integers(0, 100, size=(13, 7, 3)))
    b = PolyMatrix(rng.integers(0, 100, size=(7, 11, 2)))
    assert np.array_equal(poly_matmul(a, b).coeffs, _poly_product(a, b).astype(np.int64))


def test_poly_matmul_large_coefficients_fall_back():
    # a slice bound of about 2**57, past what a double holds exactly (the
    # sums need 57 significant bits): the int64 matmul, still exact
    a = PolyMatrix(np.full((2, 2, 2), (1 << 31) + 1, dtype=np.int64))
    b = PolyMatrix(np.full((2, 2, 1), (1 << 25) + 1, dtype=np.int64))
    want = _poly_product(a, b)
    assert int(want.max()) > 1 << 53
    assert np.array_equal(poly_matmul(a, b).coeffs, want.astype(np.int64))


def test_poly_matmul_overflow_guard():
    # a slice bound of 2**65: refused, not wrapped
    a = PolyMatrix(np.full((1, 2, 1), 1 << 32, dtype=np.int64))
    b = PolyMatrix(np.full((2, 1, 1), 1 << 32, dtype=np.int64))
    with pytest.raises(OverflowError):
        poly_matmul(a, b)
