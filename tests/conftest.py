import numpy as np
import pytest

import minplus as mp


class InstancePool:
    """Session cache of generated matrix pairs and their naive products."""

    def __init__(self):
        self._pairs = {}
        self._naive = {}

    def pair(self, n, delta, seed):
        key = (n, delta, seed)
        if key not in self._pairs:
            self._pairs[key] = (
                mp.generate_bd(n, delta, 2 * seed),
                mp.generate_bd(n, delta, 2 * seed + 1),
            )
        return self._pairs[key]

    def naive(self, n, delta, seed):
        key = (n, delta, seed)
        if key not in self._naive:
            a, b = self.pair(n, delta, seed)
            self._naive[key] = mp.minplus_naive(a.base, b.base)
        return self._naive[key]


@pytest.fixture(scope="session")
def pool():
    return InstancePool()


def random_matrix(rng, n_rows, n_cols, bound, inf_prob=0.0):
    """Plain random Matrix with optional INF entries (test input helper)."""
    data = rng.integers(-bound, bound + 1, size=(n_rows, n_cols))
    if inf_prob > 0:
        mask = rng.random((n_rows, n_cols)) < inf_prob
        data = np.where(mask, mp.INF, data)
    return mp.Matrix(data)


def valley_bd(n, delta, seed):
    """Valley pair: A[i,k] = (delta-1)*|k - c(i)| with the center c(i)
    moving at most one column per row inside a band of n/8 columns around
    n/2, and B the transpose of another such matrix. Candidate sets prune
    on it, so small block pairs and a recursive tail occur."""
    rng = np.random.default_rng(seed)
    band = max(1, n // 16)

    def side():
        c = np.empty(n, dtype=np.int64)
        c[0] = n // 2
        for i in range(1, n):
            c[i] = min(max(c[i - 1] + int(rng.integers(-1, 2)), n // 2 - band), n // 2 + band)
        return (delta - 1) * np.abs(np.arange(n)[None, :] - c[:, None])

    return mp.BDMatrix(mp.Matrix(side()), delta), mp.BDMatrix(mp.Matrix(side().T), delta)


def two_valley_bd(n, delta, seed):
    """Two-valley pair: each row of A is the minimum of two valleys,
    (delta-1)*|k - c(i)| and (delta-1)*|k - c(i) - n/2|, with the centre c(i)
    moving at most one column per row inside a band of n/8 columns around
    n/4, and B the transpose of another such matrix. A block pair's
    candidates then lie in two runs of block columns about n/2 apart, so
    the span from its first to its last candidate holds many columns that
    are not candidates."""
    rng = np.random.default_rng(seed)
    band = max(1, n // 16)

    def side():
        c = np.empty(n, dtype=np.int64)
        c[0] = n // 4
        for i in range(1, n):
            c[i] = min(max(c[i - 1] + int(rng.integers(-1, 2)), n // 4 - band), n // 4 + band)
        k = np.arange(n)[None, :]
        return (delta - 1) * np.minimum(np.abs(k - c[:, None]), np.abs(k - c[:, None] - n // 2))

    return mp.BDMatrix(mp.Matrix(side()), delta), mp.BDMatrix(mp.Matrix(side().T), delta)


def candidate_mask(a, b, l):
    """Test-side reference candidate sets at block length l: the dense
    mask[bi, bj, bk] of representative sums A[bi*l, bk*l] + B[bk*l, bj*l]
    within 8*delta*l of their minimum over bk, and that minimum."""
    ra, rb = a.base.data[::l, ::l], b.base.data[::l, ::l]
    sums = ra[:, None, :] + rb.T[None, :, :]  # [bi, bj, bk]
    if 8 * a.delta * l >= 1 << 62:  # approx + window could pass int64: Python ints
        sums = sums.astype(object)
    approx = sums.min(axis=2)
    return sums <= approx[:, :, None] + 8 * a.delta * l, approx


def check_candidate_sets(cs, a, b, on=None):
    """Assert that the candidate sets ``cs`` equal the reference mask on the
    block pairs flagged in ``on`` (every pair by default): the same minimum
    and count, and lo and hi the first and the last candidate column."""
    mask, approx = candidate_mask(a, b, cs.grid.l)
    nb = mask.shape[0]
    on = np.ones((nb, nb), dtype=bool) if on is None else on
    ks = np.arange(nb)
    assert np.array_equal(cs.approx.data[on], approx[on])
    assert np.array_equal(cs.sizes[on], mask.sum(axis=2)[on])
    assert np.array_equal(cs.lo[on], np.where(mask, ks, nb).min(axis=2)[on])
    assert np.array_equal(cs.hi[on], np.where(mask, ks, -1).max(axis=2)[on])
