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
