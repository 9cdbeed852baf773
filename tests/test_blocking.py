import numpy as np
import pytest

import minplus as mp
from minplus import Matrix
from minplus.blocking import BlockGrid, candidate_sets

from conftest import valley_bd

ZERO8 = mp.BDMatrix(Matrix(np.zeros((8, 8), dtype=np.int64)), 1)


def test_grid_n_blocks():
    assert BlockGrid(16, 4).n_blocks == 4


def test_grid_rejects_nondivisor():
    with pytest.raises(ValueError):
        BlockGrid(16, 3)


def test_approx_one_block(pool):
    a, b = pool.pair(8, 2, 0)
    got = candidate_sets(a, b, 8).approx
    want = int(a.base.data[0, 0]) + int(b.base.data[0, 0])
    assert got.shape == (1, 1) and got.data[0, 0] == want


def test_approx_unit_blocks(pool):
    a, b = pool.pair(8, 2, 0)
    assert candidate_sets(a, b, 1).approx == pool.naive(8, 2, 0)


def test_approx_bounds(pool):
    # |C[i,j] - approx[block(i), block(j)]| <= 4*delta*l,
    # |C[i,j] - C[i',j']| <= 2*delta*l
    n, delta, l = 64, 2, 8
    for seed in range(5):
        a, b = pool.pair(n, delta, seed)
        c = pool.naive(n, delta, seed).data
        approx = candidate_sets(a, b, l).approx.data
        per_entry = np.repeat(np.repeat(approx, l, 0), l, 1)
        assert np.abs(c - per_entry).max() <= 4 * delta * l
        rep = np.repeat(np.repeat(c[::l, ::l], l, 0), l, 1)
        assert np.abs(c - rep).max() <= 2 * delta * l


def test_candidates_all_zero():
    cs = candidate_sets(ZERO8, ZERO8, 2)
    assert cs.mask.all()


def test_candidate_threshold_exact(pool):
    # admission is exactly: representative sum <= approx + 8*delta*l
    n, delta, l = 32, 2, 4
    a, b = pool.pair(n, delta, 1)
    cs = candidate_sets(a, b, l)
    ra = a.base.data[::l, ::l]
    rb = b.base.data[::l, ::l]
    nb = n // l
    for bi in range(nb):
        for bj in range(nb):
            sums = ra[bi, :] + rb[:, bj]
            want = sums <= cs.approx.data[bi, bj] + 8 * delta * l
            assert np.array_equal(cs.mask[bi, bj], want)


@pytest.mark.parametrize("budget", [1, 3 * 8 * 8, 1 << 30])
def test_candidate_chunks_match_dense(pool, monkeypatch, budget):
    # one block row per chunk, chunks of 3 rows with a short last one, and
    # a single chunk all give the dense result, with a C-contiguous mask
    n, delta, l = 32, 2, 4
    a, b = pool.pair(n, delta, 3)
    ra = a.base.data[::l, ::l]
    rb = b.base.data[::l, ::l]
    sums = ra[:, None, :] + rb.T[None, :, :]  # [bi, bj, bk]
    approx = sums.min(axis=2)
    monkeypatch.setattr("minplus.blocking._SUM_BUDGET", budget)
    cs = candidate_sets(a, b, l)
    assert cs.mask.flags.c_contiguous
    assert np.array_equal(cs.approx.data, approx)
    assert np.array_equal(cs.mask, sums <= approx[:, :, None] + 8 * delta * l)


@pytest.mark.parametrize("budget", [1, 3 * 8, 1 << 30])
def test_compact_columns_match_mask_rows(pool, monkeypatch, budget):
    # CSR of any pairs' candidate columns, decoded one row, three rows or
    # all rows at a time, equals the dense mask rows, in int16
    n, delta, l = 64, 2, 2
    a, b = pool.pair(n, delta, 3)
    cs = candidate_sets(a, b, l)
    pairs = np.random.default_rng(0).integers(0, n // l, size=(50, 2))
    monkeypatch.setattr("minplus.blocking._SUM_BUDGET", budget)
    got = cs.compact_columns(pairs)
    want = cs.columns(pairs)
    assert got.cols.dtype == np.int16
    assert np.array_equal(np.diff(got.starts), want.sum(axis=1))
    assert np.array_equal(got.cols, np.nonzero(want)[1])


def test_candidate_soundness_exhaustive(pool):
    # the tie-broken argmin witness block is always admitted
    n, delta, l = 64, 2, 8
    a, b = pool.pair(n, delta, 2)
    ad, bd = a.base.data, b.base.data
    cs = candidate_sets(a, b, l)
    for i in range(n):
        sums = ad[i, :][:, None] + bd  # (k, j)
        ks = sums.argmin(axis=0)  # smallest index on ties
        for j in range(n):
            assert cs.mask[i // l, j // l, ks[j] // l]


def test_two_candidate_closeness(pool):
    # representative sums of any two candidates differ by <= 16*delta*l
    n, delta, l = 64, 2, 8
    for seed in range(3):
        a, b = pool.pair(n, delta, seed)
        ra = a.base.data[::l, ::l]
        rb = b.base.data[::l, ::l]
        cs = candidate_sets(a, b, l)
        nb = n // l
        sums = ra[:, :, None] + rb[None, :, :]
        for bi in range(nb):
            for bj in range(nb):
                vals = sums[bi, :, bj][cs.mask[bi, bj]]
                assert vals.max() - vals.min() <= 16 * delta * l


def test_refine_all_zero():
    cs = candidate_sets(ZERO8, ZERO8, 2)
    child = candidate_sets(ZERO8, ZERO8, 1)
    assert child.grid.l == 1
    assert child.mask.all()
    assert cs.sizes.max() == 4 and child.sizes.max() == 8


@pytest.mark.parametrize("family", ["walk", "valley"])
def test_child_candidates_inside_parent(pool, family):
    # candidate sets nest across halving block lengths: every child candidate
    # lies inside its parent's candidate set, and so does the child argmin
    for n, delta, seed in ((32, 2, 3), (64, 1, 3), (64, 5, 3), (64, 2, 4)):
        a, b = pool.pair(n, delta, seed) if family == "walk" else valley_bd(n, delta, seed)
        l = n
        parent = candidate_sets(a, b, l)
        while l >= 2:
            h = l // 2
            child = candidate_sets(a, b, h)
            up = np.arange(n // h) // 2
            assert not (child.mask & ~parent.mask[np.ix_(up, up, up)]).any()
            sums = a.base.data[::h, ::h][:, :, None] + b.base.data[::h, ::h][None, :, :]
            k_min = sums.argmin(axis=1)  # child argmin column per (i', j')
            assert parent.mask[up[:, None], up[None, :], k_min // 2].all()
            parent, l = child, h


def test_refine_size_bound():
    # child candidate sets have at most twice the parent's size
    for seed in range(100):
        delta = 1 + seed % 3
        a = mp.generate_bd(16, delta, 3 * seed)
        b = mp.generate_bd(16, delta, 3 * seed + 1)
        parent = candidate_sets(a, b, 4)
        child = candidate_sets(a, b, 2)
        ps = np.repeat(np.repeat(parent.sizes, 2, 0), 2, 1)
        assert (child.sizes <= 2 * ps).all()
