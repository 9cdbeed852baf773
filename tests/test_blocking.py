import tracemalloc

import numpy as np
import pytest

import minplus as mp
from minplus import Matrix
from minplus.blocking import BlockGrid, candidate_sets, child_sets, kernel_operands

from conftest import candidate_mask, check_candidate_sets, two_valley_bd, valley_bd

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
    assert (cs.sizes == 4).all() and (cs.lo == 0).all() and (cs.hi == 3).all()
    check_candidate_sets(cs, ZERO8, ZERO8)


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
            assert cs.approx.data[bi, bj] == sums.min()
            want = np.flatnonzero(sums <= sums.min() + 8 * delta * l)
            assert (cs.sizes[bi, bj], cs.lo[bi, bj], cs.hi[bi, bj]) == (len(want), want[0], want[-1])


@pytest.mark.parametrize("budget", [1, 3 * 8 * 8, 1 << 30])
def test_candidate_chunks_match_dense(pool, monkeypatch, budget):
    # the sets equal the dense result on a walk and on a valley (whose spans
    # are narrow and differ from pair to pair); on two valleys the sets
    # leave gaps, so a span is more than its set, and the first candidate
    # among a set of columns is found by the scan's own test, in chunks of
    # one pair, of a few pairs with a short last one, or all at once
    n, delta, l = 32, 2, 4
    monkeypatch.setattr("minplus.blocking._SUM_BUDGET", budget)
    for a, b in (pool.pair(n, delta, 3), valley_bd(n, delta, 5)):
        check_candidate_sets(candidate_sets(a, b, l), a, b)
    a, b = two_valley_bd(128, 5, 1)
    cs = candidate_sets(a, b, 2)
    assert (cs.hi - cs.lo + 1 > cs.sizes).any()
    check_candidate_sets(cs, a, b)
    mask = candidate_mask(a, b, 2)[0]
    nb = mask.shape[0]
    pairs = np.argwhere(np.ones((nb, nb), dtype=bool))
    cols = np.arange(1, nb, 3)
    sub = mask[pairs[:, 0], pairs[:, 1]][:, cols]
    want = np.where(sub.any(axis=1), cols[sub.argmax(axis=1)], nb)
    assert np.array_equal(cs.first_candidate(pairs, cols), want)


def _cap_pair():
    """The operand-cap pair of ``test_kernel_operands_beyond_int64`` made
    square: entries -2**61 and 2**61, past the operand cap, so one block
    pair's representative sums run from -2**62 to 2**62, and a delta above
    2**62."""
    x = np.array([[-(1 << 61), 1 << 61], [1 << 61, -(1 << 61)]])
    return mp.BDMatrix(Matrix(x), (1 << 62) + 1), mp.BDMatrix(Matrix(x.T), (1 << 62) + 1)


@pytest.mark.parametrize(
    "case, dtype",
    [("walk", np.int16), ("valley", np.int16), ("wide-walk", np.int32), ("huge-delta", np.int64), ("cap", np.int64)],
)
def test_candidate_sets_in_every_scan_type(monkeypatch, case, dtype):
    # the scans run on the kernel operands, in their type, at every block
    # length: the CI's delta = 3000 pair (seeds 3 and 4) in int32, a walk at
    # delta = 2**30 in int64. The top scan and the child scan, with every
    # pair of the level above as a parent, run in that type and give the
    # reference sets at every block length. The operand-cap pair's shifted
    # sums span 2**63, past even int64: its entries lie beyond the operand
    # cap, and the top scan refuses it with the engines' ValueError
    if case == "walk":
        a, b = mp.generate_bd(64, 2, 1), mp.generate_bd(64, 2, 2)
    elif case == "valley":
        a, b = valley_bd(64, 5, 3)
    elif case == "wide-walk":
        a, b = mp.generate_bd(64, 3000, 3), mp.generate_bd(64, 3000, 4)
    elif case == "huge-delta":
        a, b = mp.generate_bd(16, 1 << 30, 5), mp.generate_bd(16, 1 << 30, 6)
    else:
        a, b = _cap_pair()
        with pytest.raises(ValueError, match="a: product operands"):
            candidate_sets(a, b, a.n)
        return
    assert kernel_operands(a.base, b.base).a.dtype == dtype
    types = []
    real = mp.native.scan

    def recording(x, *args):
        types.append(x.dtype)
        return real(x, *args)

    monkeypatch.setattr(mp.native, "scan", recording)
    l, above = a.n, None
    while l >= 1:
        types.clear()
        cs = candidate_sets(a, b, l)
        check_candidate_sets(cs, a, b)
        if above is not None:
            nb = a.n // (2 * l)
            parents = np.argwhere(np.ones((nb, nb), dtype=bool))
            check_candidate_sets(child_sets(a, b, l, parents, above), a, b)
        assert types == [dtype] * (1 + (above is not None))
        above = cs
        l //= 2


@pytest.mark.parametrize("n, delta, l", [(8, 2048, 4), (8, 1 << 26, 4), (16, 1024, 8), (32, 1024, 8)])
def test_candidate_threshold_past_the_type(n, delta, l):
    # approx + 8*delta*l passes the max of the kernel operands' type, the
    # type the scan runs in: the walks' shifted sums fit int16 (delta 1024
    # and 2048) or int32 (delta 2**26), and the window is 2**16, 2**31 or
    # 2**16 (at n = 32, where a bound of 4*(delta - 1)*(n - l) on the
    # representative sums would have needed int32); the threshold is
    # clamped to the type's max, so it does not wrap, and the sets are the
    # reference's
    a, b = mp.generate_bd(n, delta, 7), mp.generate_bd(n, delta, 8)
    kern = kernel_operands(a.base, b.base)
    largest = int(np.iinfo(kern.a.dtype).max)
    assert int(kern.a.max()) + int(kern.b.max()) <= largest < 8 * delta * l
    cs = candidate_sets(a, b, l)
    assert cs.kern.a.dtype == kern.a.dtype
    check_candidate_sets(cs, a, b)


@pytest.mark.parametrize("nb", [1, 2, 4, 8, 16, 32, 64, 128])
def test_candidate_sets_every_bit_set_width(nb):
    # every width of the block grid from one block column to 128, so from
    # less than one vector lane of the compiled scan to several vectors; on
    # a walk every column of a pair tends to be a candidate, on a valley few
    # are, and on two valleys the candidates leave gaps
    n = 128
    for a, b in ((mp.generate_bd(n, 2, nb), mp.generate_bd(n, 2, nb + 1)), valley_bd(n, 2, nb), two_valley_bd(n, 5, nb)):
        check_candidate_sets(candidate_sets(a, b, n // nb), a, b)


def test_candidate_sets_memory_is_quadratic():
    # the sets keep (n/l)**2 words a field and the scan holds a bounded
    # chunk of sums: on a walk at n = 1024, l = 2 (256**3 triples) the
    # tracemalloc peak stays under 16 MiB; a dense (n/l)**3 mask alone
    # would be 128 MiB
    a, b = mp.generate_bd(1024, 2, 0), mp.generate_bd(1024, 2, 1)
    tracemalloc.start()
    try:
        cs = candidate_sets(a, b, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cs.sizes.shape == (512, 512)
    assert peak < 16 << 20


def test_candidate_soundness_exhaustive(pool):
    # the tie-broken argmin witness block is always admitted
    n, delta, l = 64, 2, 8
    a, b = pool.pair(n, delta, 2)
    ad, bd = a.base.data, b.base.data
    cs = candidate_sets(a, b, l)
    mask, _ = candidate_mask(a, b, l)
    for i in range(n):
        sums = ad[i, :][:, None] + bd  # (k, j)
        ks = sums.argmin(axis=0)  # smallest index on ties
        for j in range(n):
            assert mask[i // l, j // l, ks[j] // l]
            assert cs.lo[i // l, j // l] <= ks[j] // l <= cs.hi[i // l, j // l]


def test_two_candidate_closeness(pool):
    # representative sums of any two candidates differ by <= 16*delta*l
    n, delta, l = 64, 2, 8
    for seed in range(3):
        a, b = pool.pair(n, delta, seed)
        ra = a.base.data[::l, ::l]
        rb = b.base.data[::l, ::l]
        mask, _ = candidate_mask(a, b, l)
        nb = n // l
        sums = ra[:, :, None] + rb[None, :, :]
        for bi in range(nb):
            for bj in range(nb):
                vals = sums[bi, :, bj][mask[bi, bj]]
                assert vals.max() - vals.min() <= 16 * delta * l


def test_refine_all_zero():
    cs = candidate_sets(ZERO8, ZERO8, 2)
    child = candidate_sets(ZERO8, ZERO8, 1)
    assert child.grid.l == 1
    assert (child.lo == 0).all() and (child.hi == 7).all()
    assert cs.sizes.max() == 4 and child.sizes.max() == 8


@pytest.mark.parametrize("family", ["walk", "valley"])
def test_child_candidates_inside_parent(pool, family):
    # candidate sets nest across halving block lengths: every child candidate
    # lies inside its parent's candidate set, and so does the child argmin;
    # so each child span lies under its parent's span
    for n, delta, seed in ((32, 2, 3), (64, 1, 3), (64, 5, 3), (64, 2, 4)):
        a, b = pool.pair(n, delta, seed) if family == "walk" else valley_bd(n, delta, seed)
        l = n
        parent, parent_spans = candidate_mask(a, b, l)[0], candidate_sets(a, b, l)
        while l >= 2:
            h = l // 2
            child, child_spans = candidate_mask(a, b, h)[0], candidate_sets(a, b, h)
            up = np.arange(n // h) // 2
            assert not (child & ~parent[np.ix_(up, up, up)]).any()
            sums = a.base.data[::h, ::h][:, :, None] + b.base.data[::h, ::h][None, :, :]
            k_min = sums.argmin(axis=1)  # child argmin column per (i', j')
            assert parent[up[:, None], up[None, :], k_min // 2].all()
            assert (child_spans.lo >= 2 * parent_spans.lo[np.ix_(up, up)]).all()
            assert (child_spans.hi <= 2 * parent_spans.hi[np.ix_(up, up)] + 1).all()
            parent, parent_spans, l = child, child_spans, h


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
