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


@pytest.mark.parametrize("chunk", [1, 3 * 8 * 8, 1 << 30])
def test_candidate_chunks_match_dense(pool, chunk):
    # the sets equal the dense result on a walk and on a valley (whose spans
    # are narrow and differ from pair to pair); on two valleys the sets
    # leave gaps, so a span is more than its set, and the first candidate
    # among a set of columns is found by the drawn scan, asked for the
    # pairs in chunks of one pair, of a few pairs with a short last one, or
    # all at once: a pair's answer does not depend on the pairs beside it
    n, delta, l = 32, 2, 4
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
    got = [cs.first_candidate(pairs[i : i + chunk], cols) for i in range(0, len(pairs), chunk)]
    assert np.array_equal(np.concatenate(got), want)


@pytest.mark.parametrize("case, dtype", [("two-valley", np.int16), ("wide-walk", np.int32), ("flat-rows", np.int64)])
def test_first_candidate_matches_reference(case, dtype):
    # the sampled stage's assignment, each pair's smallest candidate among
    # the drawn columns (or nb), equals the reference mask's in every scan
    # type, at the top level (l = 2) and at a child level (l = 1) of half
    # its pairs: the two valleys at delta 5, whose sets leave gaps, in
    # int16; the CI's delta = 3000 walk (seeds 3 and 4) in int32; rows
    # A[i, k] = i * 2**53 and B[k, j] = j * 2**53 in int64, where every
    # column is a candidate. Each takes most of its level's pairs in
    # shuffled order, with every column drawn and with four drawn, which
    # some two-valley pairs miss and the walk's dense sets do not
    if case == "two-valley":
        a, b = two_valley_bd(128, 5, 1)
    elif case == "wide-walk":
        a, b = mp.generate_bd(64, 3000, 3), mp.generate_bd(64, 3000, 4)
    else:
        rows = np.arange(64, dtype=np.int64)[:, None] << 53
        a, b = (mp.BDMatrix(Matrix(x), (1 << 53) + 1) for x in (rows.repeat(64, 1), rows.T.repeat(64, 0)))
    rng = np.random.default_rng(11)
    top = candidate_sets(a, b, 2)
    assert top.kern.a.dtype == dtype
    parents = rng.random(top.sizes.shape) < 0.5
    missed = 0
    for cs, scanned in ((top, np.ones_like(parents)), (child_sets(1, parents, top), parents)):
        mask = candidate_mask(a, b, cs.grid.l)[0]
        nb = mask.shape[0]
        scanned = np.repeat(np.repeat(scanned, nb // len(scanned), 0), nb // len(scanned), 1)
        if case == "two-valley":
            assert (cs.hi - cs.lo + 1 > cs.sizes)[scanned].any()
        pairs = rng.permutation(np.argwhere(scanned & (rng.random((nb, nb)) < 0.8)))
        for cols in (np.arange(nb), np.sort(rng.choice(nb, 4, replace=False))):
            sub = mask[pairs[:, 0], pairs[:, 1]][:, cols]
            want = np.where(sub.any(axis=1), cols[sub.argmax(axis=1)], nb)
            assert np.array_equal(cs.first_candidate(pairs, cols), want)
            missed += int((want == nb).sum())
    assert (missed > 0) == (case == "two-valley")


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
            check_candidate_sets(child_sets(l, np.ones((nb, nb), dtype=bool), above), a, b)
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


def _reference_rectangles(pairs, lo, hi, nb):
    """The numpy grouping ``native.rectangles`` replaced, the reference it
    is checked against: the block pairs ``pairs`` (bi, bj), distinct and in
    any order, each over its span lo[g]..hi[g], as a table of rows (r0, r1,
    c0, c1, k0, k1) in block units. Runs of consecutive block columns in
    one block row, over the union of their spans, stacked over consecutive
    block rows while the run that follows has the same first column, length
    and union."""
    key = pairs[:, 0] * nb + pairs[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    # runs: consecutive block columns of one block row, and their union span
    cut = np.ones(len(key), dtype=bool)
    cut[1:] = (np.diff(key) != 1) | (key[1:] % nb == 0)
    run_at = np.flatnonzero(cut)
    run_len = np.diff(np.append(run_at, len(key)))
    run_bi, run_bj = np.divmod(key[run_at], nb)
    run_lo = np.minimum.reduceat(lo[order], run_at)
    run_hi = np.maximum.reduceat(hi[order], run_at)
    # rectangles: runs that follow each other in consecutive block rows
    # with one shape (first block column, length and union span)
    shape = np.stack((run_bj, run_len, run_lo, run_hi))
    cut = np.ones(len(run_at), dtype=bool)
    cut[1:] = (shape[:, 1:] != shape[:, :-1]).any(axis=0) | (run_bi[1:] != run_bi[:-1] + 1)
    rect_at = np.flatnonzero(cut)
    bj0, wd, span_lo, span_hi = shape[:, rect_at]
    bi0 = run_bi[rect_at]
    rows = np.diff(np.append(rect_at, len(run_at)))
    return np.stack((bi0, bi0 + rows, bj0, bj0 + wd, span_lo, span_hi + 1), axis=1).astype(np.int64)


def _spans(rng, nb, kind):
    """Random int32 span tables of an nb x nb grid: any spans, or few
    distinct ones with rows repeated, so equal neighbours stack."""
    if kind == "any":
        lo = rng.integers(0, nb, size=(nb, nb))
        hi = np.minimum(lo + rng.integers(0, nb, size=(nb, nb)), nb - 1)
    else:
        lo = rng.integers(0, 2, size=(nb, nb)) % nb
        hi = np.maximum(nb - 1 - rng.integers(0, 2, size=(nb, nb)), lo)
        repeat = rng.random(nb) < 0.6
        for bi in np.flatnonzero(repeat[1:]) + 1:
            lo[bi], hi[bi] = lo[bi - 1], hi[bi - 1]
    return lo.astype(np.int32), hi.astype(np.int32)


@pytest.mark.parametrize("scale", [1, 2, 8])
def test_rectangles_match_numpy_reference(scale):
    # the compiled grouping gives the numpy reference's table row for row,
    # times scale, on seeded random masks: sparse and dense ones, rows
    # with several runs, whole rows, and rows repeated so that runs stack
    # over some neighbours and not over others (the same run with another
    # union). A span is read only under the mask, so pairs outside it may
    # hold anything
    rng = np.random.default_rng(scale)
    stacked = several = 0
    for trial in range(300):
        nb = int(rng.integers(1, 13))
        density = rng.choice([0.1, 0.5, 0.9, 1.0])
        mask = rng.random((nb, nb)) < density
        if trial % 3 == 0:
            repeat = rng.random(nb) < 0.6
            for bi in np.flatnonzero(repeat[1:]) + 1:
                mask[bi] = mask[bi - 1]
        lo, hi = _spans(rng, nb, "any" if trial % 2 else "few")
        lo[~mask], hi[~mask] = -7, nb + 7
        run_starts = (np.diff(mask.astype(np.int8), axis=1, prepend=0) == 1).sum(axis=1)
        several += int((run_starts >= 2).sum())
        pairs = np.argwhere(mask)[rng.permutation(int(mask.sum()))]
        got = mp.native.rectangles(mask, lo, hi, scale)
        if not len(pairs):
            assert got.shape == (0, 6)
            continue
        want = _reference_rectangles(pairs, lo[pairs[:, 0], pairs[:, 1]], hi[pairs[:, 0], pairs[:, 1]], nb)
        assert got.dtype == np.int64 and np.array_equal(got, want * scale)
        stacked += int((want[:, 1] - want[:, 0] > 1).sum())
    assert stacked > 50 and several > 50


def test_rectangles_edge_cases():
    # a run that ends at the last column is not continued by one that
    # starts at column 0 of the next row; a single pair keeps its own span;
    # an empty mask gives no rows; equal runs in consecutive rows stack,
    # but not over a row between them without one
    nb = 5
    lo, hi = np.full((nb, nb), 1, dtype=np.int32), np.full((nb, nb), 3, dtype=np.int32)
    mask = np.zeros((nb, nb), dtype=bool)
    mask[0, 3:], mask[1, :2] = True, True
    assert mp.native.rectangles(mask, lo, hi, 1).tolist() == [[0, 1, 3, 5, 1, 4], [1, 2, 0, 2, 1, 4]]
    single = np.zeros((nb, nb), dtype=bool)
    single[4, 4] = True
    lo[4, 4], hi[4, 4] = 2, 2
    assert mp.native.rectangles(single, lo, hi, 4).tolist() == [[16, 20, 16, 20, 8, 12]]
    assert mp.native.rectangles(np.zeros((nb, nb), dtype=bool), lo, hi, 1).shape == (0, 6)
    assert mp.native.rectangles(np.zeros((0, 0), dtype=bool), lo[:0, :0], hi[:0, :0], 1).shape == (0, 6)
    rows = np.zeros((nb, nb), dtype=bool)
    rows[[0, 1, 3], 1:4] = True
    assert mp.native.rectangles(rows, lo, hi, 1).tolist() == [[0, 2, 1, 4, 1, 4], [3, 4, 1, 4, 1, 4]]


@pytest.mark.parametrize("lo_v, hi_v", [(2, 1), (-1, 0), (0, 5), (-3, -3), (5, 5)])
def test_rectangles_refuse_bad_spans(lo_v, hi_v):
    # a masked pair whose span is empty or leaves the block columns is
    # refused (None), wherever it sits among good pairs; unmasked it is
    # never read
    nb = 5
    lo, hi = np.zeros((nb, nb), dtype=np.int32), np.full((nb, nb), nb - 1, dtype=np.int32)
    lo[2, 3], hi[2, 3] = lo_v, hi_v
    mask = np.ones((nb, nb), dtype=bool)
    assert mp.native.rectangles(mask, lo, hi, 1) is None
    mask[2, 3] = False
    assert mp.native.rectangles(mask, lo, hi, 1) is not None
