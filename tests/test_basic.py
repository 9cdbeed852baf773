import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import minplus as mp
from minplus import AlgoParams, Counters, Matrix
from minplus.basic import (
    REL_SHIFTS,
    SEGMENT_WIDTH,
    _PH_SAMPLE_LVL,
    _assigned_spans,
    _group_by_major,
    _min_blocks,
    build_segments,
    derived_rng,
    level_theta,
    sample_r,
)
from minplus.blocking import KernelOperands, candidate_sets, child_sets, kernel_operands
from minplus.cli import _run_once, strict_violations
from minplus.oracle import PolyMatrix, extract_min, poly_matmul
from minplus.recursive import allocate_top, collision_audit

from conftest import candidate_mask, random_matrix, two_valley_bd, valley_bd
from packed_reference import (
    AllocationMap,
    baseline_offset,
    find_collisions,
    process_large_segments,
    process_small_segments,
    subtract_collisions,
)


def zeros_bd(n):
    return mp.BDMatrix(Matrix(np.zeros((n, n), dtype=np.int64)), 1)


# --- parameters ----------------------------------------------------------


def test_params_block_len():
    p = AlgoParams(delta=2, alpha=0.9)
    assert p.block_len(128) == 2
    assert p.block_len(64) == 2
    assert p.block_len(32) == 2
    assert p.block_len(1) == 1
    assert AlgoParams(delta=2, alpha=0.6).block_len(64) == 4


def test_level_theta():
    assert level_theta(16, 4) == pytest.approx(0.5)
    assert level_theta(1, 1) == 1.0


def test_params_thresholds():
    p = AlgoParams(delta=2, alpha=0.9, beta=0.6)
    assert p.t_beta(64) == 13
    assert p.t_gamma(128) == 19
    assert p.sample_count(64) == 48  # ceil(c0 * log2(n) * (n/l) * n**-beta) at l = 2
    assert p.sample_count(64, 1) == 96
    assert p.sample_count(1) == 0
    d = AlgoParams(delta=2, alpha=0.9)  # the default beta = 0.75
    assert (d.t_beta(64), d.sample_count(64), d.sample_count(64, 1)) == (23, 26, 51)


def test_params_validation():
    with pytest.raises(ValueError):
        AlgoParams(delta=0)
    with pytest.raises(ValueError):
        AlgoParams(delta=1, alpha=1.0)
    with pytest.raises(ValueError):
        AlgoParams(delta=1, c0=0)


def test_params_defaults():
    p = AlgoParams(delta=1)
    assert (p.alpha, p.beta, p.gamma, p.c0) == (0.7, 0.75, 0.6, 3)


def test_default_beta_exceeds_top_block_columns():
    # a top-level pair has at most n/l0 candidates, and at the defaults
    # T_beta is at least that at every size up to 2**14: no pair is active
    p = AlgoParams(delta=2)
    for e in range(1, 15):
        n = 1 << e
        assert p.t_beta(n) >= n // p.block_len(n), n


def test_default_block_len():
    # the default schedule: l0 = 4 at n = 32..256, 8 at n = 512..2048
    p = AlgoParams(delta=2)
    assert [p.block_len(1 << e) for e in range(5, 12)] == [4, 4, 4, 4, 8, 8, 8]


def test_default_levels():
    # the default floor l_min = 8 is at or above l0 up to n = 2048, so the
    # recursive schedule is the top level alone there, and one halving at
    # n = 4096; a lower floor adds levels down to it, and l_min = 1 is the
    # paper's descent
    p = AlgoParams(delta=2)
    assert [p.levels(n) for n in (2, 32, 256, 512, 2048)] == [[1], [4], [4], [8], [8]]
    assert p.levels(4096) == [16, 8]
    assert AlgoParams(delta=2, l_min=4).levels(512) == [8, 4]
    assert AlgoParams(delta=2, alpha=0.9, l_min=1).levels(64) == [2, 1]


@pytest.mark.parametrize("l_min", [0, 3, -4])
def test_params_reject_bad_l_min(l_min):
    with pytest.raises(ValueError, match="l_min"):
        AlgoParams(delta=2, l_min=l_min)


# --- sampling --------------------------------------------------------------


def test_sample_r_full_candidates():
    a, b = zeros_bd(16), zeros_bd(16)
    cs = candidate_sets(a, b, 2)
    params = AlgoParams(delta=1, beta=0.2, seed=5)  # t_beta = 2 < 8 = |K|
    r_cols, needed = sample_r(cs, params)
    assert len(r_cols) >= 1
    assert len(needed.missed) == 0
    assert sum(len(v) for v in needed.gamma.values()) == 64
    # assignment picks the smallest sampled block inside K = everything
    first = min(needed.gamma)
    assert first == int(r_cols[0])
    assert all(int(rc) in needed.gamma or len(needed.gamma.get(int(rc), ())) == 0 for rc in r_cols)


def test_sample_r_count_matches_formula(pool):
    a, b = pool.pair(64, 2, 2)
    cs = candidate_sets(a, b, 2)
    params = AlgoParams(delta=2, alpha=0.9, seed=0)
    for level in (0, 1):
        rng = derived_rng(0, _PH_SAMPLE_LVL, level)
        draws = rng.integers(0, 32, size=params.sample_count(64))
        r_cols, _ = sample_r(cs, params, level=level)
        assert np.array_equal(r_cols, np.unique(draws) * 2)


@pytest.mark.parametrize("family", ["walk", "valley", "two-valley"])
def test_sample_r_assigns_first_drawn_candidate(pool, family):
    # every active pair goes to the smallest drawn block column of its
    # candidate set (the reference mask), in the order of active, and a
    # pair with no drawn candidate is missed. c0 = 1 and beta = 0.95 draw a
    # few columns, so on the valley some pairs miss, and on the two valleys
    # drawn columns fall between a pair's runs; the scan runs at l and l/2
    n = 256
    if family == "walk":
        a, b = pool.pair(n, 2, 5)
    else:
        a, b = (valley_bd if family == "valley" else two_valley_bd)(n, 2, 9)
    params = AlgoParams(delta=2, beta=0.95, c0=1, seed=3)
    top = candidate_sets(a, b, 4)
    for l, cs in ((4, top), (2, child_sets(2, np.ones((64, 64), dtype=bool), top))):
        mask, _ = candidate_mask(a, b, l)
        if family != "walk":
            # the valley's sets fill their spans; the two valleys' leave
            # gaps, where the drawn columns are tested
            assert (cs.hi - cs.lo + 1 > cs.sizes).any() == (family == "two-valley")
        nb = n // l
        active = np.argwhere(np.ones((nb, nb), dtype=bool))[np.random.default_rng(l).permutation(nb * nb)]
        r_cols, needed = sample_r(cs, params, active, level=l)
        drawn = r_cols // l
        hits = mask[active[:, 0], active[:, 1]][:, drawn]
        first = np.where(hits.any(axis=1), drawn[hits.argmax(axis=1)], -1)
        assert (first >= 0).any() and ((first < 0).any() or family != "valley")
        assert np.array_equal(needed.missed, active[first < 0])
        assert sorted(needed.gamma) == sorted(set(first[first >= 0] * l))
        for r, got in needed.gamma.items():
            assert np.array_equal(got, active[first * l == r])


def test_sample_r_monte_carlo_coverage():
    # unassigned fraction is zero in at least 95 of 100 seeded runs
    clean = 0
    for seed in range(100):
        a = mp.generate_bd(64, 2, 1000 + 2 * seed)
        b = mp.generate_bd(64, 2, 1001 + 2 * seed)
        cs = candidate_sets(a, b, 2)
        params = AlgoParams(delta=2, seed=seed)
        _, needed = sample_r(cs, params)
        if len(needed.missed) == 0:
            clean += 1
    assert clean >= 95


# --- column reduction -------------------------------------------------------


def test_shift_zero_column_row(pool):
    # buckets relative to column r put block column r of A and block row r
    # of B in bucket 0, as the reduced copies' zero column and row would
    n, delta, l, r = 16, 2, 4, 4
    a, b = pool.pair(n, delta, 3)
    seg_a, seg_b, _ = build_segments(a.base.data, b.base.data, l, delta, r)
    assert np.all(seg_a.buckets[:, r // l] == 0)
    assert np.all(seg_b.buckets[r // l, :] == 0)


def test_shift_algebraic_identity(pool):
    # the reduction cancels exactly, so sampled columns evaluate their
    # blocks on the original operands
    a, b = pool.pair(8, 2, 3)
    ad, bd = a.base.data, b.base.data
    ar, br = ad - ad[:, 2:3], bd - bd[2:3, :]
    for i, k, j in ((0, 3, 5), (7, 0, 1), (4, 4, 4)):
        lhs = int(ar[i, k]) + int(br[k, j])
        rhs = int(ad[i, k]) + int(bd[k, j]) - (int(ad[i, 2]) + int(bd[2, j]))
        assert lhs == rhs


def test_shift_diametric_bound(pool):
    # for any candidate pair k', r' of the same block pair, the reduced
    # representative sums stay within 16*delta*l
    n, delta, l = 64, 2, 8
    a, b = pool.pair(n, delta, 4)
    mask, _ = candidate_mask(a, b, l)
    ra = a.base.data[::l, ::l]
    rb = b.base.data[::l, ::l]
    sums = ra[:, :, None] + rb[None, :, :]  # (bi, bk, bj)
    nb = n // l
    for bi in range(nb):
        for bj in range(nb):
            cand = np.flatnonzero(mask[bi, bj])
            for rblk in cand:
                reduced = sums[bi, cand, bj] - sums[bi, rblk, bj]
                assert np.abs(reduced).max() <= 16 * delta * l


# --- segmentation ------------------------------------------------------------


def test_build_segments_all_zero():
    z = np.zeros((8, 8), dtype=np.int64)
    seg_a, seg_b, shifts = build_segments(z, z, 2, 1, 0)
    assert shifts == (-2, -1, 0)
    assert seg_a.width == 20 * 1 * 2
    assert np.all(seg_a.buckets == 0) and np.all(seg_b.buckets == 0)
    # one segment per block column, all in bucket 0, holding every block row
    assert seg_a.keys.tolist() == [[k, 0] for k in range(4)]
    assert [seg_a.members_of(s).tolist() for s in range(4)] == [[0, 1, 2, 3]] * 4
    # the single A bucket pairs with B buckets {-2, -1, 0}
    assert sorted(s - 0 for s in shifts) == [-2, -1, 0]


@pytest.mark.parametrize("seed", range(6))
def test_group_by_major_matches_lexsort(seed):
    # one stable sort of the encoded key groups like a three-key lexsort of
    # (major, bucket, member), negative buckets included
    rng = np.random.default_rng(seed)
    bmat = rng.integers(-4, 4, size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
    n_major, n_member = bmat.shape
    major = np.repeat(np.arange(n_major), n_member)
    member = np.tile(np.arange(n_member), n_major)
    order = np.lexsort((member, bmat.ravel(), major))
    seg = np.stack([major[order], bmat.ravel()[order]], 1)
    first = np.flatnonzero(np.r_[True, (seg[1:] != seg[:-1]).any(axis=1)])
    keys, members, starts = _group_by_major(bmat)
    assert np.array_equal(keys, seg[first])
    assert np.array_equal(members, member[order])
    assert np.array_equal(starts, np.r_[first, len(order)])


def test_segments_cover_diametric_pairs(pool):
    n, delta, l = 64, 2, 8
    for seed in range(4):
        a, b = pool.pair(n, delta, seed)
        ad, bd = a.base.data, b.base.data
        r = 8 * (seed % 4)
        ar = ad - ad[:, r : r + 1]
        br = bd - bd[r : r + 1, :]
        seg_a, seg_b, shifts = build_segments(ad, bd, l, delta, r)
        assert np.array_equal(seg_a.buckets, ar[::l, ::l] // seg_a.width)
        assert np.array_equal(seg_b.buckets, br[::l, ::l] // seg_b.width)
        ra = ar[::l, ::l]
        rb = br[::l, ::l]
        sums = ra[:, :, None] + rb[None, :, :]
        diametric = np.abs(sums) <= 16 * delta * l
        psum = seg_a.buckets[:, :, None] + seg_b.buckets.transpose()[None, :, :].transpose(0, 2, 1)
        covered = (psum >= -2) & (psum <= 0)
        assert covered[diametric].all()


def test_baseline_offsets_center_and_cancel():
    delta, l = 3, 4
    w = 20 * delta * l
    wobble = 2 * delta * l
    for shift in REL_SHIFTS:
        for p in range(-5, 6):
            q = shift - p
            u = baseline_offset(p, shift, w)
            a_vals = np.arange(p * w - wobble, (p + 1) * w + wobble)
            b_vals = np.arange(q * w - wobble, (q + 1) * w + wobble)
            assert np.abs(a_vals + u).max() <= w + wobble
            assert np.abs(b_vals - u).max() <= w + wobble
            # pair sums unchanged
            assert (a_vals[0] + u) + (b_vals[0] - u) == a_vals[0] + b_vals[0]


def test_allocation_uniform():
    rng = np.random.default_rng(0)
    slots = allocate_top(np.zeros((10_000, 2), dtype=np.int64), 1, 8, rng).leaf.slots
    counts = np.bincount(slots, minlength=8)
    p = 1 / 8
    sigma = np.sqrt(10_000 * p * (1 - p))
    assert np.abs(counts - 10_000 * p).max() <= 5 * sigma


# --- rectangular paths ---------------------------------------------------------


def _per_relation_minima(ar, br, l, delta, shift, blocks):
    """Test-local oracle: direct min over bucket-matched pairs of one relation."""
    w = 20 * delta * l
    pa = ar[::l, ::l] // w
    qb = br[::l, ::l] // w
    out = {}
    for bi, bj in blocks:
        best = np.full((l, l), mp.INF, dtype=np.int64)
        for bk in range(ar.shape[0] // l):
            if qb[bk, bj] != shift - pa[bi, bk]:
                continue
            ab = ar[bi * l : bi * l + l, bk * l : bk * l + l]
            bb = br[bk * l : bk * l + l, bj * l : bj * l + l]
            prod = (ab[:, :, None] + bb[None, :, :]).min(axis=1)
            best = np.minimum(best, prod)
        out[(int(bi), int(bj))] = best
    return out


def _reduced_pair(pool, n, delta, seed, r):
    """The pair's operands reduced by column r: the packed products' inputs.
    Column r of the reduced A (row r of B) is zero, so segmenting them
    relative to column r gives the originals' segments."""
    a, b = pool.pair(n, delta, seed)
    ad, bd = a.base.data, b.base.data
    return ad - ad[:, r : r + 1], bd - bd[r : r + 1, :]


def _add_back(ad, bd, l, r, bi, bj, reduced):
    """A reduced-space block value shifted back by A[i,r] + B[r,j]."""
    return reduced + ad[bi * l : bi * l + l, r][:, None] + bd[r, bj * l : bj * l + l][None, :]


def _column_values(ad, bd, l, width, r_col, blocks, counters=None):
    """The blocks of one sampled column over their ``_assigned_spans``,
    written by ``_min_blocks``, in the order of blocks, as written into the
    product: those blocks and no other entry. The span tables passed in
    hold an unscanned pair's empty span everywhere, and stay so: the spans
    are written into copies, and only at the blocks."""
    n = ad.shape[0]
    nb = n // l
    c, done = np.full((n, n), mp.INF, dtype=np.int64), np.zeros((n, n), dtype=bool)
    unscanned = np.full((nb, nb), nb, dtype=np.int32), np.full((nb, nb), -1, dtype=np.int32)
    lo, hi = _assigned_spans(ad, bd, l, width, {r_col: blocks}, *unscanned, counters)
    assert (unscanned[0] == nb).all() and (unscanned[1] == -1).all()
    written = np.zeros((nb, nb), dtype=bool)
    written[blocks[:, 0], blocks[:, 1]] = True
    assert (lo[~written] == nb).all() and (hi[~written] == -1).all()
    _min_blocks(kernel_operands(Matrix(ad), Matrix(bd)), l, written, lo, hi, c, done)
    assert np.array_equal(done.reshape(nb, l, nb, l).transpose(0, 2, 1, 3), np.broadcast_to(written[:, :, None, None], (nb, nb, l, l)))
    return c.reshape(nb, l, nb, l)[blocks[:, 0], :, blocks[:, 1], :]


def test_process_large_all_segments(pool):
    # t_gamma = 1 makes every nonempty segment large; union over the three
    # relations reproduces the relation-matched minima exactly
    n, delta, l = 16, 2, 4
    ar, br = _reduced_pair(pool, n, delta, 5, 4)
    a, b = pool.pair(n, delta, 5)
    seg_a, seg_b, shifts = build_segments(a.base.data, b.base.data, l, delta, 4)
    nb = n // l
    blocks = np.argwhere(np.ones((nb, nb), dtype=bool))
    merged = {tuple(bk): np.full((l, l), mp.INF, dtype=np.int64) for bk in map(tuple, blocks)}
    for shift in shifts:
        ce = process_large_segments(seg_a, seg_b, shift, ar, br, t_gamma=1)
        want = _per_relation_minima(ar, br, l, delta, shift, blocks)
        for (bi, bj), wb in want.items():
            got = ce[bi * l : bi * l + l, bj * l : bj * l + l]
            assert np.array_equal(got, wb)
            merged[(bi, bj)] = np.minimum(merged[(bi, bj)], got)
    fast = _column_values(a.base.data, b.base.data, l, 20 * delta * l, 4, blocks)
    for i, bk in enumerate(map(tuple, blocks)):
        assert np.array_equal(_add_back(a.base.data, b.base.data, l, 4, *bk, merged[bk]), fast[i])


def test_process_large_matches_naive_for_covered_pairs(pool):
    # blocks whose candidate set contains the reduction column: the union of
    # relation products plus the shift reversal reproduces the naive product
    n, delta, l = 16, 2, 4
    seed, r_col = 5, 4
    a, b = pool.pair(n, delta, seed)
    ad, bd = a.base.data, b.base.data
    ar = ad - ad[:, r_col : r_col + 1]
    br = bd - bd[r_col : r_col + 1, :]
    seg_a, seg_b, shifts = build_segments(ad, bd, l, delta, r_col)
    merged = np.full((n, n), mp.INF, dtype=np.int64)
    for shift in shifts:
        merged = np.minimum(merged, process_large_segments(seg_a, seg_b, shift, ar, br, t_gamma=1))
    restored = merged + ad[:, r_col][:, None] + bd[r_col, :][None, :]
    naive = pool.naive(n, delta, seed).data
    mask, _ = candidate_mask(a, b, l)
    for bi, bj in np.argwhere(mask[:, :, r_col // l]):
        sl = (slice(bi * l, bi * l + l), slice(bj * l, bj * l + l))
        assert np.array_equal(restored[sl], naive[sl])


def test_process_large_noop(pool):
    n, delta, l = 16, 2, 4
    ar, br = _reduced_pair(pool, n, delta, 5, 4)
    seg_a, seg_b, _ = build_segments(ar, br, l, delta, 4)
    counters = Counters()
    ce = process_large_segments(seg_a, seg_b, -1, ar, br, t_gamma=10**6, counters=counters)
    assert np.all(ce == mp.INF)
    assert counters.max_large_slots == 0


def test_process_large_slot_bound(pool):
    n, delta, l = 64, 2, 8
    ar, br = _reduced_pair(pool, n, delta, 6, 16)
    seg_a, seg_b, _ = build_segments(ar, br, l, delta, 16)
    t_gamma = 2
    counters = Counters()
    process_large_segments(seg_a, seg_b, -1, ar, br, t_gamma, counters)
    assert counters.max_large_slots <= (n // l) ** 2 / t_gamma


def test_process_small_single_segment(pool):
    # one segment total: the packed product reproduces the block products
    n, delta, l = 4, 2, 4
    ar, br = _reduced_pair(pool, n, delta, 7, 0)
    seg_a, seg_b, _ = build_segments(ar, br, l, delta, 0)
    assert len(seg_a.keys) == 1
    rng = np.random.default_rng(3)
    cf, alloc = process_small_segments(seg_a, seg_b, 0, ar, br, t_gamma=10, slot_count=4, rng=rng)
    assert len(find_collisions(alloc)) == 0
    got = extract_min(cf, 2 * alloc.m_enc)
    want = _per_relation_minima(ar, br, l, delta, 0, [(0, 0)])[(0, 0)]
    assert np.array_equal(got.data, want)


def _forced_collision_setup(pool, slot_count=1):
    # two A segments (block columns 0 and 1) forced into one slot
    n, delta, l = 8, 2, 4
    ar, br = _reduced_pair(pool, n, delta, 8, 0)
    seg_a, seg_b, _ = build_segments(ar, br, l, delta, 0)
    rng = np.random.default_rng(11)
    cf, alloc = process_small_segments(
        seg_a, seg_b, 0, ar, br, t_gamma=10**6, slot_count=slot_count, rng=rng
    )
    return n, delta, l, ar, br, cf, alloc


def _placed_pieces(alloc, ar, br, n):
    """PolyMatrix pieces of each placed segment (A side and B side)."""
    l, m_enc = alloc.block_len, alloc.m_enc
    deg = 2 * m_enc
    span = np.arange(l)
    a_pieces, b_pieces = [], []
    for i in range(len(alloc.keys)):
        bk = int(alloc.keys[i, 0])
        u = int(alloc.offsets[i])
        s = int(alloc.slots[i])
        ap = np.zeros((n, alloc.slot_count * l, deg + 1), dtype=np.int64)
        rows = (alloc.a_rows[i][:, None] * l + span).ravel()
        deg_a = ar[np.ix_(rows, bk * l + span)] + u + m_enc
        np.add.at(ap, (rows[:, None], (s * l + span)[None, :], deg_a), 1)
        a_pieces.append(PolyMatrix(ap))
        bp = np.zeros((alloc.slot_count * l, n, deg + 1), dtype=np.int64)
        if len(alloc.b_cols[i]):
            cols = (alloc.b_cols[i][:, None] * l + span).ravel()
            deg_b = br[np.ix_(bk * l + span, cols)] - u + m_enc
            np.add.at(bp, ((s * l + span)[:, None], cols[None, :], deg_b), 1)
        b_pieces.append(PolyMatrix(bp))
    return a_pieces, b_pieces


def test_process_small_collision_expansion(pool):
    # the packed product equals the full (A1+A2+..)(B1+B2+..) expansion
    n, delta, l, ar, br, cf, alloc = _forced_collision_setup(pool)
    assert len(alloc.keys) >= 2 and len(np.unique(alloc.slots)) == 1
    a_pieces, b_pieces = _placed_pieces(alloc, ar, br, n)
    total = np.zeros_like(cf.coeffs)
    for ap in a_pieces:
        for bp in b_pieces:
            total += poly_matmul(ap, bp).coeffs
    assert np.array_equal(cf.coeffs, total)


def test_collision_identity(pool):
    # (sum A)(sum B) - cross pairs == sum of corresponding pairs
    n, delta, l, ar, br, cf, alloc = _forced_collision_setup(pool)
    a_pieces, b_pieces = _placed_pieces(alloc, ar, br, n)
    cross = np.zeros_like(cf.coeffs)
    wanted = np.zeros_like(cf.coeffs)
    for i, ap in enumerate(a_pieces):
        for j, bp in enumerate(b_pieces):
            term = poly_matmul(ap, bp).coeffs
            if i == j:
                wanted += term
            else:
                cross += term
    assert np.array_equal(cf.coeffs - cross, wanted)


def test_find_collisions_counts(pool):
    n, delta, l, ar, br, cf, alloc = _forced_collision_setup(pool)
    counters = Counters()
    cols = find_collisions(alloc, counters)
    m = len(alloc.keys)
    want_pairs = sum(
        1
        for p in range(m)
        for q in range(m)
        if p != q and alloc.a_sizes[p] and alloc.b_sizes[q]
    )
    assert len(cols) == want_pairs
    manual = int(alloc.a_sizes.sum()) * int(alloc.b_sizes.sum()) - int(
        (alloc.a_sizes * alloc.b_sizes).sum()
    )
    assert counters.collision_checks == manual
    assert counters.collisions_found == len(cols)


def test_find_collisions_two_segments():
    # two non-corresponding segments sharing a slot give exactly 2 entries
    alloc = AllocationMap(
        slot_count=1,
        shift=0,
        block_len=2,
        width=40,
        m_enc=44,
        keys=np.array([[0, 0], [1, 0]]),
        slots=np.zeros(2, dtype=np.int64),
        offsets=np.zeros(2, dtype=np.int64),
        a_rows=[np.array([0]), np.array([1])],
        b_cols=[np.array([0]), np.array([1])],
        a_sizes=np.array([1, 1]),
        b_sizes=np.array([1, 1]),
    )
    cols = find_collisions(alloc)
    assert len(cols) == 2
    assert {(int(r[1]), int(r[2])) for r in cols} == {(0, 1), (1, 0)}


def test_find_collisions_separate_slots(pool):
    n, delta, l, ar, br, cf, alloc = _forced_collision_setup(pool, slot_count=2)
    if alloc.slots[0] != alloc.slots[1]:
        assert len(find_collisions(alloc)) == 0


def test_subtract_collisions_exact(pool):
    n, delta, l, ar, br, cf, alloc = _forced_collision_setup(pool)
    cols = find_collisions(alloc)
    nb = n // l
    needed = np.argwhere(np.ones((nb, nb), dtype=bool))
    blocks = subtract_collisions(cf, cols, needed, ar, br, alloc)
    want = _per_relation_minima(ar, br, l, delta, 0, needed)
    for key, val in blocks.items():
        assert np.array_equal(val, want[key])


def test_subtract_collisions_none_needed(pool):
    # with no collisions, extraction is already exact
    n, delta, l = 4, 2, 4
    ar, br = _reduced_pair(pool, n, delta, 7, 0)
    seg_a, seg_b, _ = build_segments(ar, br, l, delta, 0)
    cf, alloc = process_small_segments(
        seg_a, seg_b, 0, ar, br, t_gamma=10, slot_count=4, rng=np.random.default_rng(3)
    )
    blocks = subtract_collisions(cf, np.empty((0, 3), dtype=np.int64), np.array([[0, 0]]), ar, br, alloc)
    want = _per_relation_minima(ar, br, l, delta, 0, [(0, 0)])[(0, 0)]
    assert np.array_equal(blocks[(0, 0)], want)


def test_subtract_collisions_detects_corruption(pool):
    n, delta, l, ar, br, cf, alloc = _forced_collision_setup(pool)
    cols = find_collisions(alloc)
    if not len(cols):
        pytest.skip("allocation produced no collisions")
    nb = n // l
    needed = np.argwhere(np.ones((nb, nb), dtype=bool))
    doubled = np.concatenate([cols, cols])
    with pytest.raises(mp.InvariantError):
        subtract_collisions(cf, doubled, needed, ar, br, alloc)


# --- end to end -----------------------------------------------------------------


def test_basic_single_entry():
    a = mp.BDMatrix(Matrix(np.array([[3]])), 1)
    b = mp.BDMatrix(Matrix(np.array([[4]])), 1)
    assert mp.basic_minplus(a, b, AlgoParams(delta=1)) == Matrix([[7]])


def test_basic_matches_naive_sweep(pool):
    params = AlgoParams(delta=2, seed=0, beta=0.6)  # the paper's beta: sampled
    for seed in range(100):
        a, b = pool.pair(64, 2, seed)
        assert mp.basic_minplus(a, b, params) == pool.naive(64, 2, seed)


def test_basic_other_deltas(pool):
    for delta in (1, 5):
        params = AlgoParams(delta=delta, seed=1)
        for seed in range(5):
            a, b = pool.pair(32, delta, seed)
            assert mp.basic_minplus(a, b, params) == pool.naive(32, delta, seed)


def test_basic_deterministic(pool):
    a, b = pool.pair(64, 2, 9)
    params = AlgoParams(delta=2, seed=123, beta=0.6)  # the sampled stage draws from the seed
    c1, c2 = Counters(), Counters()
    r1 = mp.basic_minplus(a, b, params, c1)
    r2 = mp.basic_minplus(a, b, params, c2)
    assert r1 == r2 and c1 == c2


def test_basic_rejects_mismatch(pool):
    a, _ = pool.pair(16, 2, 0)
    b, _ = pool.pair(16, 5, 0)
    with pytest.raises(ValueError):
        mp.basic_minplus(a, b, AlgoParams(delta=2))


def test_pipeline_matches_faithful_composition(pool):
    # the per-column restricted evaluation used by basic_minplus equals the
    # packed rectangular composition (large + small with subtraction),
    # shifted back by the column's reduction
    n, delta, l = 16, 2, 4
    seed_r = [(10, 4), (11, 8), (12, 0)]
    for seed, r_col in seed_r:
        a, b = pool.pair(n, delta, seed)
        ad, bd = a.base.data, b.base.data
        ar = ad - ad[:, r_col : r_col + 1]
        br = bd - bd[r_col : r_col + 1, :]
        seg_a, seg_b, shifts = build_segments(ad, bd, l, delta, r_col)
        blocks = np.argwhere(candidate_mask(a, b, l)[0][:, :, r_col // l])
        t_gamma = 2
        merged = {tuple(bk): np.full((l, l), mp.INF, dtype=np.int64) for bk in map(tuple, blocks)}
        for rel, shift in enumerate(shifts):
            rng = derived_rng(0, 2, r_col, rel)
            large = process_large_segments(seg_a, seg_b, shift, ar, br, t_gamma)
            cf, alloc = process_small_segments(seg_a, seg_b, shift, ar, br, t_gamma, 8, rng)
            cols = find_collisions(alloc)
            small = subtract_collisions(cf, cols, blocks, ar, br, alloc)
            for (bi, bj), v in small.items():
                ls = large[bi * l : (bi + 1) * l, bj * l : (bj + 1) * l]
                merged[(bi, bj)] = np.minimum(merged[(bi, bj)], np.minimum(v, ls))
        fast = _column_values(ad, bd, l, 20 * delta * l, r_col, blocks)
        for i, bk in enumerate(map(tuple, blocks)):
            assert np.array_equal(_add_back(ad, bd, l, r_col, *bk, merged[bk]), fast[i])


@pytest.mark.parametrize("budget, r_col", [("default", 8), ("one", 40), ("five_pairs", 72)])
def test_assigned_block_values_chunks(monkeypatch, budget, r_col):
    # the column selections are built a few pairs at a time: one pair per
    # chunk, five pairs with a short last chunk, and one chunk all give the
    # product entries of the pairs whose candidate set holds r_col, and
    # count the bucket-matched columns of each. At l = 1 on a valley along
    # the diagonal, A[i,k] = |k - i| and B[k,j] = |k - j|, every column is
    # a candidate of some pairs, the buckets are selective, and column
    # r_col itself always matches. Each case reduces at its own column, so
    # a span left unset cannot pass by holding the span of the case before.
    n, delta = 128, 2
    ks = np.arange(n)
    a = b = mp.BDMatrix(Matrix((delta - 1) * np.abs(ks[None, :] - ks[:, None])), delta)
    ad, bd = a.base.data, b.base.data
    ar, br = ad - ad[:, r_col : r_col + 1], bd - bd[r_col : r_col + 1, :]
    blocks = np.argwhere(candidate_mask(a, b, 1)[0][:, :, r_col])[::13]
    w = SEGMENT_WIDTH * delta
    psum = (ar // w)[blocks[:, 0]] + (br // w)[:, blocks[:, 1]].T
    sel = (psum >= REL_SHIFTS[0]) & (psum <= REL_SHIFTS[-1])
    assert 0 < sel.mean() < 1 and len(blocks) % 5
    if budget == "one":
        monkeypatch.setattr("minplus.basic._TRIPLE_BUDGET", 1)
    elif budget == "five_pairs":
        monkeypatch.setattr("minplus.basic._TRIPLE_BUDGET", 5 * n)
    counters = Counters()
    got = _column_values(ad, bd, 1, w, r_col, blocks, counters)
    assert np.array_equal(got[:, 0, 0], mp.minplus_naive(a.base, b.base).data[blocks[:, 0], blocks[:, 1]])
    assert counters.poly_degree_ops == int(sel.sum())


@pytest.mark.parametrize("engine", ["basic", "recursive"])
def test_engines_make_no_reduced_copy(pool, monkeypatch, engine):
    # sampled columns bucket against the original operands, and no product
    # builds the collision audit's segment tables
    def refuse(*args):
        raise AssertionError("build_segments called inside a product")

    monkeypatch.setattr("minplus.basic.build_segments", refuse)
    monkeypatch.setattr("minplus.recursive.build_segments", refuse)
    a, b = pool.pair(64, 2, 0)
    params = AlgoParams(delta=2, seed=7, beta=0.6)  # the paper's beta: sampled
    trace = []
    f = mp.basic_minplus if engine == "basic" else mp.recursive_minplus
    got = f(a, b, params, level_trace=trace)
    assert trace[0].assigned
    assert np.array_equal(got.data, pool.naive(64, 2, 0).data)


@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_default_products_only_enumerate(pool, monkeypatch, n):
    # at the default beta no top-level pair has more than T_beta candidates,
    # so neither engine samples a column or evaluates an assigned block: on
    # walks and valleys each product is still the naive one, within the
    # strict counter bounds
    def refuse(*args, **kwargs):
        raise AssertionError("sampled stage called at the defaults")

    monkeypatch.setattr("minplus.basic.sample_r", refuse)
    monkeypatch.setattr("minplus.basic._assigned_spans", refuse)
    params = AlgoParams(delta=2, seed=7)
    for a, b in (pool.pair(n, 2, 0), valley_bd(n, 2, n + 2)):
        want = mp.minplus_naive(a.base, b.base).data
        for engine in ("basic", "recursive"):
            got, rec = _run_once(engine, a, b, params)
            assert np.array_equal(got.data, want)
            assert strict_violations(rec, params) == []


@pytest.mark.parametrize("n", [16, 128])
def test_products_are_kept_read_only(pool, n):
    # each engine and dense hand back the array they wrote, uncopied: int64,
    # C-contiguous, read-only, and the naive product
    a, b = pool.pair(n, 2, 3)
    want = pool.naive(n, 2, 3).data
    params = AlgoParams(delta=2, seed=7)
    for got in (mp.basic_minplus(a, b, params), mp.recursive_minplus(a, b, params), mp.dense_minplus(a.base, b.base)):
        d = got.data
        assert d.dtype == np.int64 and d.flags.c_contiguous and not d.flags.writeable
        assert np.array_equal(d, want)


def test_counters_work_bounds(pool):
    # small-candidate products and large slots respect their budgets; the
    # collision counters are the audited ones
    for n, delta in ((64, 2), (64, 1), (32, 5)):
        a, b = pool.pair(n, delta, 3)
        params = AlgoParams(delta=delta, alpha=0.9, seed=7)
        counters = Counters()
        trace = []
        mp.basic_minplus(a, b, params, counters, trace)
        collision_audit(a, b, params, trace, counters)
        l = params.block_len(n)
        nb = n // l
        assert counters.block_products <= nb * nb * params.t_beta(n) + counters.fallback_pairs * params.t_beta(n)
        assert counters.max_large_slots <= nb * nb / params.t_gamma(n)
        assert 0 < counters.collision_checks
        assert counters.collisions_found <= counters.collision_checks


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("delta", [2, 5])
def test_engines_exact_on_valley_tails(n, delta):
    # valley inputs prune: small pairs at the top level (basic's tail) and
    # pairs still small at block length 1 (recursive's tail); beta = 0.85
    # makes both occur at every size, the default beta mixes them with the
    # sampled pipeline
    a, b = valley_bd(n, delta, n + delta)
    want = mp.minplus_naive(a.base, b.base)
    for beta in (0.6, 0.85):
        params = AlgoParams(delta=delta, beta=beta, seed=1, l_min=1)
        basic_trace, rec_trace = [], []
        assert mp.basic_minplus(a, b, params, level_trace=basic_trace) == want
        assert mp.recursive_minplus(a, b, params, level_trace=rec_trace) == want
    # traces of the beta = 0.85 run
    assert len(basic_trace) == 1 and len(basic_trace[-1].pending) > 0
    assert rec_trace[-1].block_len == 1 and len(rec_trace[-1].pending) > 0


@pytest.mark.parametrize("n", [64, 128, 256])
def test_engines_exact_on_two_valleys(n):
    # each pair's candidates lie in two runs of block columns n/2 apart, so
    # its span holds many columns that are not candidates; a minimum over
    # the span is still the product, at the default schedule and the
    # paper's, with and without the recursion to single entries, and with
    # the sampled stage (beta = 0.6) and without it (the default beta)
    gaps = []
    for delta in (2, 5):
        a, b = two_valley_bd(n, delta, n + delta)
        want = mp.minplus_naive(a.base, b.base).data
        for alpha in (0.7, 0.9):
            cs = candidate_sets(a, b, AlgoParams(delta=delta, alpha=alpha).block_len(n))
            gaps.append((cs.hi - cs.lo + 1).sum() > cs.sizes.sum())
            for l_min in (8, 1):
                for beta in (0.6, 0.75):
                    params = AlgoParams(delta=delta, alpha=alpha, beta=beta, seed=7, l_min=l_min)
                    assert np.array_equal(mp.basic_minplus(a, b, params).data, want)
                    assert np.array_equal(mp.recursive_minplus(a, b, params).data, want)
    assert any(gaps)  # at n = 64 only delta 5 at alpha 0.9 leaves gaps


@pytest.mark.parametrize("engine", ["basic", "recursive"])
@pytest.mark.parametrize("family", ["walk", "valley"])
def test_engines_exact_at_block_length_16(pool, engine, family):
    # alpha = 0.5 at n = 256 gives l = 16, where the block kernel's inner
    # loop is longest and its chunks hold the fewest triples; at the paper's
    # beta the walk's level 8 below it is sampled
    n, delta = 256, 2
    a, b = pool.pair(n, delta, 1) if family == "walk" else valley_bd(n, delta, 3)
    params = AlgoParams(delta=delta, alpha=0.5, beta=0.6, seed=2)
    assert params.block_len(n) == 16
    f = mp.basic_minplus if engine == "basic" else mp.recursive_minplus
    trace = []
    got = f(a, b, params, level_trace=trace)
    assert trace[0].block_len == 16
    assert np.array_equal(got.data, mp.minplus_naive(a.base, b.base).data)


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("family", ["walk", "valley"])
def test_dense_minplus_matches_naive(pool, n, family):
    # the dense reference is one rectangle: every entry over every inner index
    a, b = pool.pair(n, 2, 1) if family == "walk" else valley_bd(n, 2, n)
    assert np.array_equal(mp.dense_minplus(a.base, b.base).data, mp.minplus_naive(a.base, b.base).data)


def test_dense_minplus_operands():
    rng = np.random.default_rng(0)
    a, b = random_matrix(rng, 24, 24, mp.MAX_OPERAND), random_matrix(rng, 24, 24, mp.MAX_OPERAND)
    assert kernel_operands(a, b).a.dtype == np.int64  # the whole operand range: int64 kernels
    assert mp.dense_minplus(a, b) == mp.minplus_naive(a, b)  # 24, no power of two
    small = random_matrix(rng, 8, 8, 5)
    for x, y in [
        (random_matrix(rng, 8, 4, 5), random_matrix(rng, 4, 8, 5)),  # not square
        (small, random_matrix(rng, 16, 16, 5)),  # sizes differ
        (small, random_matrix(rng, 8, 8, 5, inf_prob=0.5)),  # not all-finite
        (small, Matrix(np.full((8, 8), mp.MAX_OPERAND + 1))),  # beyond the operand cap
    ]:
        with pytest.raises(ValueError):
            mp.dense_minplus(x, y)


def test_transposed_operand_is_stored_c_order(pool):
    # a transposed operand is stored C-contiguous, the layout the dense path
    # reads fast, and gives the product of its C-order copy
    a, b = pool.pair(64, 2, 2)
    t = b.base.data.T
    assert not t.flags.c_contiguous
    bt, bc = (mp.BDMatrix(Matrix(x), 2) for x in (t, np.ascontiguousarray(t)))
    assert bt.base.data.flags.c_contiguous
    params = AlgoParams(delta=2, seed=7, beta=0.6)  # sampled columns read the operand too
    assert np.array_equal(mp.basic_minplus(a, bt, params).data, mp.basic_minplus(a, bc, params).data)
    assert np.array_equal(mp.dense_minplus(a.base, bt.base).data, mp.dense_minplus(a.base, bc.base).data)


def _min_blocks_loop(ad, bd, l, pairs, lo, hi):
    """Per-pair reference: for each pair, the min over block columns
    lo..hi of its block of sums A[rows, k] + B[k, cols], in int64."""
    out = np.empty((len(pairs), l, l), dtype=np.int64)
    for g, (bi, bj) in enumerate(pairs):
        ks = slice(lo[g] * l, (hi[g] + 1) * l)
        rows = ad[bi * l : bi * l + l, ks].astype(np.int64)
        cols = bd[ks, bj * l : bj * l + l].astype(np.int64)
        out[g] = (rows[:, :, None] + cols[None, :, :]).min(axis=1)
    return out


def _pair_tables(nb, pairs, lo, hi):
    """The distinct block pairs ``pairs`` of an nb x nb grid, each over its
    span lo[g]..hi[g], as ``_min_blocks`` and ``native.rectangles`` take
    them: a bool mask and int32 span tables, -1 where no pair is."""
    mask = np.zeros((nb, nb), dtype=bool)
    lo_t, hi_t = np.full((nb, nb), -1, dtype=np.int32), np.full((nb, nb), -1, dtype=np.int32)
    mask[pairs[:, 0], pairs[:, 1]] = True
    lo_t[pairs[:, 0], pairs[:, 1]] = lo
    hi_t[pairs[:, 0], pairs[:, 1]] = hi
    assert mask.sum() == len(pairs)
    return mask, lo_t, hi_t


def _written_blocks(kern, l, pairs, lo, hi, per_call=None):
    """``_min_blocks`` into a fresh product and ledger, ``per_call`` pairs a
    call (all at once by default), each call's pairs as a mask: the pairs'
    blocks, in the order of pairs, once the ledger shows exactly those
    blocks written and every other entry is still INF."""
    n = kern.a.shape[0]
    nb = n // l
    c, done = np.full((n, n), mp.INF, dtype=np.int64), np.zeros((n, n), dtype=bool)
    step = per_call or len(pairs)
    for g0 in range(0, len(pairs), step):
        part = slice(g0, g0 + step)
        _min_blocks(kern, l, *_pair_tables(nb, pairs[part], lo[part], hi[part]), c, done)
    written = np.zeros((nb, nb), dtype=bool)
    written[pairs[:, 0], pairs[:, 1]] = True
    assert np.array_equal(done, np.repeat(np.repeat(written, l, 0), l, 1))
    assert (c[~done] == mp.INF).all()
    return c.reshape(nb, l, nb, l)[pairs[:, 0], :, pairs[:, 1], :]


def _recording_native(monkeypatch):
    """Route the native calls, the kernel's, the candidate scan's and the
    grouping's, through a recorder; returns the list of (function name,
    operand dtype, rectangle table) it fills, one per call (the grouping
    has no operand, dtype None, and its table is the one it returns)."""
    calls = []
    real_rects, real_scan, real_group = mp.native.min_rects, mp.native.scan, mp.native.rectangles

    def min_rects(a, b, table, out, done, shift):
        calls.append(("min_rects", a.dtype, table.copy()))
        return real_rects(a, b, table, out, done, shift)

    def scan(x, table, *args):
        calls.append(("scan", x.dtype, table.copy()))
        return real_scan(x, table, *args)

    def rectangles(mask, *args):
        table = real_group(mask, *args)
        calls.append(("rectangles", None, table))
        return table

    monkeypatch.setattr("minplus.native.min_rects", min_rects)
    monkeypatch.setattr("minplus.native.scan", scan)
    monkeypatch.setattr("minplus.native.rectangles", rectangles)
    return calls


@pytest.mark.parametrize("l", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("batch", ["default", "one", "below_group"])
def test_min_blocks_matches_loop(l, batch):
    # operands in int64, int32 and int16, each with entries up to an eighth
    # of its type's range, so every sum fits, and the kernel writes them
    # plus the shift into the int64 product. Each pair alone gets the
    # minimum over its own span, whatever the span: single columns, random
    # spans, full rows. Pairs together may share a rectangle's union span,
    # which is exact for spans that hold every optimal witness block of
    # their pairs: the witness span itself (a single column wherever it is
    # one, as at l = 1), strict supersets of it, and full rows, on the
    # whole grid in shuffled order, so whole rows and stacked rectangles
    # form. The pairs go to the kernel all at once (default), one per call
    # (one), or five per call (below_group), so that a call ends inside a
    # block row and the rectangles of one row come from several calls, all
    # into one product and ledger
    nb = 6 if l < 8 else 3
    n = nb * l
    rng = np.random.default_rng(l)
    grid = np.array([(bi, bj) for bi in range(nb) for bj in range(nb)], dtype=np.int64)
    per_call = {"default": len(grid), "one": 1, "below_group": 5}[batch]
    ks = np.arange(n)
    for dtype in (np.int64, np.int32, np.int16):
        # valleys about the diagonal, plus noise: witness spans are narrow
        # near it and vary from pair to pair
        bound = 1 << (8 * np.dtype(dtype).itemsize - 3)
        slope = bound // (2 * n)
        ad, bd = (
            (-bound + slope * np.abs(ks[None, :] - ks[:, None] - rng.integers(-l, l + 1, size=(n, 1)))
             + rng.integers(0, 2 * slope, size=(n, n))).astype(dtype)
            for _ in "ab"
        )
        bd = bd.T.copy()
        kern = KernelOperands(ad, bd, 7)
        # alone: any span
        lo = rng.integers(0, nb, size=len(grid))
        hi = np.minimum(lo + rng.choice([0, 0, 1, nb], size=len(grid)), nb - 1)
        lo[:3], hi[:3] = 0, nb - 1
        want = _min_blocks_loop(ad, bd, l, grid, lo, hi)
        for g in range(len(grid)):
            got = _written_blocks(kern, l, grid[g : g + 1], lo[g : g + 1], hi[g : g + 1])
            assert np.array_equal(got[0], want[g] + 7)
        # together: spans that hold each pair's optimal witness blocks
        wit_lo, wit_hi, full = _witness_spans(ad, bd, l, grid)
        if l == 1:
            assert (wit_lo == wit_hi).all()
        wider_lo = np.maximum(wit_lo - rng.integers(0, 2, size=len(grid)), 0)
        wider_hi = np.minimum(wit_hi + rng.integers(0, 2, size=len(grid)), nb - 1)
        assert ((wider_lo < wit_lo) | (wider_hi > wit_hi)).any()
        shuffled = rng.permutation(len(grid))
        for lo, hi in [(wit_lo, wit_hi), (wider_lo, wider_hi), (np.zeros_like(wit_lo), np.full_like(wit_hi, nb - 1))]:
            got = _written_blocks(kern, l, grid[shuffled], lo[shuffled], hi[shuffled], per_call)
            assert np.array_equal(got, full[shuffled] + 7)


def _witness_spans(ad, bd, l, pairs):
    """Each pair's first and last block column holding an optimal witness
    of one of its entries, and each pair's block of the product."""
    full = _min_blocks_loop(ad, bd, l, pairs, np.zeros(len(pairs), dtype=int), np.full(len(pairs), ad.shape[0] // l - 1))
    lo, hi = np.empty(len(pairs), dtype=int), np.empty(len(pairs), dtype=int)
    for g, (bi, bj) in enumerate(pairs):
        sums = ad[bi * l : bi * l + l].astype(np.int64)[:, :, None] + bd[:, bj * l : bj * l + l][None]
        wit = np.flatnonzero((sums == full[g][:, None, :]).any(axis=(0, 2))) // l
        lo[g], hi[g] = wit.min(), wit.max()
    return lo, hi, full


def test_min_blocks_keeps_spans_off_the_gemm_path(monkeypatch):
    # consecutive block rows over one run of block columns whose union
    # spans differ keep their exact rectangles, one per block row, each
    # reduced over its own row's union span only, which differs from the
    # minimum over all rows' union; in one native call, in every operand
    # type, at small blocks and large
    rng = np.random.default_rng(5)
    n = 128
    ks = np.arange(n)
    for l, block_rows, dtype in [(2, 2, np.int16), (8, 8, np.int32), (8, 8, np.int64)]:
        nb = n // l
        ad = (np.abs(ks[None, :] - rng.integers(0, n, size=(n, 1))) + rng.integers(0, 9, size=(n, n))).astype(dtype)
        bd = (np.abs(ks[:, None] - rng.integers(0, n, size=(1, n))) + rng.integers(0, 9, size=(n, n))).astype(dtype)
        kern = KernelOperands(ad, bd, 0)
        pairs = np.array([(bi, bj) for bi in range(1, 1 + block_rows) for bj in range(2, 5)])
        # spans in the first quarter of the block columns on even rows, in
        # the third on odd ones
        lo = rng.integers(0, nb // 8, size=len(pairs)) + pairs[:, 0] % 2 * (nb // 2)
        hi = lo + rng.integers(0, nb // 8, size=len(pairs))
        row_lo = np.array([lo[pairs[:, 0] == bi].min() for bi in pairs[:, 0]])
        row_hi = np.array([hi[pairs[:, 0] == bi].max() for bi in pairs[:, 0]])
        own = _min_blocks_loop(ad, bd, l, pairs, row_lo, row_hi)
        union = _min_blocks_loop(ad, bd, l, pairs, np.full(len(pairs), lo.min()), np.full(len(pairs), hi.max()))
        assert not np.array_equal(own, union)
        calls = _recording_native(monkeypatch)
        assert np.array_equal(_written_blocks(kern, l, pairs, lo, hi), own)
        assert [(f, d) for f, d, _ in calls] == [("rectangles", None), ("min_rects", dtype)]
        want = [[bi * l, (bi + 1) * l, 2 * l, 5 * l, int(row_lo[3 * g]) * l, (int(row_hi[3 * g]) + 1) * l]
                for g, bi in enumerate(range(1, 1 + block_rows))]
        assert calls[1][2].tolist() == want
        monkeypatch.undo()


def _reference_rects(a, b, table, shift):
    """Each rectangle (r0, r1, c0, c1, k0, k1) of ``table`` reduced by
    numpy add+min in the operands' type, plus ``shift`` in int64."""
    return [
        (a[r0:r1, k0:k1, None] + b[None, k0:k1, c0:c1]).min(axis=1).astype(np.int64) + shift
        for r0, r1, c0, c1, k0, k1 in table.tolist()
    ]


def _column_chunk():
    """The column chunk of native.c's accumulators (COLS)."""
    import re

    with open(mp.native.SOURCE) as f:
        return int(re.search(r"#define COLS (\d+)", f.read()).group(1))


@pytest.mark.parametrize(
    "dtype, shift", [(np.int16, 1 << 40), (np.int32, -(1 << 40)), (np.int64, -(1 << 62))], ids=["int16", "int32", "int64"]
)
def test_native_min_rects_matches_reference(dtype, shift):
    # the compiled kernel against numpy add+min, in each operand type, with
    # sums at the type's max (row 0 of A plus column 0 of B), on rectangles
    # of 1 to 7 and 12 rows (the accumulator's 4 rows, fewer, and 4 or 8
    # plus fewer), of widths below, at and above the accumulator's column
    # chunk, over inner ranges of one column and more, several of them in
    # one table: each gets its reference values, marked in the ledger, and
    # nothing outside the rectangles is written
    rng = np.random.default_rng(int(np.dtype(dtype).itemsize))
    top = int(np.iinfo(dtype).max)
    chunk = _column_chunk()
    m, k, n = 40, 24, 2 * chunk + 37
    b = rng.integers(0, top // 2 + 1, size=(k, n)).astype(dtype)
    a = rng.integers(0, top - top // 2 + 1, size=(m, k)).astype(dtype)
    a[0], b[:, 0] = top - top // 2, top // 2
    table = np.array(
        [
            (0, 1, 0, 1, 0, k),  # the entry whose every sum is the type's max
            (0, 1, 1, chunk, 3, 4),  # one inner column
            (1, 5, 0, chunk + 1, 0, k),
            (5, 12, chunk + 1, n, 2, 9),  # 7 rows, past two chunk edges
            (12, 15, 0, chunk, 0, 1),
            (15, 17, chunk, 2 * chunk, 5, k),
            (17, 22, 3, 40, 7, 8),
            (22, 28, n - 1, n, 0, k),  # one column
            (28, 40, n - 1, n, 1, k),
        ],
        dtype=np.int64,
    )
    out = np.full((m, n), mp.INF, dtype=np.int64)
    done = np.zeros((m, n), dtype=bool)
    assert mp.native.min_rects(a, b, table, out, done, shift) == -1
    assert out[0, 0] == top + shift
    written = np.zeros((m, n), dtype=bool)
    for (r0, r1, c0, c1, _, _), want in zip(table.tolist(), _reference_rects(a, b, table, shift)):
        assert np.array_equal(out[r0:r1, c0:c1], want)
        written[r0:r1, c0:c1] = True
    assert np.array_equal(done, written) and (out[~written] == mp.INF).all()
    # a rectangle that meets an entry written before is reported, and
    # neither it nor any after it is written
    more = np.array([(30, 31, 0, 2, 0, 1), (39, 40, n - 2, n, 0, 1), (29, 30, 0, 1, 0, 1)], dtype=np.int64)
    before = out.copy()
    assert mp.native.min_rects(a, b, more, out, done, shift) == 1
    assert np.array_equal(out[30, :2], _reference_rects(a, b, more[:1], shift)[0][0])
    assert np.array_equal(out[31:], before[31:]) and np.array_equal(out[29], before[29])
    assert not done[29, 0] and not done[39, n - 2]


def test_native_refuses_malformed_input(monkeypatch):
    # a table with a rectangle out of bounds or empty, even after a good
    # one, is refused in C before anything is written: ValueError, with
    # the outputs (out and done, approx and stats) byte for byte as they
    # were. Mismatched types, non-contiguous arrays and wrong shapes raise
    # before any C function is looked up
    rng = np.random.default_rng(11)
    a = rng.integers(0, 9, size=(8, 6)).astype(np.int16)
    b = rng.integers(0, 9, size=(6, 10)).astype(np.int16)
    out, done = rng.integers(-9, 9, size=(8, 10)), np.zeros((8, 10), dtype=bool)
    done[7, 9] = True
    good = [0, 2, 0, 4, 0, 6]
    bad_tables = [
        [[0, 9, 0, 10, 0, 6]],  # rows past a
        [[0, 8, 0, 11, 0, 6]],  # columns past b
        [[0, 8, 0, 10, 0, 7]],  # inner index past a's columns
        [[-1, 8, 0, 10, 0, 6]],  # negative start
        [[0, 8, 4, 4, 0, 6]],  # no columns
        [[0, 8, 0, 10, 3, 3]],  # an empty span
        [good, [7, 8, 9, 11, 0, 6]],  # a bad rectangle after a good one
    ]
    for rect in bad_tables:
        before = out.copy(), done.copy()
        with pytest.raises(ValueError, match="empty or out of bounds"):
            mp.native.min_rects(a, b, np.array(rect, dtype=np.int64), out, done, 0)
        assert np.array_equal(out, before[0]) and np.array_equal(done, before[1])
    x = rng.integers(0, 9, size=(2, 4, 4)).astype(np.int16)
    approx, stats = rng.integers(-9, 9, size=(4, 4)), rng.integers(-9, 9, size=(3, 4, 4)).astype(np.int32)
    bad_scan_tables = [
        [[0, 5, 0, 4, 0, 4]],  # rows past the grid
        [[0, 4, 0, 5, 0, 4]],  # columns past the grid
        [[0, 4, 0, 4, 1, 5]],  # scanned columns past the grid
        [[0, 4, -1, 4, 0, 4]],  # negative start
        [[2, 2, 0, 4, 0, 4]],  # no rows
        [[0, 4, 0, 4, 3, 3]],  # no scanned column
        [[0, 2, 0, 2, 0, 4], [0, 4, 3, 1, 0, 4]],  # a bad rectangle after a good one
        [[0, 4, 0, 4, 0, 4], [0, 4, 0, 4, 0, 5]],  # after one that covers the grid
    ]
    for rect in bad_scan_tables:
        before = approx.copy(), stats.copy()
        with pytest.raises(ValueError, match="empty or out of bounds"):
            mp.native.scan(x, np.array(rect, dtype=np.int64), 0, 1, 0, approx, stats)
        assert np.array_equal(approx, before[0]) and np.array_equal(stats, before[1])

    class NoCall:
        def __getattr__(self, name):
            raise AssertionError(f"{name} called")

    monkeypatch.setattr(mp.native, "_lib", NoCall())
    ok = np.array([[0, 8, 0, 10, 0, 6]], dtype=np.int64)
    for args in [
        (a, b.astype(np.int32), ok, out, done, 0),  # operand types differ
        (a.astype(np.int8), b, ok, out, done, 0),  # no kernel for the type
        (a, b, ok.astype(np.int32), out, done, 0),  # table type
        (a, b, ok.ravel(), out, done, 0),  # table shape
        (a, b, ok, out.astype(np.int32), done, 0),  # product type
        (a, b, ok, out, done.view(np.uint8), 0),  # ledger type
        (np.asfortranarray(a), b, ok, out, done, 0),  # non-contiguous
        (a, np.zeros((6, 20), dtype=np.int16)[:, ::2], ok, out, done, 0),
        (a, b, np.zeros((2, 12), dtype=np.int64)[:, ::2], out, done, 0),
        (a, b, ok, np.zeros((10, 8), dtype=np.int64).T, done, 0),
        (a, b[:5], ok, out, done, 0),  # shapes do not chain
        (a, b, ok, out, done[:7], 0),
        (a, b, ok, out, done, 1 << 63),  # shift past int64
    ]:
        with pytest.raises((TypeError, ValueError)):
            mp.native.min_rects(*args)
    whole = np.array([[0, 4, 0, 4, 0, 4]], dtype=np.int64)
    for args in [
        (x.astype(np.int8), whole, 0, 1, 0, approx, stats),  # no scan for the type
        (x[0], whole, 0, 1, 0, approx, stats),  # not two tables
        (np.zeros((3, 4, 4), dtype=np.int16), whole, 0, 1, 0, approx, stats),
        (np.zeros((2, 4, 8), dtype=np.int16)[:, :, ::2], whole, 0, 1, 0, approx, stats),  # non-contiguous
        (x, whole.astype(np.int32), 0, 1, 0, approx, stats),  # table type
        (x, np.zeros((2, 12), dtype=np.int64)[:, ::2], 0, 1, 0, approx, stats),
        (x, whole, 0, 1, 0, approx.astype(np.int32), stats),  # approx type
        (x, whole, 0, 1, 0, approx[:3], stats),
        (x, whole, 0, 1, 0, approx, stats.astype(np.int64)),  # stats type
        (x, whole, 0, 1, 0, approx, stats[:2]),
        (x, whole, 0, 1 << 15, 0, approx, stats),  # largest past int16
        (x, whole, -(1 << 15) - 1, 1, 0, approx, stats),  # cap past int16
        (x, whole, 0, 1, 1 << 63, approx, stats),  # shift past int64
    ]:
        with pytest.raises((TypeError, ValueError)):
            mp.native.scan(*args)
    mask, span = np.ones((4, 4), dtype=bool), np.zeros((4, 4), dtype=np.int32)
    for args in [
        (mask.view(np.uint8), span, span, 1),  # mask type
        (mask[0], span, span, 1),  # not 2-D
        (mask[:3], span[:3], span[:3], 1),  # not square
        (mask, span.astype(np.int64), span, 1),  # span type
        (mask, span, span[:, :3], 1),  # span shape
        (mask, span, np.zeros((4, 8), dtype=np.int32)[:, ::2], 1),  # non-contiguous
        (mask, span, span, 0),  # scale below 1
        (mask, span, span, 1 << 62),  # entries past int64
    ]:
        with pytest.raises((TypeError, ValueError)):
            mp.native.rectangles(*args)


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
def test_native_scan_matches_reference(dtype):
    # the compiled scan against numpy on a table of several rectangles, on
    # a grid wider than its column chunk: 2 x 2 rectangles of child pairs, a
    # rectangle over part of the block columns, a rectangle across the
    # chunk edge and one past it, and one pair whose minimum passes cap, so
    # its threshold is clamped at largest. Each pair of a rectangle gets the
    # minimum plus the shift, and the count, first and last admitted column
    # among the rectangle's block columns only; every other pair gets the
    # fill: INF, size 0, first nb and last -1. A table with a rectangle over
    # the whole grid, which skips the fill, still writes every pair
    rng = np.random.default_rng(3)
    chunk = _column_chunk()
    nb = chunk + 9
    top = 4000 if dtype == np.int16 else 1 << 20
    x = rng.integers(0, top // 2 + 1, size=(2, nb, nb)).astype(dtype)
    x[0, 20, 30] = x[1, 30, 20] = top // 2
    cap, largest, shift = top - 900, top, 1 << 40
    child = np.array(
        [
            (0, 2, 0, 2, 4, 10),  # child pairs over part of the columns
            (0, 2, 2, 4, 0, 2),
            (2, 4, 0, 2, 2, 9),
            (4, 9, 3, 11, 5, nb - 3),
            (10, 12, 0, nb, 0, nb),  # every column, past the chunk
            (12, 13, chunk - 3, nb, 7, chunk + 4),  # across the chunk edge
            (20, 21, 20, 21, 30, 31),  # one column, whose sum passes cap
        ],
        dtype=np.int64,
    )
    # the top scan's one rectangle over the whole grid, which skips the
    # fill, and the same after a rectangle it overwrites, on a small grid
    small, whole = x[:, :24, :24].copy(), np.array([(0, 24, 0, 24, 0, 24)], dtype=np.int64)
    for reps, table in ((x, child), (small, whole), (small, np.concatenate((child[:1], whole)))):
        nb = reps.shape[1]
        # outputs hold stale values, which the fill or the scan must replace
        approx = np.full((nb, nb), 12345, dtype=np.int64)
        stats = np.full((3, nb, nb), 777, dtype=np.int32)
        mp.native.scan(reps, table, cap, largest, shift, approx, stats)
        # the fill, then each rectangle in order: a later one overwrites
        want = [np.full((nb, nb), v, dtype=np.int64) for v in (mp.INF, 0, nb, -1)]
        for r0, r1, c0, c1, k0, k1 in table.tolist():
            sums = reps[0, r0:r1, k0:k1, None].astype(np.int64) + reps[1, None, k0:k1, c0:c1]  # [bi, bk, bj]
            m = sums.min(axis=1)
            ok = sums <= largest - np.maximum(cap - m, 0)[:, None]
            ks = np.arange(k0, k1)[None, :, None]
            want[0][r0:r1, c0:c1] = m + shift
            want[1][r0:r1, c0:c1] = ok.sum(axis=1)
            want[2][r0:r1, c0:c1] = np.where(ok, ks, nb).min(axis=1)
            want[3][r0:r1, c0:c1] = np.where(ok, ks, -1).max(axis=1)
        assert np.array_equal(approx, want[0]) and np.array_equal(stats, np.stack(want[1:]))
        assert (stats[0] > 1).any()
        assert (approx == mp.INF).any() == (table is child)
        if table is child:
            assert approx[20, 20] == top + shift and top > cap


@pytest.mark.parametrize("name", ["walk-64", "valley-256"])
def test_default_basic_product_makes_three_native_calls(monkeypatch, name):
    # on the benchmark's pairs at seed 7, with its engine seeds, a default
    # basic product makes one candidate scan, one grouping of its pairs and
    # one kernel call, in that order, whatever the pair: no native call, and
    # so no Python, runs per block pair
    workloads = _perfbench_workloads()
    calls = _recording_native(monkeypatch)
    for i, (a, b) in enumerate(workloads.make_pairs(workloads.WORKLOADS[name], 7)):
        calls.clear()
        got = mp.basic_minplus(a, b, AlgoParams(delta=a.delta, seed=workloads.engine_seed(7, i)))
        assert [f for f, _, _ in calls] == ["scan", "rectangles", "min_rects"]
        assert np.array_equal(calls[1][2], calls[2][2])
        assert np.array_equal(got.data, mp.dense_minplus(a.base, b.base).data)


def test_native_library_is_cached(monkeypatch, tmp_path):
    # a second build of the same source compiles nothing; a changed source
    # gets another cache name; a compiler that fails, or cannot run, gives
    # an ImportError with its command and error output, and leaves no file
    cache = mp.native.cache_dir()
    path = mp.native.build(mp.native.SOURCE, cache)
    assert os.path.exists(path)

    def refuse(*args, **kwargs):
        raise AssertionError("compiler run for a cached library")

    with monkeypatch.context() as m:
        m.setattr(subprocess, "run", refuse)
        assert mp.native.build(mp.native.SOURCE, cache) == path
    changed = tmp_path / "native.c"
    with open(mp.native.SOURCE) as f:
        changed.write_text(f.read() + "/* changed */\n")
    cc = mp.native.compiler()
    assert os.path.basename(mp.native.library_path(str(changed), cc, "d")) != os.path.basename(path)
    broken = tmp_path / "broken.c"
    broken.write_text("int f(void) { return undeclared_name; }\n")
    out = tmp_path / "cache"
    out.mkdir()
    with pytest.raises(ImportError, match="undeclared_name"):
        mp.native.build(str(broken), str(out))
    monkeypatch.setattr(mp.native, "compiler", lambda: ["no-such-compiler-here"])
    with pytest.raises(ImportError, match="no-such-compiler-here"):
        mp.native.build(str(broken), str(out))
    assert list(out.iterdir()) == []


def _recording_compiler(monkeypatch):
    """Route the loader's compiler runs through a recorder; returns the list
    of commands run."""
    runs = []
    real = subprocess.run

    def recording(cmd, *args, **kwargs):
        runs.append(cmd)
        return real(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", recording)
    return runs


def test_native_cache_is_the_users_alone(monkeypatch, tmp_path):
    # a package __pycache__ that others can write is passed over for the
    # user's cache directory, made private; where that is not private
    # either there is no cache, and the library is compiled into a private
    # temporary directory that is gone once it is loaded
    package = tmp_path / "package"
    (package / "__pycache__").mkdir(parents=True)
    (package / "__pycache__").chmod(0o777)
    monkeypatch.setattr(mp.native, "SOURCE", str(package / "native.c"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    user = tmp_path / "xdg" / "minplus"
    assert mp.native.cache_dir() == str(user)
    assert user.stat().st_mode & 0o777 == 0o700
    user.chmod(0o770)
    assert mp.native.cache_dir() is None
    source = tmp_path / "tiny.c"
    source.write_text("int tiny(void) { return 1; }\n")
    loaded = []

    def bind(path):
        assert mp.native.private(os.path.dirname(path))
        assert mp.native.private(path, stat.S_ISREG)
        loaded.append(path)

    monkeypatch.setattr(mp.native, "_load", bind)
    mp.native.load(str(source))
    assert len(loaded) == 1 and not os.path.exists(os.path.dirname(loaded[0]))


@pytest.mark.parametrize("planted", ["writable", "foreign"])
def test_native_cache_refuses_a_planted_library(monkeypatch, tmp_path, planted):
    # a cached library that others can write, or that another user owns, is
    # never returned for loading: it is compiled anew over it
    source = tmp_path / "tiny.c"
    source.write_text("int tiny(void) { return 1; }\n")
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    path = mp.native.build(str(source), str(cache))
    assert mp.native.private(path, stat.S_ISREG)
    runs = _recording_compiler(monkeypatch)
    assert mp.native.build(str(source), str(cache)) == path and runs == []
    if planted == "writable":
        os.chmod(path, 0o777)
    else:
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    assert not mp.native.private(path, stat.S_ISREG)
    assert mp.native.build(str(source), str(cache)) == path and len(runs) == 1
    if planted == "writable":
        assert mp.native.private(path, stat.S_ISREG)


def _perfbench_workloads():
    """The benchmark's workload generators (``perfbench/workloads.py``)."""
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # registered first: its dataclasses look their module up
    return module


def test_benchmark_valley_products_take_one_gemm_rectangle(monkeypatch):
    # the benchmark's valley-256 pairs at seed 7, with its engine seeds:
    # each product makes one kernel call, whose table of rectangles tiles
    # the whole product, over spans that prune (no rectangle reduces over
    # every column), and equals the dense product; the kernel and the
    # candidate scan run in int16
    workloads = _perfbench_workloads()
    w = workloads.WORKLOADS["valley-256"]
    calls = _recording_native(monkeypatch)
    for i, (a, b) in enumerate(workloads.make_pairs(w, 7)):
        calls.clear()
        got = mp.basic_minplus(a, b, AlgoParams(delta=a.delta, seed=workloads.engine_seed(7, i)))
        rects = [table for f, _, table in calls if f == "min_rects"]
        assert len(rects) == 1 and {d for f, d, _ in calls if f != "rectangles"} == {np.dtype(np.int16)}
        r0, r1, c0, c1, k0, k1 = rects[0].T
        assert ((r1 - r0) * (c1 - c0)).sum() == a.n * a.n
        assert (k1 - k0 < a.n).all()
        assert np.array_equal(got.data, mp.dense_minplus(a.base, b.base).data)


def test_min_blocks_rejects_empty_span():
    # a pair whose span is empty, or leaves the block columns, is refused
    # by the compiled grouping before the kernel writes anything
    z = np.zeros((4, 4), dtype=np.int64)
    c, done = z.copy(), z > 0
    for lo, hi in [(1, 0), (-1, 0), (0, 2)]:
        with pytest.raises(mp.InvariantError):
            _min_blocks(KernelOperands(z, z, 0), 2, *_pair_tables(2, np.array([[0, 0]]), [lo], [hi]), c, done)
    assert not done.any()


def test_kernel_writes_every_entry_once_per_level(monkeypatch):
    # on the paper's schedule a valley pair has sampled and pending pairs at
    # l = 2 and, refined, at l = 1; each level that finishes pairs, the
    # sampled ones and at the last level the tail too, hands them to the
    # compiled kernel in one call, and the calls' rectangles cover the
    # n*n product entries exactly once: no entry is written outside it
    calls = _recording_native(monkeypatch)
    n = 128
    a, b = valley_bd(n, 2, n + 2)
    params = AlgoParams(delta=2, alpha=0.9, beta=0.6, seed=7, l_min=1)
    want = mp.minplus_naive(a.base, b.base).data
    for f, n_calls in ((mp.basic_minplus, 1), (mp.recursive_minplus, 2)):
        calls.clear()
        trace = []
        assert np.array_equal(f(a, b, params, level_trace=trace).data, want)
        assert [s.block_len for s in trace] == [2, 1][:n_calls]
        assert all(s.assigned and len(s.pending) for s in trace)
        tables = [table for name, _, table in calls if name == "min_rects"]
        assert len(tables) == n_calls
        cover = np.zeros((n, n), dtype=np.int64)
        for r0, r1, c0, c1, _, _ in np.concatenate(tables).tolist():
            cover[r0:r1, c0:c1] += 1
        assert (cover == 1).all()


@pytest.mark.parametrize(
    "top, dtype", [(32767, np.int16), (32768, np.int32), ((1 << 31) - 1, np.int32), (1 << 31, np.int64)]
)
def test_kernel_operands_narrowest_type(top, dtype):
    # the kernel operands start at 0 and take the narrowest type whose max
    # holds span(A) + span(B), the largest shifted sum; the spans are
    # uneven and the minima far from 0, so only the spans decide
    lo_a, lo_b = (1 << 60) - top, -(1 << 59)
    a = np.array([[lo_a + 1, lo_a + top // 3], [lo_a, lo_a + 5]])
    b = np.array([[lo_b, lo_b + 2], [lo_b + top - top // 3, lo_b + 7]])
    kern = kernel_operands(Matrix(a), Matrix(b))
    assert kern.a.dtype == dtype and kern.b.dtype == dtype
    assert kern.shift == lo_a + lo_b
    assert int(kern.a.max()) + int(kern.b.max()) == top
    assert np.array_equal(kern.a.astype(np.int64) + lo_a, a) and np.array_equal(kern.b.astype(np.int64) + lo_b, b)


def test_kernel_operands_beyond_int64():
    # a shifted sum that int64 cannot hold is refused, not wrapped: only
    # operands beyond the operand cap have one (here span(A) + span(B) =
    # 2**63, from the widest matrices there are), and the cap check refuses
    # them before they are shifted
    a = np.array([[-(1 << 61), 1 << 61]])
    for x, y, name in [(a, a, "a"), (np.array([[0, 1]]), a, "b")]:
        with pytest.raises(ValueError, match=f"{name}: product operands"):
            kernel_operands(Matrix(x), Matrix(y))


def _offset_pair(a, b):
    """The pair moved to the ends of the operand range: A's maximum at
    2**60 and B's minimum at -2**60."""
    ad, bd = a.base.data, b.base.data
    shifted = ad + (mp.MAX_OPERAND - ad.max()), bd - (mp.MAX_OPERAND + bd.min())
    return (mp.BDMatrix(Matrix(x), a.delta) for x in shifted)


@pytest.mark.parametrize(
    "case, dtype",
    [
        ("walk-offset", np.int16),
        ("valley-offset", np.int16),
        ("walk-wide", np.int32),
        ("valley-slices", np.int16),
        ("flat-rows", np.int64),
    ],
)
def test_engines_exact_in_every_kernel_type(monkeypatch, case, dtype):
    # every engine, and the recursion down to single entries, is bitwise equal
    # to naive whatever type its kernels run in, and every native call, the
    # block kernel's and the candidate scans', runs in that type. The offset
    # pairs sit near +-2**60 and shift down to int16; the wide walk (delta
    # 3000, seeds 3 and 4, the pair the CI command line runs) spans more than
    # int16 holds, so it runs in int32; the valley at delta 5 and n = 256 runs
    # in int16 over pruned spans. The flat rows (A[i, k] = i * 2**53, B[k, j]
    # = j * 2**53) span more than int32 holds, so they run in int64, with sums
    # up to 2**61. Each runs at the defaults and at the paper's beta, which
    # samples
    calls = _recording_native(monkeypatch)
    if case == "walk-offset":
        a, b = _offset_pair(mp.generate_bd(64, 2, 5), mp.generate_bd(64, 2, 6))
    elif case == "valley-offset":
        a, b = _offset_pair(*valley_bd(128, 2, 9))
    elif case == "walk-wide":
        a, b = mp.generate_bd(64, 3000, 3), mp.generate_bd(64, 3000, 4)
    elif case == "valley-slices":
        a, b = valley_bd(256, 5, 9)
    else:
        rows = np.arange(128, dtype=np.int64)[:, None] << 53
        a, b = (mp.BDMatrix(Matrix(x), (1 << 53) + 1) for x in (rows.repeat(128, 1), rows.T.repeat(128, 0)))
    assert kernel_operands(a.base, b.base).a.dtype == dtype
    want = mp.minplus_naive(a.base, b.base).data
    for params in (
        AlgoParams(delta=a.delta, seed=7),
        AlgoParams(delta=a.delta, seed=7, beta=0.6),
        AlgoParams(delta=a.delta, seed=7, beta=0.6, l_min=1),
    ):
        assert np.array_equal(mp.basic_minplus(a, b, params).data, want)
        assert np.array_equal(mp.recursive_minplus(a, b, params).data, want)
    assert np.array_equal(mp.dense_minplus(a.base, b.base).data, want)
    assert {f for f, _, _ in calls} == {"min_rects", "scan", "rectangles"}
    assert {d for f, d, _ in calls if f != "rectangles"} == {np.dtype(dtype)}


def test_one_operand_preparation_per_product(monkeypatch):
    # each product makes its kernel operands once, in the top candidate
    # scan, however many levels it scans: at the defaults, with child
    # levels down to single entries (the walk's pairs of l = 4 are
    # refined), and on the paper's schedule, whose valley levels below the
    # top are scanned as well
    made = []
    real = mp.blocking.kernel_operands

    def counting(x, y):
        made.append(real(x, y))
        return made[-1]

    monkeypatch.setattr(mp.blocking, "kernel_operands", counting)
    calls = _recording_native(monkeypatch)
    walk = mp.generate_bd(64, 2, 1), mp.generate_bd(64, 2, 2)
    for (a, b), kw in [
        (walk, {}),
        (walk, {"l_min": 1}),
        (valley_bd(128, 2, 3), {"alpha": 0.9, "beta": 0.6, "l_min": 1}),
    ]:
        params = AlgoParams(delta=a.delta, seed=7, **kw)
        want = mp.minplus_naive(a.base, b.base).data
        for f in (mp.basic_minplus, mp.recursive_minplus):
            made.clear()
            calls.clear()
            trace = []
            assert np.array_equal(f(a, b, params, level_trace=trace).data, want)
            assert len(made) == 1
            scanned = 1 + sum(1 for prev in trace[:-1] if len(prev.pending))
            assert sum(1 for name, _, _ in calls if name == "scan") == scanned
            assert scanned > 1 or f is mp.basic_minplus or "l_min" not in kw
        assert made[0].a.dtype == np.int16


def test_invariants_survive_optimize():
    # exactness guards raise explicitly, so python -O keeps them
    script = """
import numpy as np
from minplus import InvariantError
from minplus.basic import _min_blocks, build_segments
from minplus.blocking import KernelOperands
z = np.zeros((8, 8), dtype=np.int64)
# the spans native.scan leaves on a pair it did not scan: lo = nb, hi = -1
unscanned = np.full((4, 4), 4, dtype=np.int32), np.full((4, 4), -1, dtype=np.int32)
big = np.zeros((8, 8), dtype=np.int64)
big[:, 4:] = 1 << 40
caught = []
try:
    build_segments(big, z, 2, 1, 0)
except InvariantError:
    caught.append("key range")
try:
    _min_blocks(KernelOperands(z, z, 0), 2, np.eye(4, dtype=bool), *unscanned, z.copy(), z > 0)
except InvariantError:
    caught.append("unscanned pair")
# one pair twice: its second rectangle overlaps the first, which the
# native kernel reports and the kernel refuses; an empty span, which the
# compiled grouping refuses
y = np.zeros((8, 8), dtype=np.int16)
one = np.zeros((4, 4), dtype=bool)
one[1, 1] = True
lo, hi = np.zeros((4, 4), dtype=np.int32), np.full((4, 4), 3, dtype=np.int32)
c, done = z.copy(), z > 0
_min_blocks(KernelOperands(y, y, 0), 2, one, lo, hi, c, done)
try:
    _min_blocks(KernelOperands(y, y, 0), 2, one, lo, hi, c, done)
except InvariantError:
    caught.append("block finalized twice")
try:
    _min_blocks(KernelOperands(y, y, 0), 2, one, hi, lo, z.copy(), z > 0)
except InvariantError:
    caught.append("empty span")
print(__debug__, caught)
"""
    src = os.path.dirname(os.path.dirname(mp.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False ['key range', 'unscanned pair', 'block finalized twice', 'empty span']"
