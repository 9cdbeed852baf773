import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minplus as mp
from minplus import AlgoParams, Counters, Matrix, basic
from minplus.basic import NeededBlocks, build_segments, derived_rng, encode_keys
from minplus.recursive import (
    allocate_recursive,
    allocate_top,
    collision_audit,
    colocated_pairs,
    collisions_incremental,
    cross_check_count,
)

from conftest import candidate_mask, check_candidate_sets, two_valley_bd, valley_bd
from packed_reference import collisions_exhaustive


def _chain_tree(seed, levels=2, top_slots=1):
    rng = np.random.default_rng(seed)
    keys = np.array([[0, 0]], dtype=np.int64)
    tree = allocate_top(keys, 1 << levels, top_slots, rng)
    for _ in range(levels):
        tree = allocate_recursive(tree, keys, rng)
    return tree


def test_chain_frequency_uniform():
    # a single segment refined twice lands uniformly among 4**2 slots
    trials = 10_000
    counts = np.zeros(16, dtype=np.int64)
    for seed in range(trials):
        tree = _chain_tree(seed)
        counts[int(tree.leaf.slots[0])] += 1
    p = 1 / 16
    sigma = math.sqrt(trials * p * (1 - p))
    assert np.abs(counts - trials * p).max() <= 5 * sigma


def test_children_of_distinct_slots_disjoint():
    rng = np.random.default_rng(0)
    keys = np.array([[0, 0], [2, 0]], dtype=np.int64)  # distinct parents
    tree = allocate_top(keys, 4, 16, rng)
    child = np.array([[0, 0], [4, 0]], dtype=np.int64)
    for seed in range(50):
        t2 = allocate_recursive(tree, child, np.random.default_rng(seed))
        if tree.levels[0].slots[0] != tree.levels[0].slots[1]:
            assert t2.leaf.slots[0] != t2.leaf.slots[1]


def _shared_slots_loop(slots):
    """Per slot holding two or more indices, in slot order: the slot and its
    indices in index order."""
    order = np.argsort(slots, kind="stable")
    ss = slots[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(ss)) + 1, [len(ss)]])
    for g0, g1 in zip(starts[:-1], starts[1:]):
        if g1 - g0 >= 2:
            yield int(ss[g0]), order[g0:g1]


def _colocated_pairs_loop(slots):
    """Reference: each shared slot's ordered pairs by repeat/tile."""
    rows = [np.empty((0, 3), dtype=np.int64)]
    for slot, idx in _shared_slots_loop(slots):
        p = np.repeat(idx, len(idx))
        q = np.tile(idx, len(idx))
        keep = p != q
        rows.append(np.stack([np.full(int(keep.sum()), slot, dtype=np.int64), p[keep], q[keep]], 1))
    return np.concatenate(rows, 0)


def _cross_check_loop(slots, a_sizes, b_sizes):
    total = 0
    for _, idx in _shared_slots_loop(slots):
        asz, bsz = a_sizes[idx], b_sizes[idx]
        total += int(asz.sum()) * int(bsz.sum()) - int((asz * bsz).sum())
    return total


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5) | st.integers(0, 1 << 16), max_size=40), st.integers(0, 2**32))
@example([], 0)  # empty
@example(list(range(9)), 1)  # every index alone in its slot
@example([3] * 7, 2)  # one slot holds everything
def test_slot_search_matches_per_slot_loop(slots, seed):
    # the vectorised search and count equal the per-slot loops, rows in the
    # same order
    slots = np.array(slots, dtype=np.int64)
    rng = np.random.default_rng(seed)
    a_sizes = rng.integers(0, 50, size=len(slots))
    b_sizes = rng.integers(0, 50, size=len(slots))
    got = colocated_pairs(slots)
    assert got.shape[1] == 3
    assert np.array_equal(got, _colocated_pairs_loop(slots))
    assert cross_check_count(slots, a_sizes, b_sizes) == _cross_check_loop(slots, a_sizes, b_sizes)


def test_slot_counts_quadruple():
    tree = _chain_tree(1, levels=3, top_slots=5)
    counts = [lv.slot_count for lv in tree.levels]
    assert counts == [5, 20, 80, 320]


def test_allocate_recursive_missing_parent():
    rng = np.random.default_rng(0)
    tree = allocate_top(np.array([[0, 0]], dtype=np.int64), 2, 4, rng)
    with pytest.raises(ValueError):
        allocate_recursive(tree, np.array([[5, 0]], dtype=np.int64), rng)


def test_incremental_empty():
    # one parent per slot and each child alone in its slot: nothing to emit
    rng = np.random.default_rng(3)
    tree = allocate_top(np.array([[0, 0]], dtype=np.int64), 2, 4, rng)
    tree = allocate_recursive(tree, np.array([[0, 0]], dtype=np.int64), rng)
    out = collisions_incremental(np.empty((0, 3), dtype=np.int64), tree, 1)
    assert len(out) == 0


def test_incremental_constructed_split():
    # one parent collision; the children that happen to co-locate are exactly
    # the emitted pairs
    parents = np.array([[0, 0], [1, 0]], dtype=np.int64)
    children = np.array([[0, 0], [1, 1], [2, 0], [3, 1]], dtype=np.int64)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        tree = allocate_top(parents, 4, 1, rng)  # both parents in slot 0
        tree = allocate_recursive(tree, children, rng)
        parent_cols = collisions_exhaustive(tree, 0)
        assert len(parent_cols) == 2
        inc = collisions_incremental(parent_cols, tree, 1)
        exh = collisions_exhaustive(tree, 1)
        assert set(map(tuple, inc.tolist())) == set(map(tuple, exh.tolist()))


def _segment_node_levels(keys_t, depth):
    out = []
    for j in range(depth + 1):
        sh = depth - j
        kj = np.stack([keys_t[:, 0] >> sh, keys_t[:, 1] >> sh], 1)
        enc = encode_keys(kj[:, 0], kj[:, 1])
        _, first = np.unique(enc, return_index=True)
        out.append(kj[first])
    return out


def test_incremental_equals_exhaustive_random(pool):
    for seed in range(8):
        n, delta, l0, l = 64, 2, 4, 1
        a, b = pool.pair(n, delta, 40 + seed)
        ad, bd = a.base.data, b.base.data
        seg_a, _, _ = build_segments(ad, bd, l, delta, 8)
        depth = int(math.log2(l0 // l))
        uk = _segment_node_levels(seg_a.keys, depth)
        rng = derived_rng(seed, 99)
        tree = allocate_top(uk[0], l0, 10, rng)
        for j in range(1, depth + 1):
            tree = allocate_recursive(tree, uk[j], rng)
        pairs = collisions_exhaustive(tree, 0)
        for j in range(1, depth + 1):
            inc = collisions_incremental(pairs, tree, j)
            exh = collisions_exhaustive(tree, j)
            assert set(map(tuple, inc.tolist())) == set(map(tuple, exh.tolist()))
            pairs = exh


def test_tree_heredity(pool):
    # co-located nodes at a fine level have co-located parents
    n, delta, l0, l = 64, 2, 4, 1
    a, b = pool.pair(n, delta, 50)
    ad, bd = a.base.data, b.base.data
    seg_a, _, _ = build_segments(ad, bd, l, delta, 0)
    depth = int(math.log2(l0 // l))
    uk = _segment_node_levels(seg_a.keys, depth)
    rng = derived_rng(7, 98)
    tree = allocate_top(uk[0], l0, 6, rng)
    for j in range(1, depth + 1):
        tree = allocate_recursive(tree, uk[j], rng)
    for j in range(1, depth + 1):
        lev = tree.levels[j]
        par = tree.levels[j - 1]
        for slot, ia, ib in collisions_exhaustive(tree, j):
            assert par.slots[lev.parent[ia]] == par.slots[lev.parent[ib]]
            assert lev.slots[ia] // 4 == par.slots[lev.parent[ia]]


# --- end to end ---------------------------------------------------------------


def test_recursive_tiny():
    a = mp.generate_bd(2, 2, 0)
    b = mp.generate_bd(2, 2, 1)
    got = mp.recursive_minplus(a, b, AlgoParams(delta=2))
    assert got == mp.minplus_naive(a.base, b.base)


def test_recursive_single_entry():
    a = mp.BDMatrix(Matrix(np.array([[5]])), 1)
    b = mp.BDMatrix(Matrix(np.array([[-2]])), 1)
    assert mp.recursive_minplus(a, b, AlgoParams(delta=1)) == Matrix([[3]])


def test_recursive_matches_naive_sweep(pool):
    for delta in (1, 2, 5):
        params = AlgoParams(delta=delta, seed=2, beta=0.6)  # the paper's beta: sampled
        for seed in range(10):
            a, b = pool.pair(64, delta, seed)
            assert mp.recursive_minplus(a, b, params) == pool.naive(64, delta, seed)


@pytest.mark.parametrize("alpha", [0.9, 0.6])
def test_paper_schedule_matches_naive_sweep(pool, alpha):
    # the default floor keeps the recursive engine at the top level up to
    # n = 2048; the paper's descent to single entries (l_min = 1) stays
    # exact on the walk grid of the acceptance gate, with ten seeds at n = 64
    # as the default-parameter sweep above ran before the floor
    for n in (32, 64, 128):
        for delta in (1, 2, 5):
            params = AlgoParams(delta=delta, alpha=alpha, seed=4, l_min=1)
            for seed in range(10 if n == 64 else 3):
                a, b = pool.pair(n, delta, seed)
                trace = []
                assert mp.recursive_minplus(a, b, params, level_trace=trace) == pool.naive(n, delta, seed)
                assert [s.block_len for s in trace] == params.levels(n)


@pytest.mark.parametrize("l_min", [2, 4])
@pytest.mark.parametrize("delta", [2, 5])
def test_tail_at_floor_above_one_is_exact(delta, l_min):
    # a floor above 1 ends the descent at a CSR level, whose pending pairs
    # are enumerated there from their stored columns
    tails = []
    for n in (64, 128, 256):
        a, b = valley_bd(n, delta, n + delta)
        params = AlgoParams(delta=delta, alpha=0.6, beta=0.6, seed=7, l_min=l_min)
        trace = []
        assert mp.recursive_minplus(a, b, params, level_trace=trace) == mp.minplus_naive(a.base, b.base)
        assert [s.block_len for s in trace] == params.levels(n)
        if len(trace) > 1:
            tails.append(len(trace[-1].pending))
    assert max(tails) > 0


def test_recursive_deeper_levels(pool):
    params = AlgoParams(delta=2, alpha=0.6, seed=3, l_min=1)
    for seed in range(5):
        a, b = pool.pair(64, 2, seed)
        trace = []
        got = mp.recursive_minplus(a, b, params, level_trace=trace)
        assert got == pool.naive(64, 2, seed)
        assert [s.block_len for s in trace] == [4, 2, 1]


def test_recursive_skips_empty_levels(pool, monkeypatch):
    # on a walk every pair is active at l0 = 2, so the l = 1 level has no
    # open pair: it computes no candidate sets but stays, empty, in the trace
    calls = []
    real = basic.candidate_sets

    def counting(a, b, l):
        calls.append(l)
        return real(a, b, l)

    monkeypatch.setattr(basic, "candidate_sets", counting)
    a, b = pool.pair(64, 2, 0)
    trace = []
    got = mp.recursive_minplus(a, b, AlgoParams(delta=2, alpha=0.9, seed=7, l_min=1), level_trace=trace)
    assert got == pool.naive(64, 2, 0)
    assert calls == [2]
    assert [s.block_len for s in trace] == [2, 1]
    last = trace[-1]
    assert last.active.shape == last.pending.shape == (0, 2) and last.assigned == {}
    # on a valley pair every level below the top has open pairs, yet only
    # the top runs the full scan: finer levels scan their parents' candidates
    calls.clear()
    a, b = valley_bd(128, 2, 130)
    trace = []
    got = mp.recursive_minplus(a, b, AlgoParams(delta=2, alpha=0.6, seed=7, l_min=1), level_trace=trace)
    assert got == mp.minplus_naive(a.base, b.base)
    assert [s.block_len for s in trace] == [8, 4, 2, 1]
    assert all(len(s.pending) for s in trace)
    assert calls == [8]


@pytest.mark.parametrize("alpha", [0.9, 0.6])
@pytest.mark.parametrize("delta", [1, 2, 5])
@pytest.mark.parametrize("family", ["walk", "valley", "two-valley"])
def test_level_child_sets_equal_dense_sets(pool, monkeypatch, family, delta, alpha):
    # below the top, a level scans only the child columns under its
    # parents' candidate spans; by the nesting lemma (blocking docstring)
    # its minima, counts and spans are the full scan's on every child pair,
    # as the test-side reference mask gives them. alpha = 0.6 gives l0 = 8,
    # so the levels at l = 4 and 2 read the spans of a scanned level; on two
    # valleys the parents' spans hold gaps. The scan stacks child pairs into
    # rectangles over the union of their parents' child columns: on the
    # valleys at delta > 1 some pair's rectangle scans columns past its own
    # parent's, the case the lemma makes exact
    n = 128
    if family == "walk":
        a, b = pool.pair(n, delta, 2)
    else:
        a, b = (valley_bd if family == "valley" else two_valley_bd)(n, delta, n + delta)
    scans, tables = [], []
    real, real_scan = basic.child_sets, mp.native.scan

    def recording(l, parents, spans):
        cs = real(l, parents, spans)
        scans.append((l, parents, cs))
        pi, pj = np.nonzero(parents)
        own = np.zeros((n // l, n // l, 2), dtype=np.int64)  # each child's own columns
        for di in (0, 1):
            for dj in (0, 1):
                own[2 * pi + di, 2 * pj + dj] = np.stack((2 * spans.lo[pi, pj], 2 * spans.hi[pi, pj] + 2), axis=1)
        tables.append((tables.pop(), own))  # the table of the scan just made
        return cs

    def recording_scan(x, table, *args):
        tables.append(table.copy())
        return real_scan(x, table, *args)

    monkeypatch.setattr(basic, "child_sets", recording)
    monkeypatch.setattr(mp.native, "scan", recording_scan)
    params = AlgoParams(delta=delta, alpha=alpha, seed=7, l_min=1)
    trace = []
    want = mp.minplus_naive(a.base, b.base).data
    assert np.array_equal(mp.recursive_minplus(a, b, params, level_trace=trace).data, want)
    assert [l for l, _, _ in scans] == [cur.block_len for prev, cur in zip(trace, trace[1:]) if len(prev.pending)]
    widened = 0
    for table, own in tables[1:]:
        for r0, r1, c0, c1, k0, k1 in table.tolist():
            members = own[r0:r1, c0:c1]
            assert (members[..., 0] >= k0).all() and (members[..., 1] <= k1).all()
            widened += int(((members[..., 0] > k0) | (members[..., 1] < k1)).sum())
    assert widened > 0 or family == "walk" or delta == 1
    for l, parents, cs in scans:
        eligible = np.repeat(np.repeat(parents, 2, 0), 2, 1)
        check_candidate_sets(cs, a, b, eligible)
        assert (cs.approx.data[~eligible] == mp.INF).all() and (cs.sizes[~eligible] == 0).all()
        # the fallback and the tail: the kernel over the candidate spans
        # (at block length 1 too) gives the product's blocks, and the sizes
        # the counters add count the candidates
        c, done = np.full((n, n), mp.INF, dtype=np.int64), np.zeros((n, n), dtype=bool)
        basic._min_blocks(cs.kern, l, eligible, cs.lo, cs.hi, c, done)
        written = np.repeat(np.repeat(eligible, l, 0), l, 1)
        assert np.array_equal(done, written) and np.array_equal(c[written], want[written])
        assert cs.sizes[eligible].sum() == candidate_mask(a, b, l)[0][eligible].sum()


def test_fallback_below_top_is_exact(monkeypatch):
    # with every sampled column missing, each level's active pairs fall
    # back to enumerating their candidate spans at l = 8, 4, 2 and 1
    real = basic.sample_r

    def sample_nothing(cands, params, active=None, level=0):
        r_cols, _ = real(cands, params, active, level)
        return r_cols, NeededBlocks(gamma={}, missed=active)

    monkeypatch.setattr(basic, "sample_r", sample_nothing)
    a, b = valley_bd(128, 2, 130)
    params = AlgoParams(delta=2, alpha=0.6, beta=0.6, seed=7, l_min=1)
    counters = Counters()
    trace = []
    assert mp.recursive_minplus(a, b, params, counters=counters, level_trace=trace) == mp.minplus_naive(a.base, b.base)
    assert [(s.block_len, len(s.active) > 0) for s in trace] == [(8, False), (4, True), (2, True), (1, True)]
    assert counters.fallback_pairs == sum(len(s.active) for s in trace)


def test_recursive_level_exponents(pool):
    # per level: theta with l = n**(1-theta)
    a, b = pool.pair(64, 2, 0)
    params = AlgoParams(delta=2, seed=0)
    trace = []
    mp.recursive_minplus(a, b, params, level_trace=trace)
    n = 64
    for st in trace:
        theta = 1 - math.log2(st.block_len) / math.log2(n)
        assert st.theta == pytest.approx(theta)


def test_recursive_deterministic(pool):
    a, b = pool.pair(64, 2, 11)
    params = AlgoParams(delta=2, seed=77, beta=0.6)  # the sampled stage draws from the seed
    c1, c2 = Counters(), Counters()
    r1 = mp.recursive_minplus(a, b, params, counters=c1)
    r2 = mp.recursive_minplus(a, b, params, counters=c2)
    assert r1 == r2 and c1 == c2


def test_recursive_level_partition(pool):
    # every surviving pair is either active at its level or refined onward;
    # pairs at the next level descend from this level's pending pairs
    a, b = pool.pair(64, 2, 13)
    params = AlgoParams(delta=2, alpha=0.6, seed=5, l_min=1)
    trace = []
    mp.recursive_minplus(a, b, params, level_trace=trace)
    for prev, cur in zip(trace, trace[1:]):
        pend = {tuple(p) for p in prev.pending}
        for bi, bj in np.concatenate([cur.active, cur.pending]):
            assert (bi // 2, bj // 2) in pend
        act = {tuple(p) for p in prev.active}
        assert not (act & pend)


def test_recursive_counter_monotonicity(pool):
    a, b = pool.pair(128, 1, 0)  # flat instance exercises the sampled path
    params = AlgoParams(delta=1, seed=1, beta=0.6)
    counters = Counters()
    trace = []
    got = mp.recursive_minplus(a, b, params, counters=counters, level_trace=trace)
    assert got == pool.naive(128, 1, 0)
    collision_audit(a, b, params, trace, counters)
    assert 0 < counters.collision_checks
    assert counters.collisions_found <= counters.collision_checks


@pytest.mark.parametrize("engine", ["basic", "recursive"])
def test_audit_fills_collision_counters(pool, engine):
    # products leave the collision counters at zero; the audit fills them
    a, b = pool.pair(64, 2, 4)
    params = AlgoParams(delta=2, seed=9, beta=0.6)  # the paper's beta: sampled
    counters = Counters()
    trace = []
    if engine == "basic":
        mp.basic_minplus(a, b, params, counters, trace)
    else:
        mp.recursive_minplus(a, b, params, counters=counters, level_trace=trace)
    assert (counters.collision_checks, counters.collisions_found, counters.max_large_slots) == (0, 0, 0)
    work = (counters.block_products, counters.fallback_pairs, counters.poly_degree_ops)
    collision_audit(a, b, params, trace, counters)
    assert counters.collision_checks > 0 and counters.collisions_found > 0 and counters.max_large_slots > 0
    assert (counters.block_products, counters.fallback_pairs, counters.poly_degree_ops) == work


def test_recursive_audited_counters_golden():
    # counters and per-level pairs of the earlier implementation with
    # separate basic and recursive loops, on a fixed pair and seed
    a, b = valley_bd(64, 5, 0)
    params = AlgoParams(delta=5, alpha=0.9, beta=0.6, seed=0, l_min=1)
    counters = Counters()
    trace = []
    got = mp.recursive_minplus(a, b, params, counters=counters, level_trace=trace)
    collision_audit(a, b, params, trace, counters)
    assert got == mp.minplus_naive(a.base, b.base)
    assert [(st.block_len, len(st.active), len(st.pending)) for st in trace] == [(2, 108, 916), (1, 1662, 2002)]
    assert counters.block_products == 0
    assert counters.fallback_pairs == 0
    assert counters.poly_degree_ops == 124960
    assert counters.collision_checks == 6276594
    assert counters.collisions_found == 615


@pytest.mark.parametrize("delta", [2, 5])
def test_recursive_peak_memory(delta):
    # no level holds an (n/l)**3 array: candidate sets keep (n/l)**2 words a
    # field, and every sum and bucket sum is built in bounded chunks, never
    # all at once
    n = 128
    a, b = valley_bd(n, delta, 7)
    params = AlgoParams(delta=delta, beta=0.6)  # the paper's beta: bucket sums too
    tracemalloc.start()
    try:
        mp.recursive_minplus(a, b, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * n**3


def test_recursive_memory_below_cubic():
    # no level holds (n/l)**3 of anything: on a valley pair at n = 512 the
    # l = 1 level keeps (n/l)**2 words a field, so the whole product stays
    # under n**3 bytes (a dense l = 1 mask alone would be n**3); at
    # alpha = 0.9 (l0 = 2, nearly every top pair refined to l = 1) it stays
    # under n**3 / 4
    n = 512
    a, b = valley_bd(n, 2, n + 2)
    want = mp.minplus_naive(a.base, b.base)
    for alpha, bound in ((0.7, n**3), (0.9, n**3 / 4)):
        tracemalloc.start()
        try:
            got = mp.recursive_minplus(a, b, AlgoParams(delta=2, alpha=alpha, beta=0.6, l_min=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert got == want
