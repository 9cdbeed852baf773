"""Block machinery: representative grids and candidate sets per block
pair, with the representative approximation matrix they are cut from.

Indexing is 0-based throughout; the representative of block index b at
block length l is row/column b*l (the upper-left entry of the block).
Argmin ties always break toward the smallest index.

A block pair's candidates are the block columns whose representative sums
come within 8*delta*l of their minimum. ``CandidateSets`` keeps, per pair,
that minimum, the number of candidates and the span from the first to the
last candidate: one (n/l)**2 array each, and no per-column set. Every block
holding an optimal witness is a candidate (candidate soundness), so a
minimum over the span, or over any larger set of block columns, is the
product entry; the block kernel and the next level's scan read spans only.
A span adds no columns where a pair's candidates form one run, as on every
valley pair measured; a pair whose candidates lie far apart pays for the
columns between them.

The top level scans every representative triple (``candidate_sets``) in
one compiled loop (``native.scan``) that keeps no sums. A level at block
length l/2 scans only the child columns under its parents' spans
(``child_sets``); its exactness rests on the nesting lemma below, which
makes these the same counts, spans and minima as a full scan
(``test_level_child_sets_equal_dense_sets`` in ``tests/test_recursive.py``
checks it level by level, ``test_child_candidates_inside_parent`` the lemma
itself).

Nesting lemma. Take a child pair (i', j') and child column k' at length
l/2, with parent pair (i'//2, j'//2) and column k'//2. Child and parent
representatives are at most l/2 apart on each index and adjacent entries
differ by at most delta-1, so a child representative sum is within
2*(delta-1)*l of its parent's. The parent's argmin column is also a child
representative, so the child approximation is at most the parent's plus
2*(delta-1)*l. A child candidate (sum <= child approx + 8*delta*(l/2))
therefore has a parent sum <= parent approx + 4*(delta-1)*l + 4*delta*l <
parent approx + 8*delta*l: its parent column is a candidate too. The child
argmin is a child candidate, so the child minimum lies under a parent
candidate as well. A parent's span holds all of its candidates, so the
children of the span's columns hold every child candidate and the child
argmin.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import native
from .matrix import INF, BDMatrix, Matrix, product_matrix

CANDIDATE_WINDOW = 8  # admission threshold is approx + 8*delta*l


@dataclass(frozen=True)
class BlockGrid:
    """Partition of an n x n matrix into blocks of length l (l divides n)."""

    n: int
    l: int

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise ValueError("dimensions must be positive")
        if self.n % self.l != 0:
            raise ValueError(f"block length {self.l} does not divide {self.n}")

    @property
    def n_blocks(self) -> int:
        return self.n // self.l


def pair_chunks(starts: np.ndarray, budget: int):
    """(g0, g1) runs of whole pairs holding at most ``budget`` entries each,
    or a single pair that alone holds more; pair g holds entries
    starts[g]:starts[g + 1]."""
    total = len(starts) - 1
    g0 = 0
    while g0 < total:
        g1 = int(np.searchsorted(starts, starts[g0] + budget, side="right")) - 1
        g1 = min(max(g1, g0 + 1), total)
        yield g0, g1
        g0 = g1


# ---------------------------------------------------------------------------
# candidate sets


@dataclass(frozen=True, eq=False)
class CandidateSets:
    """Per block pair (bi, bj), the block columns bk whose representative
    sums ra[bi, bk] + rb[bk, bj] come within 8*delta*l of their minimum
    ``approx[bi, bj]``: how many there are (``sizes``) and the span
    ``lo[bi, bj]..hi[bi, bj]`` from the first to the last.

    A span holds every candidate, and so the block of every optimal
    witness: a minimum over it, or over any larger set of block columns, is
    the product entry. ``ra`` and
    ``rb`` are the representative tables A[::l, ::l] and B[::l, ::l] the
    sets were scanned from. Pairs a level did not scan have size 0, approx
    INF and an empty span (lo > hi).
    """

    grid: BlockGrid
    delta: int
    approx: Matrix
    sizes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    ra: np.ndarray
    rb: np.ndarray

    def first_candidate(self, pairs: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Smallest of the ascending block columns ``cols`` that is a
        candidate of each scanned block pair, or n_blocks if none is.

        Where a pair's candidates fill its span, that is the first of the
        columns inside the span. Where they leave gaps, the scan's own test,
        ra[bi, k] + rb[k, bj] <= approx[bi, bj] + 8*delta*l, runs on the
        columns, a few pairs at a time (at most _SUM_BUDGET tests), each
        chunk on the columns inside the union of its pairs' spans: no
        candidate lies outside its pair's span.
        """
        nb = self.grid.n_blocks
        bi, bj = pairs[:, 0], pairs[:, 1]
        lo, hi = self.lo[bi, bj], self.hi[bi, bj]
        c0 = np.searchsorted(cols, lo)  # each pair's first column at or after lo
        first = np.append(cols, nb)[c0]
        first[first > hi] = nb
        gaps = np.flatnonzero(hi - lo + 1 > self.sizes[bi, bj])
        if len(gaps):
            c1 = np.searchsorted(cols, hi, side="right")
            bound = self.approx.data[bi, bj] + CANDIDATE_WINDOW * self.delta * self.grid.l
            ra, rbt = self.ra[:, cols], self.rb[cols].T  # [bi, c], [bj, c]
            step = max(1, _SUM_BUDGET // len(cols))
            for g0 in range(0, len(gaps), step):
                g = gaps[g0 : g0 + step]
                s0, s1 = int(c0[g].min()), int(c1[g].max())
                if s0 < s1:
                    ok = ra[bi[g], s0:s1] + rbt[bj[g], s0:s1] <= bound[g, None]
                    first[g] = np.where(ok.any(axis=1), cols[s0 + ok.argmax(axis=1)], nb)
        return first


# representative sums held at once by the child scans and by
# ``first_candidate`` (1 MiB in int64)
_SUM_BUDGET = 1 << 17


def candidate_sets(a: BDMatrix, b: BDMatrix, l: int) -> CandidateSets:
    """Full enumeration over representatives: bk is admitted for (bi, bj)
    iff A[i',k'] + B[k',j'] <= approx[bi,bj] + 8*delta*l, with approx[bi, bj]
    the minimum of those sums over bk. ``approx`` is within 4*delta*l of the
    true product on every entry of each block.

    Every block containing an optimal witness column is admitted. The scan
    runs on the representative tables shifted to start at 0, as
    ``basic.kernel_operands`` shifts the operands, in int16 or int32 where
    that type holds 4*(delta-1)*(n-l), the largest sum two shifted
    delta-bounded tables can have; the bound costs no pass over the tables.
    Wider tables are scanned unshifted in int64, where no sum of two entries
    within 2**61 wraps. Each pair's threshold is min(approx + 8*delta*l,
    the largest sum), which the type holds, and no sum exceeds the largest,
    so the test is the one above. The scan itself is one compiled loop
    (``native.scan``): per block row, a pass over the block columns for each
    pair's minimum, then one for its count and its first and last admitted
    column, with no sum kept. ``approx`` is wrapped as a Matrix without a
    copy.
    """
    _check_pair(a, b, l)
    ra, rb = a.base.data[::l, ::l], b.base.data[::l, ::l]
    nb = ra.shape[0]
    # two representatives are at most 2*(n - l) unit steps apart, each of
    # less than delta: a table spans at most half of top, and no sum of the
    # shifted tables exceeds top
    top = 4 * (a.delta - 1) * (a.n - l)
    if top < 1 << 31:
        dtype = np.int16 if top < 1 << 15 else np.int32
        lo_a, lo_b = int(ra.min()), int(rb.min())
        xa = np.subtract(ra, lo_a, out=np.empty((nb, nb), dtype))
        xb = np.subtract(rb, lo_b, out=np.empty((nb, nb), dtype))  # [bk, bj]
        shift, largest = lo_a + lo_b, top
    else:
        # unshifted, entries within 2**61: every sum lies in [-2**62, 2**62]
        dtype, shift, largest, top = np.int64, 0, 1 << 62, 1 << 63
        xa, xb = np.ascontiguousarray(ra), np.ascontiguousarray(rb)
    # each pair's threshold, min(approx + window, largest), is largest -
    # max(cap - approx, 0): no term leaves the type. The sums range over at
    # most top, so a window wider than top admits as much as top does
    cap = largest - min(CANDIDATE_WINDOW * a.delta * l, top)
    low = np.empty((nb, nb), dtype)
    sizes = np.empty((nb, nb), dtype=np.int32)
    lo = np.empty((nb, nb), dtype=np.int32)
    hi = np.empty((nb, nb), dtype=np.int32)
    native.scan(xa, xb, cap, largest, low, sizes, lo, hi)
    approx = np.add(low, shift, dtype=np.int64)
    return CandidateSets(BlockGrid(a.n, l), a.delta, product_matrix(approx), sizes, lo, hi, ra, rb)


def child_sets(a: BDMatrix, b: BDMatrix, l: int, parents: np.ndarray, spans: CandidateSets) -> CandidateSets:
    """Candidate sets at block length l of the four children of each parent
    pair (block length 2*l), scanning only the child columns 2*lo ..
    2*hi + 1 under each parent's span in ``spans``, the parents' sets. By
    the nesting lemma every child candidate, and the child argmin, lies
    under a parent candidate, which the span holds: these are the counts,
    spans and minima of ``candidate_sets(a, b, l)`` on the children.

    Parents are scanned a few at a time, at most _SUM_BUDGET sums at once
    (or one parent's, if more).
    """
    _check_pair(a, b, l)
    nb = a.n // l
    h = nb // 2
    window = CANDIDATE_WINDOW * a.delta * l
    ra, rb = a.base.data[::l, ::l], b.base.data[::l, ::l]
    quad = (h, 2, h, 2)
    a_tab = ra.reshape(quad).transpose(1, 0, 2, 3).reshape(2, h * h, 2)  # [di, pi*h + pk, dk]
    b_tab = rb.reshape(quad).transpose(3, 0, 2, 1).reshape(2, h * h, 2)  # [dj, pk*h + pj, dk]
    pi, pj = parents[:, 0], parents[:, 1]
    pk0 = spans.lo[pi, pj].astype(np.int64)  # each parent's first column
    width = spans.hi[pi, pj] - pk0 + 1  # and its span's length
    if width.min(initial=1) < 1:
        raise ValueError("parent pair without a candidate span")
    starts = np.zeros(len(parents) + 1, dtype=np.int64)
    np.cumsum(width, out=starts[1:])
    approx = np.full((nb, nb), INF, dtype=np.int64)
    sizes = np.zeros((nb, nb), dtype=np.int32)
    lo = np.full((nb, nb), nb, dtype=np.int32)
    hi = np.full((nb, nb), -1, dtype=np.int32)
    d = np.arange(2)[:, None, None]
    for g0, g1 in pair_chunks(starts, max(1, _SUM_BUDGET // 8)):
        rel = starts[g0:g1] - starts[g0]  # each parent's first span column in the chunk
        w = width[g0:g1]
        pk = np.repeat(pk0[g0:g1] - rel, w)
        pk += np.arange(len(pk))  # the parent column of each parent triple
        at = np.take(a_tab, np.repeat(pi[g0:g1] * h, w) + pk, axis=1)  # [di, t, dk]
        bt = np.take(b_tab, pk * h + np.repeat(pj[g0:g1], w), axis=1)  # [dj, t, dk]
        # child column 2*pk + dk: each child pair's sums ascend in (t, dk) order
        s = (at[:, None] + bt[None]).reshape(2, 2, 2 * len(pk))  # [di, dj, (t, dk)]
        del at, bt
        low = np.minimum.reduceat(s, 2 * rel, axis=2)  # [di, dj, parent]
        ok = s <= np.repeat(low + window, 2 * w, axis=2)
        del s
        cnt = np.add.reduceat(ok.view(np.uint8), 2 * rel, axis=2, dtype=np.int32)
        # the candidates in [di, dj, (t, dk)] order: each child pair's run of
        # them starts where the counts before it end, and holds at least one
        flat = np.flatnonzero(ok)
        del ok
        end = np.cumsum(cnt.ravel()).reshape(cnt.shape)
        first, last = flat[end - cnt] % (2 * len(pk)), flat[end - 1] % (2 * len(pk))
        ci, cj = 2 * pi[g0:g1] + d, 2 * pj[g0:g1] + d.transpose(1, 0, 2)  # child pairs [di, dj, parent]
        approx[ci, cj] = low
        sizes[ci, cj] = cnt
        lo[ci, cj] = 2 * pk[first // 2] + first % 2
        hi[ci, cj] = 2 * pk[last // 2] + last % 2
    return CandidateSets(BlockGrid(a.n, l), a.delta, product_matrix(approx), sizes, lo, hi, ra, rb)


def _check_pair(a: BDMatrix, b: BDMatrix, l: int) -> None:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if a.delta != b.delta:
        raise ValueError(f"delta mismatch: {a.delta} vs {b.delta}")
    if l < 1 or a.n % l != 0:
        raise ValueError(f"block length {l} does not divide {a.n}")
