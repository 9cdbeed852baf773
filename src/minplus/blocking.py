"""Block machinery: representative grids and candidate sets per block
pair, with the representative approximation matrix they are cut from.

Indexing is 0-based throughout; the representative of block index b at
block length l is row/column b*l (the upper-left entry of the block).
Argmin ties always break toward the smallest index.

The top level scans every representative triple (``candidate_sets``) and
keeps a dense mask. A level at block length l/2 scans only the children of
its parents' candidate columns (``child_sets``) and keeps CSR rows; its
exactness rests on the nesting lemma below, which makes these the same sets
and minima as a full scan (``test_level_child_sets_equal_dense_sets`` in
``tests/test_recursive.py`` checks it level by level,
``test_child_candidates_inside_parent`` the lemma itself).

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
candidate as well.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .matrix import INF, BDMatrix, Matrix

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


# ---------------------------------------------------------------------------
# block-column selections of a list of block pairs
#
# A selection is either a dense row mask, sel[g, bk] for pair g, or the
# same columns as CSR rows (``Columns``). Consumers read it through
# ``selection_starts`` and ``chunk_columns``.


class Columns(NamedTuple):
    """CSR block columns of a list of block pairs: pair g holds
    cols[starts[g]:starts[g + 1]], ascending, in any integer type."""

    starts: np.ndarray
    cols: np.ndarray


def selection_starts(sel: np.ndarray | Columns) -> np.ndarray:
    """(len + 1,) offset of each pair's first selected column: the running
    sum of the per-pair counts."""
    if isinstance(sel, Columns):
        return sel.starts
    starts = np.zeros(len(sel) + 1, dtype=np.int64)
    np.cumsum(sel.sum(axis=1), out=starts[1:])
    return starts


def chunk_columns(sel: np.ndarray | Columns, starts: np.ndarray, g0: int, g1: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair (relative to g0) and block column of every selected triple of
    pairs g0..g1-1, pair by pair, columns ascending."""
    local = np.repeat(np.arange(g1 - g0), np.diff(starts[g0 : g1 + 1]))
    if isinstance(sel, Columns):
        return local, sel.cols[starts[g0] : starts[g1]].astype(np.int64, copy=False)
    return local, np.flatnonzero(sel[g0:g1]) - local * sel.shape[1]


def select_pairs(sel: np.ndarray | Columns, counts: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray | Columns, np.ndarray]:
    """The selection of the pairs flagged in ``keep``, in the same form, and
    its starts; ``counts`` holds every pair's number of columns."""
    starts = np.zeros(np.count_nonzero(keep) + 1, dtype=np.int64)
    np.cumsum(counts[keep], out=starts[1:])
    if isinstance(sel, Columns):
        return Columns(starts, sel.cols[np.repeat(keep, counts)]), starts
    return sel[keep], starts


def pair_chunks(starts: np.ndarray, budget: int):
    """(g0, g1) runs of whole pairs holding at most ``budget`` triples each,
    or a single pair that alone holds more."""
    total = len(starts) - 1
    g0 = 0
    while g0 < total:
        g1 = int(np.searchsorted(starts, starts[g0] + budget, side="right")) - 1
        g1 = min(max(g1, g0 + 1), total)
        yield g0, g1
        g0 = g1


def first_selected(sel: np.ndarray | Columns, flags: np.ndarray) -> np.ndarray:
    """Smallest flagged block column of each pair, or len(flags) if none;
    every pair has a column and at least one column is flagged."""
    nb = len(flags)
    if isinstance(sel, Columns):
        # an int64 sentinel: nb itself may lie outside a narrow column type
        return np.minimum.reduceat(np.where(flags[sel.cols], sel.cols, np.int64(nb)), sel.starts[:-1])
    cols = np.flatnonzero(flags)
    sub = sel[:, cols]
    return np.where(sub.any(axis=1), cols[sub.argmax(axis=1)], nb)


# ---------------------------------------------------------------------------
# candidate sets


@dataclass(frozen=True, eq=False)
class CandidateSets:
    """Per block pair (bi, bj), the block columns whose representative sums
    come within 8*delta*l of the representative minimum.

    ``mask[bi, bj, bk]`` marks block column bk as a candidate of (bi, bj).
    """

    grid: BlockGrid
    delta: int
    approx: Matrix
    mask: np.ndarray

    @cached_property
    def sizes(self) -> np.ndarray:
        return self.mask.sum(axis=2)

    def columns(self, pairs: np.ndarray) -> np.ndarray:
        """Candidate columns of the block pairs, as a dense row mask."""
        return self.mask[pairs[:, 0], pairs[:, 1]]

    def compact_columns(self, pairs: np.ndarray) -> Columns:
        """Candidate columns of the block pairs, as CSR in the narrowest
        integer type that holds a block column. The rows are decoded a few
        at a time, so no dense copy of them is made."""
        nb = self.grid.n_blocks
        starts = np.zeros(len(pairs) + 1, dtype=np.int64)
        np.cumsum(self.sizes[pairs[:, 0], pairs[:, 1]], out=starts[1:])
        cols = np.empty(starts[-1], dtype=_column_dtype(nb))
        ids = np.arange(nb, dtype=cols.dtype)
        step = max(1, _SUM_BUDGET // nb)
        for g0 in range(0, len(pairs), step):
            g1 = min(g0 + step, len(pairs))
            rows = self.mask[pairs[g0:g1, 0], pairs[g0:g1, 1]]
            cols[starts[g0] : starts[g1]] = np.broadcast_to(ids, rows.shape)[rows]
        return Columns(starts, cols)


@dataclass(frozen=True, eq=False)
class ChildSets:
    """Candidate sets of the children of refined block pairs, as CSR rows.

    Each child pair (bi, bj) has CSR row ``rows[bi, bj]`` of ``starts`` and
    ``cols``; other pairs have row -1, size 0 and approx INF. The sets and
    minima equal those of ``candidate_sets`` on every child pair. A row
    holds its columns only if the pair has more than ``cols_above``
    candidates; smaller pairs keep their size and minimum alone. ``cols``
    is in the narrowest integer type that holds a block column, as are the
    ``Columns`` that ``columns`` returns.
    """

    grid: BlockGrid
    delta: int
    approx: Matrix
    sizes: np.ndarray
    rows: np.ndarray
    starts: np.ndarray
    cols: np.ndarray
    cols_above: int = 0

    def columns(self, pairs: np.ndarray) -> Columns:
        """Candidate columns of the block pairs, as CSR; each pair must be a
        child pair with more than ``cols_above`` candidates."""
        counts = self.sizes[pairs[:, 0], pairs[:, 1]]  # 0 off the child pairs
        if counts.min(initial=self.cols_above + 1) <= self.cols_above:
            raise ValueError("block pair without stored candidate columns")
        starts = np.zeros(len(pairs) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        idx = np.repeat(self.starts[self.rows[pairs[:, 0], pairs[:, 1]]] - starts[:-1], counts)
        idx += np.arange(starts[-1])
        return Columns(starts, self.cols[idx])


# int64 representative sums held at once while scanning (1 MiB).
_SUM_BUDGET = 1 << 17


def _column_dtype(nb: int) -> np.dtype:
    """Narrowest integer type that holds every block column below nb."""
    return np.dtype(np.int16 if nb <= 1 << 15 else np.int32)


def _rep_scan(a: BDMatrix, b: BDMatrix, l: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Representative minima approx[bi, bj] = min over bk of
    A[bi*l, bk*l] + B[bk*l, bj*l], and the C-contiguous mask[bi, bj, bk] of
    sums within window of approx[bi, bj]. ``approx`` is within 4*delta*l of
    the true product on every entry of each block.

    The sums are built a few block rows at a time in one reused buffer of
    at most _SUM_BUDGET entries (one block row if a row alone is larger).
    """
    _check_pair(a, b, l)
    ra = np.ascontiguousarray(a.base.data[::l, ::l])
    rbt = np.ascontiguousarray(b.base.data[::l, ::l].T)  # [bj, bk]
    nb = ra.shape[0]
    approx = np.empty((nb, nb), dtype=np.int64)
    mask = np.empty((nb, nb, nb), dtype=bool)
    rows = max(1, _SUM_BUDGET // (nb * nb))
    buf = np.empty((min(rows, nb), nb, nb), dtype=np.int64)
    for r0 in range(0, nb, rows):
        r1 = min(r0 + rows, nb)
        t = buf[: r1 - r0]
        np.add(ra[r0:r1, None, :], rbt[None, :, :], out=t)  # [bi, bj, bk]
        t.min(axis=2, out=approx[r0:r1])
        np.less_equal(t, (approx[r0:r1] + window)[:, :, None], out=mask[r0:r1])
    return approx, mask


def candidate_sets(a: BDMatrix, b: BDMatrix, l: int) -> CandidateSets:
    """Full enumeration over representatives: bk is admitted for (bi, bj)
    iff A[i',k'] + B[k',j'] <= approx[bi,bj] + 8*delta*l.

    Every block containing an optimal witness column is admitted.
    """
    approx, mask = _rep_scan(a, b, l, CANDIDATE_WINDOW * a.delta * l)
    return CandidateSets(grid=BlockGrid(a.n, l), delta=a.delta, approx=Matrix(approx), mask=mask)


def child_sets(
    a: BDMatrix, b: BDMatrix, l: int, parents: np.ndarray, sel: np.ndarray | Columns, cols_above: int = 0
) -> ChildSets:
    """Candidate sets at block length l of the four children of each parent
    pair (block length 2*l), scanning only the child columns 2*pk and
    2*pk + 1 of each parent candidate column pk (``sel``, one row per
    parent). By the nesting lemma these are the sets and minima of
    ``candidate_sets(a, b, l)`` on the children. Columns are stored only
    for children with more than ``cols_above`` candidates.

    A parent triple's eight child sums come from one gather on each side,
    from tables that hold the 2 x 2 child representatives of every parent
    block. Parents are scanned a few at a time, at most _SUM_BUDGET sums at
    once (or one parent's, if larger).
    """
    _check_pair(a, b, l)
    nb = a.n // l
    h = nb // 2
    window = CANDIDATE_WINDOW * a.delta * l
    quad = (h, 2, h, 2)
    a_tab = a.base.data[::l, ::l].reshape(quad).transpose(1, 0, 2, 3).reshape(2, h * h, 2)  # [di, pi*h + pk, dk]
    b_tab = b.base.data[::l, ::l].reshape(quad).transpose(3, 0, 2, 1).reshape(2, h * h, 2)  # [dj, pk*h + pj, dk]
    starts = selection_starts(sel)
    if np.diff(starts).min(initial=1) < 1:
        raise ValueError("parent pair without a candidate")
    n_par = len(parents)
    approx = np.full((nb, nb), INF, dtype=np.int64)
    sizes = np.zeros((nb, nb), dtype=np.int64)
    rows = np.full((nb, nb), -1, dtype=np.int64)
    # rows run chunk by chunk, child (di, dj) by child, parent by parent
    counts = np.empty(4 * n_par, dtype=np.int64)
    masks = []  # per chunk: the candidate mask and its parent columns
    d = np.arange(2)[:, None, None]
    for g0, g1 in pair_chunks(starts, max(1, _SUM_BUDGET // 8)):
        local, pk = chunk_columns(sel, starts, g0, g1)
        t = len(pk)
        pi, pj = parents[g0:g1, 0], parents[g0:g1, 1]
        at = np.take(a_tab, pi[local] * h + pk, axis=1)  # [di, t, dk]
        bt = np.take(b_tab, pk * h + pj[local], axis=1)  # [dj, t, dk]
        # child column 2*pk + dk: each child pair's columns ascend in (t, dk) order
        s = (at[:, None] + bt[None]).reshape(2, 2, 2 * t)  # [di, dj, (t, dk)]
        del at, bt
        rel = 2 * (starts[g0:g1] - starts[g0])  # each parent's first child sum
        width = 2 * np.diff(starts[g0 : g1 + 1])  # and its child sums per child pair
        low = np.minimum.reduceat(s, rel, axis=2)  # [di, dj, parent]
        ok = s <= np.repeat(low + window, width, axis=2)
        del s
        cnt = np.add.reduceat(ok, rel, axis=2, dtype=np.int64)
        stored = cnt > cols_above
        if stored.any():
            if not stored.all():
                ok &= np.repeat(stored, width, axis=2)
            masks.append((ok, pk))
        r0 = 4 * g0
        ci, cj = 2 * pi + d, 2 * pj + d.transpose(1, 0, 2)
        approx[ci, cj] = low
        sizes[ci, cj] = cnt
        rows[ci, cj] = r0 + np.arange(4 * (g1 - g0)).reshape(2, 2, -1)
        counts[r0 : 4 * g1] = np.where(stored, cnt, 0).ravel()
    row_starts = np.zeros(4 * n_par + 1, dtype=np.int64)
    np.cumsum(counts, out=row_starts[1:])
    cols = np.empty(row_starts[-1], dtype=_column_dtype(nb))
    # the columns are decoded once their total is known, chunk by chunk,
    # so only one chunk's int64 columns exist besides the result
    masks.reverse()
    pos = 0
    while masks:
        ok, pk = masks.pop()
        flat = np.flatnonzero(ok)
        flat %= 2 * len(pk)
        cols[pos : pos + len(flat)] = (2 * pk[:, None] + np.arange(2)).ravel()[flat]
        pos += len(flat)
        del ok, pk, flat
    return ChildSets(BlockGrid(a.n, l), a.delta, Matrix(approx), sizes, rows, row_starts, cols, cols_above)


def _check_pair(a: BDMatrix, b: BDMatrix, l: int) -> None:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if a.delta != b.delta:
        raise ValueError(f"delta mismatch: {a.delta} vs {b.delta}")
    if l < 1 or a.n % l != 0:
        raise ValueError(f"block length {l} does not divide {a.n}")
