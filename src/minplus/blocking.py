"""Block machinery: representative grids and candidate sets per block
pair, with the representative approximation matrix they are cut from.

Indexing is 0-based throughout; the representative of block index b at
block length l is row/column b*l (the upper-left entry of the block).
Argmin ties always break toward the smallest index.

Candidate sets nest across halving block lengths, so a level at block
length l/2 needs no restriction to its parent's candidates: every child
candidate already lies inside them. Take a child pair (i', j') and child
column k' at length l/2, with parent pair (i'//2, j'//2) and column k'//2.
Child and parent representatives are at most l/2 apart on each index and
adjacent entries differ by at most delta-1, so a child representative sum
is within 2*(delta-1)*l of its parent's. The parent's argmin column is
also a child representative, so the child approximation is at most the
parent's plus 2*(delta-1)*l. A child candidate (sum <= child approx +
8*delta*(l/2)) therefore has a parent sum <= parent approx +
4*(delta-1)*l + 4*delta*l < parent approx + 8*delta*l: its parent column is
a candidate too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import BDMatrix, Matrix

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

    @property
    def sizes(self) -> np.ndarray:
        return self.mask.sum(axis=2)


# int64 representative sums held at once while scanning (1 MiB).
_SUM_BUDGET = 1 << 17


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


def _check_pair(a: BDMatrix, b: BDMatrix, l: int) -> None:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if a.delta != b.delta:
        raise ValueError(f"delta mismatch: {a.delta} vs {b.delta}")
    if l < 1 or a.n % l != 0:
        raise ValueError(f"block length {l} does not divide {a.n}")
