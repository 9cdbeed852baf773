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

Every level runs one candidate scan (``native.scan``), a compiled loop
over a table of rectangles of block pairs, each over a range of block
columns, that keeps no sums. The top level is one rectangle: every block
pair over every block column (``candidate_sets``). A level at block length
l/2 scans only the children of its pending parents, over the child
columns under the parents' spans (``child_sets``): the bool mask of the
parents is grouped into rectangles over their spans by the compiled
grouping the block kernel uses too (``native.rectangles``), and each
rectangle is doubled into their children's. A rectangle scans the
union of its pairs' child columns, which may hold more than a pair's own;
by the nesting lemma below both give the same counts, spans and minima as
a full scan (``test_level_child_sets_equal_dense_sets`` in
``tests/test_recursive.py`` checks it level by level,
``test_child_candidates_inside_parent`` the lemma itself). The sampled
stage runs the same scan once more on its level's active pairs, counting
only the drawn columns, for each pair's first drawn candidate
(``CandidateSets.first_candidate``); the candidate test is written once,
in ``native.c``.

The scan reads the representatives of the block kernel's operands. Once
per product, ``candidate_sets`` shifts the operands to start at 0, A - min
A and B - min B, in the narrowest of int16, int32 and int64 whose max holds
span(A) + span(B) (``kernel_operands``), and keeps them on the sets
(``CandidateSets.kern``): every level's scan and the block kernel of
``basic`` run on them, in that one type.

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
argmin, and so does any set of child columns that holds those: a minimum,
count and first and last candidate over it are the full scan's.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import native
from .matrix import BDMatrix, Matrix, operand_range, product_matrix

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


@dataclass(eq=False)
class KernelOperands:
    """A product's operands as the block kernel and the candidate scans read
    them: A - min A and B - min B, whose sums are the original sums minus
    ``shift`` = min A + min B, in one integer type that holds every such
    sum."""

    a: np.ndarray
    b: np.ndarray
    shift: int


def kernel_operands(x: Matrix, y: Matrix) -> KernelOperands:
    """The all-finite operands x and y of a product shifted to start at 0,
    in the narrowest of int16, int32 and int64 whose max holds span(x) +
    span(y), the largest shifted sum. Every sum, and so every minimum, a
    kernel or a scan forms on them is then exact in that type; a kernel
    value plus ``shift`` is the original's. One min and one max per operand
    both find the shift and check the operand cap (``operand_range``, which
    raises ValueError); within the cap a span is at most 2**61, so int64
    holds every shifted sum."""
    (lo_a, hi_a), (lo_b, hi_b) = operand_range(x, "a"), operand_range(y, "b")
    top = hi_a - lo_a + hi_b - lo_b
    dtype = np.int16 if top < 1 << 15 else np.int32 if top < 1 << 31 else np.int64
    # subtracted in int64 and written in the narrow type, chunk by chunk
    a = np.subtract(x.data, lo_a, out=np.empty(x.data.shape, dtype))
    b = np.subtract(y.data, lo_b, out=np.empty(y.data.shape, dtype))
    return KernelOperands(a, b, lo_a + lo_b)


# ---------------------------------------------------------------------------
# candidate sets


@dataclass(frozen=True, eq=False)
class CandidateSets:
    """Per block pair (bi, bj), the block columns bk whose representative
    sums A[bi*l, bk*l] + B[bk*l, bj*l] come within 8*delta*l of their
    minimum ``approx[bi, bj]``: how many there are (``sizes``) and the span
    ``lo[bi, bj]..hi[bi, bj]`` from the first to the last.

    A span holds every candidate, and so the block of every optimal
    witness: a minimum over it, or over any larger set of block columns, is
    the product entry. ``kern`` holds the product's kernel operands, whose
    representatives the sets were scanned from. Pairs a level did not scan
    have size 0, approx INF and an empty span (lo > hi).
    """

    grid: BlockGrid
    delta: int
    approx: Matrix
    sizes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    kern: KernelOperands

    def first_candidate(self, pairs: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Smallest of the block columns ``cols`` that is a candidate of each
        scanned block pair of ``pairs``, or n_blocks if none is.

        One drawn scan (``_scan`` with ``cols`` as the drawn mask) finds it:
        the pairs are grouped into rectangles over their spans
        (``native.rectangles``), and each rectangle's columns are tested
        against its pairs' thresholds, from their minima in ``approx``,
        counting only the drawn ones. A rectangle's columns hold its pairs'
        spans, and a span every candidate, so the first drawn column within
        a pair's threshold is its smallest drawn candidate.
        """
        nb = self.grid.n_blocks
        bi, bj = pairs[:, 0], pairs[:, 1]
        mask = np.zeros((nb, nb), dtype=bool)
        mask[bi, bj] = True
        table = native.rectangles(mask, self.lo, self.hi, 1)
        if table is None:
            raise ValueError("pair without a candidate span")
        drawn = np.zeros(nb, dtype=np.uint8)
        drawn[cols] = 1
        return _scan(self.kern, self.delta, self.grid.l, table, drawn, self.approx.data)[bi, bj]


def candidate_sets(a: BDMatrix, b: BDMatrix, l: int) -> CandidateSets:
    """Full enumeration over representatives: bk is admitted for (bi, bj)
    iff A[i',k'] + B[k',j'] <= approx[bi,bj] + 8*delta*l, with approx[bi, bj]
    the minimum of those sums over bk. ``approx`` is within 4*delta*l of the
    true product on every entry of each block.

    Every block containing an optimal witness column is admitted. The
    product's kernel operands are made here (``kernel_operands``, which
    refuses operands beyond the operand cap with ValueError) and kept on
    the sets; the scan (``_scan``) is one rectangle: every block pair over
    every block column.
    """
    _check_pair(a, b, l)
    nb = a.n // l
    return _scan(kernel_operands(a.base, b.base), a.delta, l, np.array([(0, nb, 0, nb, 0, nb)], dtype=np.int64))


def child_sets(l: int, parents: np.ndarray, spans: CandidateSets) -> CandidateSets:
    """Candidate sets at block length l of the four children of each parent
    pair set in the bool mask ``parents`` (block length 2*l), scanning only
    child columns under the parents' spans in ``spans``, the parents' sets,
    on their kernel operands, with their delta.

    The parents are grouped into rectangles over their spans
    (``native.rectangles``), and each is doubled into the rectangle of their
    children over the child columns 2*lo .. 2*hi + 1 of its union span, so
    every rectangle holds whole 2 x 2 groups of children. A child pair is
    scanned over its parent's child columns and perhaps more. By the
    nesting lemma every child candidate, and the child argmin, lies under
    a candidate of its parent, which the parent's span holds, so scanning
    those columns or any more of them gives the same minimum, count and
    span: these are the sets of ``candidate_sets(a, b, l)`` on the
    children. Every other pair is left unscanned.
    """
    if 2 * l != spans.grid.l:
        raise ValueError(f"block length {l} is not half the parents' {spans.grid.l}")
    table = native.rectangles(parents, spans.lo, spans.hi, 2)
    if table is None:
        raise ValueError("parent pair without a candidate span")
    return _scan(spans.kern, spans.delta, l, table)


def _scan(
    kern: KernelOperands, delta: int, l: int, table: np.ndarray,
    drawn: np.ndarray | None = None, approx: np.ndarray | None = None,
) -> CandidateSets | np.ndarray:
    """The candidate sets at block length l of the block pairs in the
    rectangles of ``table`` (``native.scan``), each over the block columns
    of its rectangle; the other pairs are left unscanned. With a uint8 mask
    ``drawn`` of block columns and the pairs' minima ``approx`` from their
    level's scan, only each pair's first candidate among the drawn
    columns, or nb if it has none: an (nb, nb) int32 table read only at
    the rectangles' pairs (``CandidateSets.first_candidate``).

    The scan runs on the representatives of the kernel operands ``kern``,
    in their type, which holds span(A) + span(B): no shifted sum exceeds
    the type's max, ``largest``. Each pair's threshold is min(approx +
    8*delta*l, largest) = largest - max(cap - approx, 0) with cap = largest
    - min(8*delta*l, largest), so no term leaves the type, and it admits
    exactly the columns the unclamped window does. The compiled loop
    reduces each rectangle for the pairs' minima, as the block kernel
    does, then makes one pass over its block columns for each pair's count
    and first and last admitted column, with no sum kept, and writes
    ``approx`` in int64 with ``kern.shift`` added back; ``approx`` is
    wrapped as a Matrix without a copy. At l = 1 the representatives are
    the operands themselves, and no copy of them is made.
    """
    n = kern.a.shape[0]
    nb = n // l
    xa, xb = np.ascontiguousarray(kern.a[::l, ::l]), np.ascontiguousarray(kern.b[::l, ::l])
    largest = int(np.iinfo(xa.dtype).max)
    cap = largest - min(CANDIDATE_WINDOW * delta * l, largest)
    if drawn is not None:
        first = np.empty((nb, nb), dtype=np.int32)
        native.scan(xa, xb, table, cap, largest, kern.shift, approx, first, drawn)
        return first
    approx = np.empty((nb, nb), dtype=np.int64)
    stats = np.empty((3, nb, nb), dtype=np.int32)  # sizes, lo, hi
    native.scan(xa, xb, table, cap, largest, kern.shift, approx, stats)
    return CandidateSets(BlockGrid(n, l), delta, product_matrix(approx), *stats, kern)


def _check_pair(a: BDMatrix, b: BDMatrix, l: int) -> None:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if a.delta != b.delta:
        raise ValueError(f"delta mismatch: {a.delta} vs {b.delta}")
    if l < 1 or a.n % l != 0:
        raise ValueError(f"block length {l} does not divide {a.n}")
