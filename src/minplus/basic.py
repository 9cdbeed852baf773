"""Blocked randomized min-plus product for bounded-difference matrices.

Both engines run one level loop (``run_levels``) over a list of block
lengths: the single-partition engine over ``[l0]``, the recursive engine over
``l0, l0/2, ...`` down to the floor ``AlgoParams.l_min`` (``AlgoParams.levels``;
single entries at ``l_min=1``). At each level, candidate sets from block
representatives split the open block pairs. The top level scans every
representative triple (``candidate_sets``); a finer level scans only the
child columns under its pending parents' candidate spans (``child_sets``),
which the nesting lemma in ``blocking`` makes exact; both run the one
compiled candidate scan. Pairs with many candidates are covered by sampling
reference columns: each is assigned to the first sampled column in its
candidate set, and pairs whose candidate set missed the sample fall back to
direct enumeration. At the default parameters no top-level pair has that
many (``AlgoParams``: T_beta is at least the number of block columns), so a
default product only enumerates and refines; the paper's schedule samples.
The other pairs are refined to half the block length, or enumerated
directly at the last level; a level with no open pair is skipped.

In the paper, a sampled column r computes the blocks of its assigned pairs
through packed rectangular products over its value segments (operands
reduced by column r, randomized slot allocation, collision subtraction).
The block columns those products take for a pair include all of its
candidates, as its candidate span does, and the candidates hold the block of
every optimal witness, so both give the product's block. Here sampling
therefore only decides how a pair is counted: assigned, fallback or tail,
every pair is reduced over its candidate span, and the result is always
exact. The slot and collision code, and the count of the block
columns the packed products take (``poly_degree_ops``), live in
``recursive``, where ``collision_audit`` replays them after a product; the
packed products themselves are a test-side reference. The bucket rule they
share is kept here: ``build_segments`` takes the representatives relative
to column r (``_buckets``, ``SEGMENT_WIDTH``, ``REL_SHIFTS``). No reduced
copy of an operand is made anywhere.

Every block value comes from one kernel, ``_min_blocks``, which reduces
each block pair over its candidate span of block columns; a single entry,
at block length 1, is a block like any other. The span holds every block
of an optimal witness, so a minimum over it, or over any larger set of
columns, is exact. The kernel takes its pairs as a bool mask of the block
grid with their spans in two grid-shaped tables, and a compiled grouping
turns them into rectangles, runs of consecutive block columns in one block
row stacked over consecutive block rows that hold the same run with the
same union of spans (``native.rectangles``, which the child candidate
scans share); it hands the table of rectangles to one compiled loop
(``native.min_rects``, in ``native.c``). A level keeps its open, active and
pending pairs as such masks too, and lists pairs only for the sampled
columns and the level trace. The kernel reduces operand slices over the
union of a rectangle's spans, so it gathers nothing, and it writes each
rectangle straight into the product, so it scatters nothing either. A pair
whose span is every block column (density 1, as on random walks) gets the
plain min-plus product of its rows of A and columns of B, so the dense case
costs no more than a dense product; ``dense_minplus``, the same compiled
loop over one rectangle of the whole product, is the cubic reference the
engines are measured against. Each level that finishes pairs hands them
all, assigned, fallback and tail, to one kernel call, so pairs split
between stages still form whole rows there.

The kernel runs in the operands' narrowest type. Once per product,
``blocking.kernel_operands`` shifts the operands to start at 0, A - min A
and B - min B, and stores them in the narrowest of int16, int32 and int64
whose max holds span(A) + span(B). Every sum the kernel forms lies in
[0, span(A) + span(B)], so it is exact in that type; a bounded-difference
operand spans at most 2*(delta-1)*(n-1), so small delta gives int16. The
kernel adds the shift min A + min B back as it writes. The top candidate
scan makes these operands (``candidate_sets``) and keeps them on its sets
(``CandidateSets.kern``), where the scans of every level and the kernel
read them. The audit's buckets stay on the int64 originals: a bucket is a
difference within one row of A or one column of B, where the shift
cancels anyway.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import native
from .blocking import CandidateSets, KernelOperands, candidate_sets, child_sets, kernel_operands
from .matrix import BDMatrix, Matrix, product_matrix

SEGMENT_WIDTH = 20  # value segments are 20*delta*l wide
# A-side bucket p corresponds to B-side bucket shift - p, one relation per
# shift; the shifts are consecutive.
REL_SHIFTS = (-2, -1, 0)

_PH_SAMPLE_LVL = 11

_KEY_BIAS = 1 << 20
_KEY_STRIDE = 1 << 22
_SEED_MASK = 0xFFFFFFFFFFFFFFFF


class InvariantError(AssertionError):
    """An invariant that guards exactness failed. Raised explicitly, so the
    check also runs under ``python -O``."""


def require(ok, message: str) -> None:
    if not ok:
        raise InvariantError(message)


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic stream for (seed, phase, ...) so parallel order never matters."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & _SEED_MASK, *key]))


def ceil_tol(x: float) -> int:
    """Ceiling that tolerates float fuzz when x should be an exact power."""
    return int(math.ceil(x - 1e-9))


def level_theta(n: int, l: int) -> float:
    """Level exponent theta with block length l = n**(1-theta); 1.0 for n == 1."""
    return math.log2(n // l) / math.log2(n) if n > 1 else 1.0


@dataclass
class Counters:
    """Named work counters reported by the algorithms and the CLI.

    A product fills block_products and fallback_pairs. The counters of the
    paper's model of the sampled stage, collision_checks, collisions_found,
    max_large_slots and poly_degree_ops (the block products a sampled
    column's packed products take, times l**3), are filled by
    ``recursive.collision_audit`` from the product's level trace.
    """

    block_products: int = 0
    collision_checks: int = 0
    collisions_found: int = 0
    fallback_pairs: int = 0
    poly_degree_ops: int = 0
    max_large_slots: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class AlgoParams:
    """Tuning knobs shared by the blocked algorithms.

    alpha sets the block length l ~ n**(1-alpha); beta the small-candidate
    threshold n**beta; gamma the segment-size threshold n**gamma; c0 scales
    the sample size; l_min, a power of two, the finest block length the
    recursive engine refines to.

    The default alpha = 0.7 gives l = 4 at n = 32..256 and l = 8 at
    n = 512..2048, where per-block overhead no longer outweighs the pruning
    (measured against ``dense_minplus``, see the README). The default
    l_min = 8 keeps the recursive engine at the top level up to n = 2048,
    where no finer level pays at every size, and adds the level 8 under
    l = 16 at n = 4096, where it pays on valley (README grid). Sizes from
    n = 8192 on, with levels [16, 8], have not been measured.

    The default beta = 0.75 was measured too: T_beta = ceil(n**0.75) is at
    least n/l0, the most candidates a top-level pair can have, at every
    power of two n from 2 to 16384, so at the defaults no top-level pair is
    active. Every pair is enumerated over its candidate span or refined, and
    the sampled stage does not run; on walks at n = 64 and 128 that made a
    product about 30% faster than at 0.6 (README). The same holds at the
    level 8 of n = 4096 (512 block columns, T_beta = 512); from n = 8192
    on, a level-8 pair can have more candidates than T_beta and be sampled.

    The paper's schedule, l = 2 at every n from 32 to 16384 refined down to
    single entries with sampled reference columns, is ``alpha=0.9,
    beta=0.6, l_min=1``.
    """

    delta: int
    alpha: float = 0.7
    beta: float = 0.75
    gamma: float = 0.6
    c0: int = 3
    seed: int = 0
    l_min: int = 8

    def __post_init__(self):
        for name in ("delta", "c0"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v}")
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {v}")
        l_min = int(self.l_min)
        if l_min != self.l_min or l_min < 1 or l_min & (l_min - 1):
            raise ValueError(f"l_min must be a positive power of two, got {self.l_min}")

    def block_len(self, n: int) -> int:
        """Power-of-two block length nearest n**(1-alpha) (half-up rounding)."""
        if n <= 1:
            return 1
        lg = int(math.log2(n))
        exp = int(math.floor((1.0 - self.alpha) * lg + 0.5 + 1e-9))
        return 1 << max(0, min(lg, exp))

    def levels(self, n: int) -> list[int]:
        """Block lengths of the recursive schedule at size n: the top block
        length l0, then l0/2, l0/4, ... down to min(l0, l_min)."""
        l0 = self.block_len(n)
        return [l0 >> j for j in range((l0 // min(l0, int(self.l_min))).bit_length())]

    def t_beta(self, n: int) -> int:
        return ceil_tol(n ** self.beta)

    def t_gamma(self, n: int) -> int:
        return ceil_tol(n ** self.gamma)

    def sample_count(self, n: int, l: int | None = None) -> int:
        """Draws per level: ceil(c0 * log2(n) * (n/l) * n**-beta), with l the
        level's block length (the top block length by default)."""
        if n <= 1:
            return 0
        theta = level_theta(n, self.block_len(n) if l is None else l)
        return ceil_tol(self.c0 * math.log2(n) * n ** (theta - self.beta))


# ---------------------------------------------------------------------------
# segmentation


@dataclass
class SegmentTable:
    """Value segments of one side: blocks of each block column (A side) or
    block row (B side) grouped by the bucket of their representative,
    taken relative to the sampled column's reduction."""

    block_len: int
    width: int
    m_enc: int  # bound on a centered entry: the width plus a 2*delta*l wobble
    buckets: np.ndarray  # A: bucket of block (bi, bk); B: bucket of block (bk, bj)
    keys: np.ndarray  # (m, 2) [major block index, bucket], lexicographic
    members: np.ndarray  # block rows (A) / block columns (B), grouped by segment, ascending in each
    starts: np.ndarray  # (m + 1,) segment s holds members[starts[s]:starts[s + 1]]

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.starts)

    def members_of(self, s: int) -> np.ndarray:
        return self.members[self.starts[s] : self.starts[s + 1]]


def _buckets(data: np.ndarray, l: int, width: int, base: np.ndarray | int = 0) -> np.ndarray:
    """Bucket of every block representative relative to ``base``,
    floor((representative - base) / width), indexed [block row, block
    column]."""
    return (data[::l, ::l] - base) // width


def _group_by_major(bmat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group bmat[major, member] by (major, bucket value) with one stable
    sort of the encoded key: segment keys in order, members grouped by
    segment and ascending in each, and the segment starts."""
    n_major, n_member = bmat.shape
    enc = encode_keys(np.arange(n_major)[:, None], bmat).ravel()
    order = np.argsort(enc, kind="stable")
    enc = enc[order]
    change = np.empty(enc.size, dtype=bool)
    change[0] = True
    np.not_equal(enc[1:], enc[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    first = enc[starts]
    keys = np.stack([first // _KEY_STRIDE, first % _KEY_STRIDE - _KEY_BIAS], axis=1)
    return keys, order % n_member, np.append(starts, enc.size)


def build_segments(
    a: np.ndarray, b: np.ndarray, l: int, delta: int, r: int
) -> tuple[SegmentTable, SegmentTable, tuple[int, ...]]:
    """Bucket the block representatives of A - A[:, r] and B - B[r, :] into
    half-open segments of width 20*delta*l, per block column of A and block
    row of B, bucketing relative to column r; no reduced copy is made.

    Returns the two tables plus the correspondence relations: A bucket p is
    paired with B bucket shift - p for each shift in the returned tuple, which
    together cover every block pair whose reduced representative sums have
    magnitude at most 16*delta*l.
    """
    w = SEGMENT_WIDTH * int(delta) * int(l)
    pa = _buckets(a, l, w, a[::l, r, None])  # [bi, bk]
    qb = _buckets(b, l, w, b[None, r, ::l])  # [bk, bj]
    require(
        np.abs(pa).max(initial=0) < _KEY_BIAS and np.abs(qb).max(initial=0) < _KEY_BIAS,
        "bucket index outside the segment key range",
    )
    m_enc = w + 2 * int(delta) * int(l)
    seg_a = SegmentTable(l, w, m_enc, pa, *_group_by_major(pa.T))
    seg_b = SegmentTable(l, w, m_enc, qb, *_group_by_major(qb))
    return seg_a, seg_b, REL_SHIFTS


def encode_keys(major: np.ndarray, bucket: np.ndarray) -> np.ndarray:
    """One sortable int64 per (major block index, bucket) segment key."""
    return major.astype(np.int64) * _KEY_STRIDE + (bucket.astype(np.int64) + _KEY_BIAS)


# ---------------------------------------------------------------------------
# sampling


@dataclass
class NeededBlocks:
    """Per sampled representative column, the block pairs it must compute;
    pairs whose candidate set missed the sample go to the fallback."""

    gamma: dict[int, np.ndarray]
    missed: np.ndarray


def sample_r(cands: CandidateSets, params: AlgoParams, active: np.ndarray | None = None, level: int = 0):
    """Sample params.sample_count(n, l) representative columns uniformly with
    replacement (then dedup) from the level's own stream, and assign every
    active pair to the smallest sampled column inside its candidate set.

    ``active`` defaults to every pair with more than T_beta candidates.
    Returns the sampled columns and the assignment, keyed by column.
    """
    nb = cands.grid.n_blocks
    l = cands.grid.l
    n = cands.grid.n
    if active is None:
        active = np.argwhere(cands.sizes > params.t_beta(n))
    count = params.sample_count(n, l)
    rng = derived_rng(params.seed, _PH_SAMPLE_LVL, level)
    drawn = np.zeros(nb, dtype=bool)
    if count:
        drawn[rng.integers(0, nb, size=count)] = True
    r_blocks = np.flatnonzero(drawn)
    gamma: dict[int, np.ndarray] = {}
    missed = active
    if len(active) and len(r_blocks):
        first = cands.first_candidate(active, r_blocks)
        hit = first < nb
        # the assigned pairs grouped by column with one stable sort, in
        # active order within each; bounds are where a column's run starts
        order = np.flatnonzero(hit)[np.argsort(first[hit], kind="stable")]
        chosen, assigned = first[order], active[order]
        bounds = np.flatnonzero(np.diff(chosen, prepend=-1, append=nb)).tolist()
        gamma = {int(chosen[s]) * l: assigned[s:e] for s, e in zip(bounds, bounds[1:])}
        missed = active[~hit]
    return (r_blocks * l).astype(np.int64), NeededBlocks(gamma=gamma, missed=missed)


# ---------------------------------------------------------------------------
# batched block products of the level loop (all-finite inputs)


def _min_blocks(
    kern: KernelOperands,
    l: int,
    mask: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    c: np.ndarray,
    done: np.ndarray,
) -> None:
    """Block min-plus products over spans of block columns, written into the
    int64 product ``c``: for each block pair (bi, bj) set in the bool mask
    of the block grid ``mask``, block (bi, bj) of c gets the minimum of
    A[bi*l + i, k] + B[k, bj*l + j] over every k in block columns
    lo[bi, bj]..hi[bi, bj] (int32 tables of the mask's shape), and perhaps
    over more block columns (below), plus ``kern.shift``. A span that holds
    the block of every optimal witness, as a candidate span does, therefore
    gives the product's block; a full span, 0..nb-1, gives the plain
    min-plus product. The ledger ``done`` marks each entry written, and
    refuses an entry written before. Each level of ``run_levels`` that
    finishes pairs makes one call, with every pair it finishes.

    The pairs are grouped into rectangles in C (``native.rectangles``, which
    the child candidate scans share). The grouping refuses an empty span,
    such as an unscanned pair's (lo = nb, hi = -1), so a pair without a
    candidate raises InvariantError before anything is written. A rectangle
    is a run of consecutive block columns in one block row, stacked over
    consecutive block rows that hold the same run with the same union of
    spans. It reduces over the union of its pairs' spans; a pair alone, or
    among equal spans, gets the minimum over its own span. The whole table
    of rectangles, in entries, goes to the compiled kernel in one call
    (``native.min_rects``), which reads each rectangle's rows of A and
    columns of B in place, in the operands' type, and writes its result
    straight into c, checking and marking the ledger rectangle by rectangle.
    """
    table = native.rectangles(mask, lo, hi, l)
    require(table is not None, "block pair with an empty span")
    first_bad = native.min_rects(kern.a, kern.b, table, c, done, kern.shift)
    require(first_bad < 0, "block finalized twice")


def dense_minplus(a: Matrix, b: Matrix) -> Matrix:
    """Exact min-plus product of two square all-finite matrices of one size:
    the block kernel (``native.min_rects``) over one rectangle, every entry
    over every inner index. Like the engines, it runs on
    ``kernel_operands``, in the narrowest integer type that holds every
    shifted sum.

    This is the cubic reference the engines' times are stated against; the
    engines never call it, and ``minplus_naive`` stays the test oracle.
    """
    if not (a.is_square() and b.is_square() and a.n_rows == b.n_rows):
        raise ValueError(f"dense_minplus expects square operands of one size, got {a.shape} x {b.shape}")
    if not (a.all_finite() and b.all_finite()):
        raise ValueError("dense_minplus expects all-finite operands")
    kern = kernel_operands(a, b)
    n = a.n_rows
    c = np.empty((n, n), dtype=np.int64)
    done = np.zeros((n, n), dtype=bool)
    first_bad = native.min_rects(kern.a, kern.b, np.array([(0, n, 0, n, 0, n)], dtype=np.int64), c, done, kern.shift)
    require(first_bad < 0 and done.all(), "some output blocks were never written")
    return product_matrix(c)


# ---------------------------------------------------------------------------
# the level loop


@dataclass(frozen=True)
class LevelState:
    """Partition of the open block pairs at one level of the loop."""

    block_len: int
    theta: float  # block length l = n**(1-theta)
    active: np.ndarray  # pairs routed to this level's sampled pipeline
    pending: np.ndarray  # pairs refined to the next level, or enumerated at the last one
    assigned: dict[int, np.ndarray]  # sampled column -> the active pairs it computed


def check_operands(a: BDMatrix, b: BDMatrix, params: AlgoParams, caller: str) -> None:
    """Validate an engine's inputs against its params. The pair itself, its
    sizes and deltas, is checked by the top candidate scan
    (``candidate_sets``), which also checks the operand cap where it makes
    the kernel operands."""
    if not isinstance(a, BDMatrix) or not isinstance(b, BDMatrix):
        raise TypeError(f"{caller} expects BDMatrix inputs")
    if a.delta != params.delta:
        raise ValueError("delta mismatch between inputs and params")


def run_levels(
    a: BDMatrix,
    b: BDMatrix,
    params: AlgoParams,
    levels: list[int],
    counters: Counters | None = None,
    level_trace: list[LevelState] | None = None,
) -> Matrix:
    """Exact product of inputs that passed check_operands, over the block
    lengths ``levels`` (the top block length first, each next one half the
    one before), with the block kernel on the kernel operands that the top
    candidate scan made (``CandidateSets.kern``).

    The top level computes every pair's candidate sets; each finer level
    computes only those of the children of the pairs refined to it, under
    their parents' candidate spans. At each level the open pairs with
    more than T_beta candidates are active: grids of 4 or more blocks a
    side sample columns and assign each active pair to one (``sample_r``);
    the pairs the sample missed, and every active pair of a smaller grid,
    are the fallback. The other open pairs are refined to the next level;
    at the last level they are enumerated directly (the tail). Each level
    finishes its pairs in one kernel call (``_min_blocks``): the active
    pairs, or at the last level every open pair, each over its candidate
    span. A level with no open pair computes no candidate sets and is
    traced empty. The tail counts toward block_products only at the top
    block length, the grid the strict bound is stated on.
    """
    if counters is None:
        counters = Counters()
    n = a.n
    t_beta = params.t_beta(n)
    eligible = np.ones((n // levels[0], n // levels[0]), dtype=bool)
    cands = candidate_sets(a, b, levels[0])
    kern = cands.kern
    # made after the top scan's buffers are freed; every entry is written once
    c = np.empty((n, n), dtype=np.int64)
    done = np.zeros((n, n), dtype=bool)

    for li, l in enumerate(levels):
        last = li == len(levels) - 1
        if li:
            eligible = np.repeat(np.repeat(is_pending, 2, 0), 2, 1)
            # the children of the pending pairs, scanned only under their
            # parents' candidate spans (nesting, see blocking); with none
            # left, the level is skipped but kept, empty, in the trace
            cands = child_sets(l, is_pending, cands) if is_pending.any() else None
        is_active = eligible & (cands.sizes > t_beta) if cands is not None else eligible
        assigned: dict[int, np.ndarray] = {}
        if is_active.any():
            missed = is_active
            if n // l >= 4:
                _, needed = sample_r(cands, params, np.argwhere(is_active), li)
                assigned = needed.gamma
                missed = np.zeros_like(is_active)
                missed[needed.missed[:, 0], needed.missed[:, 1]] = True
            counters.fallback_pairs += int(np.count_nonzero(missed))
            counters.block_products += int(cands.sizes[missed].sum())
        is_pending = eligible & ~is_active
        if last and not li:  # the tail at the top block length
            counters.block_products += int(cands.sizes[is_pending].sum())
        finish = eligible if last else is_active
        if finish.any():
            _min_blocks(kern, l, finish, cands.lo, cands.hi, c, done)
        if level_trace is not None:
            active, pending = np.argwhere(is_active), np.argwhere(is_pending)
            level_trace.append(LevelState(l, level_theta(n, l), active, pending, assigned))

    require(done.all(), "some output blocks were never finalized")
    return product_matrix(c)


def basic_minplus(
    a: BDMatrix,
    b: BDMatrix,
    params: AlgoParams,
    counters: Counters | None = None,
    level_trace: list[LevelState] | None = None,
) -> Matrix:
    """Exact min-plus product of two bounded-difference matrices via the
    single-partition blocked randomized algorithm: the level loop stopped at
    the top block length, whose small pairs are enumerated directly.

    Deterministic for a fixed params.seed; always bitwise equal to the naive
    product because every pair is reduced over its candidate span.
    """
    check_operands(a, b, params, "basic_minplus")
    return run_levels(a, b, params, [params.block_len(a.n)], counters, level_trace)
