"""The paper's packed rectangular products, the reference the level loop's
direct per-block evaluation (the kernel ``basic._min_blocks`` over the
spans of ``basic._assigned_spans``) is tested against, and the flat slot
allocation they run on.

For one sampled column's reduced matrices and one correspondence relation:
large segments go into private rectangular slots and run through the
small-entry product; small segments are randomly allocated to shared slots
(``_build_allocation``, centered by ``baseline_offset``), packed as
polynomials, multiplied, and cleaned by subtracting the block products of
every collision (``find_collisions``). The acceptance gate's collision
statistics use the same allocation, and ``collisions_exhaustive`` is the
per-slot reference for the slot tree's incremental search. No product or
audit of the library runs this code; the slot tree, ``b_partners`` and the
collision audit stay in ``minplus.recursive``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from minplus import INF, Counters, Matrix, minplus_small_entries
from minplus.basic import SegmentTable, require
from minplus.oracle import PolyMatrix, extract_min, poly_matmul
from minplus.recursive import SlotTree, allocate_top, b_partners, colocated_pairs, cross_check_count

# ---------------------------------------------------------------------------
# flat allocation and collisions


def baseline_offset(bucket, shift: int, width: int):
    """Value added to A-side segment entries and subtracted from the B-side
    partner. Centers both sides into [-(width + wobble), width + wobble]
    while leaving every pair sum unchanged."""
    bucket = np.asarray(bucket, dtype=np.int64)
    if shift == -2:
        out = -(bucket + 1) * width
    elif shift == -1:
        out = -bucket * width - width // 2
    elif shift == 0:
        out = -bucket * width
    else:
        raise ValueError(f"unknown correspondence shift {shift}")
    return out if out.ndim else int(out)


@dataclass
class AllocationMap:
    """Randomized placement of small segments into rectangular slots.

    Corresponding A/B segments share a slot; ``offsets`` records the
    baseline added to the A side and subtracted from the B side.
    """

    slot_count: int
    shift: int
    block_len: int
    width: int
    m_enc: int
    keys: np.ndarray  # (m, 2) [home block column, bucket]
    slots: np.ndarray
    offsets: np.ndarray
    a_rows: list[np.ndarray]
    b_cols: list[np.ndarray]
    a_sizes: np.ndarray
    b_sizes: np.ndarray


def _build_allocation(
    seg_a: SegmentTable,
    seg_b: SegmentTable,
    select: np.ndarray,
    shift: int,
    slot_count: int,
    rng: np.random.Generator,
) -> AllocationMap:
    l, w = seg_a.block_len, seg_a.width
    keys = seg_a.keys[select]
    idxs = np.flatnonzero(select)
    slots = allocate_top(keys, l, slot_count, rng).leaf.slots
    offsets = baseline_offset(keys[:, 1], shift, w)
    pos, found = b_partners(seg_b, keys, shift)

    empty = np.empty(0, dtype=np.int64)
    a_rows = [seg_a.members_of(i) for i in idxs]
    b_cols = [seg_b.members_of(pos[i]) if found[i] else empty for i in range(len(keys))]
    a_sizes = seg_a.sizes[select]
    b_sizes = np.where(found, seg_b.sizes[pos], 0)
    return AllocationMap(
        slot_count=slot_count,
        shift=shift,
        block_len=l,
        width=w,
        m_enc=seg_a.m_enc,
        keys=keys,
        slots=slots,
        offsets=offsets,
        a_rows=a_rows,
        b_cols=b_cols,
        a_sizes=a_sizes,
        b_sizes=b_sizes,
    )


def find_collisions(alloc: AllocationMap, counters: Counters | None = None) -> np.ndarray:
    """All co-located non-corresponding segment pairs, as rows
    (slot, A-segment id, B-segment id) indexing ``alloc.keys``; pairs with
    an empty A or B side are left out.

    The enumeration cost counter adds sum over slots of |A_p| * |B_q| across
    ordered cross pairs, block counts multiplied.
    """
    pairs = colocated_pairs(alloc.slots)
    out = pairs[(alloc.a_sizes[pairs[:, 1]] > 0) & (alloc.b_sizes[pairs[:, 2]] > 0)]
    if counters is not None:
        counters.collision_checks += cross_check_count(alloc.slots, alloc.a_sizes, alloc.b_sizes)
        counters.collisions_found += len(out)
    return out


def collision_block_counts(alloc: AllocationMap, collisions: np.ndarray, nb: int) -> np.ndarray:
    """Number of collision pairs whose footprint covers each output block."""
    counts = np.zeros((nb, nb), dtype=np.int64)
    for _, pi, qi in collisions:
        rows = alloc.a_rows[int(pi)]
        cols = alloc.b_cols[int(qi)]
        if len(rows) and len(cols):
            counts[np.ix_(rows, cols)] += 1
    return counts


def collisions_exhaustive(tree: SlotTree, level_index: int) -> np.ndarray:
    """Reference per-slot enumeration at one tree level."""
    return colocated_pairs(tree.levels[level_index].slots)


# ---------------------------------------------------------------------------
# packed products


def process_large_segments(
    seg_a: SegmentTable,
    seg_b: SegmentTable,
    shift: int,
    a_r: np.ndarray,
    b_r: np.ndarray,
    t_gamma: int,
    counters: Counters | None = None,
) -> np.ndarray:
    """Pack each large A segment (>= t_gamma blocks) and its corresponding
    B segment into a private rectangular slot, centered by canceling
    baselines, and take the small-entry min-plus product.

    Returns the (n, n) reduced-space result, INF where nothing was covered.
    """
    l, w, m_enc = seg_a.block_len, seg_a.width, seg_a.m_enc
    n = a_r.shape[0]
    large = np.flatnonzero(seg_a.sizes >= t_gamma)
    if counters is not None:
        counters.max_large_slots = max(counters.max_large_slots, len(large))
    if not len(large):
        return np.full((n, n), INF, dtype=np.int64)

    pos, found = b_partners(seg_b, seg_a.keys[large], shift)
    span = np.arange(l)
    k_ext = len(large) * l
    ae = np.full((n, k_ext), INF, dtype=np.int64)
    be = np.full((k_ext, n), INF, dtype=np.int64)
    for s, seg_idx in enumerate(large):
        bk, p = (int(v) for v in seg_a.keys[seg_idx])
        u = baseline_offset(p, shift, w)
        rows = (seg_a.members_of(seg_idx)[:, None] * l + span).ravel()
        src = bk * l + span
        placed = a_r[np.ix_(rows, src)] + u
        require(np.abs(placed).max(initial=0) <= m_enc, "centered A value escapes its window")
        ae[np.ix_(rows, s * l + span)] = placed
        if found[s]:
            cols = (seg_b.members_of(pos[s])[:, None] * l + span).ravel()
            placed_b = b_r[np.ix_(src, cols)] - u
            require(np.abs(placed_b).max(initial=0) <= m_enc, "centered B value escapes its window")
            be[np.ix_(s * l + span, cols)] = placed_b
    return minplus_small_entries(Matrix(ae), Matrix(be), m_enc, counters).data


_POLY_BYTES_LIMIT = 512 * 1024 * 1024


def process_small_segments(
    seg_a: SegmentTable,
    seg_b: SegmentTable,
    shift: int,
    a_r: np.ndarray,
    b_r: np.ndarray,
    t_gamma: int,
    slot_count: int,
    rng: np.random.Generator,
    counters: Counters | None = None,
) -> tuple[PolyMatrix, AllocationMap]:
    """Randomly allocate each small segment to a slot, encode entries as
    monomials (overlapping segments add up), and return the packed
    polynomial product together with the allocation."""
    l = seg_a.block_len
    n = a_r.shape[0]
    alloc = _build_allocation(seg_a, seg_b, seg_a.sizes < t_gamma, shift, slot_count, rng)
    m_enc = alloc.m_enc
    deg = 2 * m_enc
    k_ext = slot_count * l
    est = n * k_ext * (deg + 1) * 8
    if est > _POLY_BYTES_LIMIT:
        raise MemoryError(f"packed polynomial matrices would need ~{2 * est >> 20} MiB")

    af = np.zeros((n, k_ext, deg + 1), dtype=np.int64)
    bf = np.zeros((k_ext, n, deg + 1), dtype=np.int64)
    span = np.arange(l)
    for i in range(len(alloc.keys)):
        bk = int(alloc.keys[i, 0])
        u = int(alloc.offsets[i])
        s = int(alloc.slots[i])
        src = bk * l + span
        rows = (alloc.a_rows[i][:, None] * l + span).ravel()
        deg_a = a_r[np.ix_(rows, src)] + u + m_enc
        require(deg_a.min(initial=0) >= 0 and deg_a.max(initial=0) <= deg, "A degree outside the encoding")
        np.add.at(af, (rows[:, None], (s * l + span)[None, :], deg_a), 1)
        if len(alloc.b_cols[i]):
            cols = (alloc.b_cols[i][:, None] * l + span).ravel()
            deg_b = b_r[np.ix_(src, cols)] - u + m_enc
            require(deg_b.min(initial=0) >= 0 and deg_b.max(initial=0) <= deg, "B degree outside the encoding")
            np.add.at(bf, ((s * l + span)[:, None], cols[None, :], deg_b), 1)
    cf = poly_matmul(PolyMatrix(af), PolyMatrix(bf), counters)
    return cf, alloc


def subtract_collisions(
    c_f: PolyMatrix,
    collisions: np.ndarray,
    needed: np.ndarray,
    a_r: np.ndarray,
    b_r: np.ndarray,
    alloc: AllocationMap,
    counters: Counters | None = None,
) -> dict[tuple[int, int], np.ndarray]:
    """Remove collision contributions from the packed product and extract
    exact reduced-space values for the needed blocks.

    Each colliding pair's block product is recomputed trivially and
    subtracted coefficientwise; a negative coefficient would mean the
    bookkeeping went wrong and raises InvariantError.
    """
    l, m_enc = alloc.block_len, alloc.m_enc
    nb = a_r.shape[0] // l
    span = np.arange(l)
    need_mask = np.zeros((nb, nb), dtype=bool)
    if len(needed):
        need_mask[needed[:, 0], needed[:, 1]] = True
    coeffs = c_f.coeffs.copy()
    ops = 0
    for _, pi, qi in collisions:
        pi, qi = int(pi), int(qi)
        rows_p = alloc.a_rows[pi]
        cols_q = alloc.b_cols[qi]
        if not (len(rows_p) and len(cols_q)):
            continue
        hit = need_mask[np.ix_(rows_p, cols_q)]
        if not hit.any():
            continue
        bk_p = int(alloc.keys[pi, 0])
        bk_q = int(alloc.keys[qi, 0])
        u_p = int(alloc.offsets[pi])
        u_q = int(alloc.offsets[qi])
        for li, lj in np.argwhere(hit):
            bi = int(rows_p[li])
            bj = int(cols_q[lj])
            deg_a = a_r[np.ix_(bi * l + span, bk_p * l + span)] + u_p + m_enc
            deg_b = b_r[np.ix_(bk_q * l + span, bj * l + span)] - u_q + m_enc
            d3 = deg_a[:, :, None] + deg_b[None, :, :]  # axes (i, c, j)
            rows = bi * l + span
            cols = bj * l + span
            np.subtract.at(coeffs, (rows[:, None, None], cols[None, :, None], d3.transpose(0, 2, 1)), 1)
            ops += l ** 3
    require(coeffs.min(initial=0) >= 0, "collision subtraction drove a coefficient negative")
    if counters is not None:
        counters.poly_degree_ops += ops
    cleaned = extract_min(PolyMatrix(coeffs), 2 * m_enc).data
    out: dict[tuple[int, int], np.ndarray] = {}
    for bi, bj in needed:
        bi, bj = int(bi), int(bj)
        out[(bi, bj)] = cleaned[np.ix_(bi * l + span, bj * l + span)]
    return out
