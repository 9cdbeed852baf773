"""The paper's packed rectangular products, the reference the level loop's
direct per-block evaluation (``basic._assigned_block_values``) is tested
against.

For one sampled column's reduced matrices and one correspondence relation:
large segments go into private rectangular slots and run through the
small-entry product; small segments are randomly allocated to shared slots,
packed as polynomials, multiplied, and cleaned by subtracting the block
products of every collision. No product of the library runs this code.
"""

from __future__ import annotations

import numpy as np

from minplus import INF, Counters, Matrix, minplus_small_entries
from minplus.basic import SegmentTable, require
from minplus.oracle import PolyMatrix, extract_min, poly_matmul
from minplus.recursive import AllocationMap, _build_allocation, b_partners, baseline_offset


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
