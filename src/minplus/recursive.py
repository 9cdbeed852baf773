"""Level-recursive min-plus product and the collision audit.

The recursive engine runs the shared level loop (``basic.run_levels``) from
the top block length down to single entries, halving the block length each
round. Pairs whose candidate set crosses the size threshold at some level
are finished by that level's sampled pipeline; pairs still small at block
length 1 are finished by direct candidate enumeration.

The collision audit replays the slot allocation of the paper after a
product: at finer levels it descends a 4-way slot tree, so collisions are
searched inside the previous level's collisions instead of among all
segments again. It only fills counters; results never depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basic import (
    AlgoParams,
    Counters,
    LevelState,
    SegmentTable,
    b_partners,
    build_segments,
    ceil_tol,
    check_operands,
    colocated_pairs,
    cross_check_count,
    derived_rng,
    encode_keys,
    run_levels,
)
from .matrix import BDMatrix, Matrix

_PH_ALLOC_LVL = 12


@dataclass
class TreeLevel:
    block_len: int
    slot_count: int
    keys: np.ndarray  # (m, 2) [block column, bucket] unique, lexicographic
    slots: np.ndarray
    parent: np.ndarray | None


@dataclass
class SlotTree:
    """Per-level slot assignments; each slot owns exactly 4 child slots."""

    levels: list[TreeLevel]

    @property
    def leaf(self) -> TreeLevel:
        return self.levels[-1]


def allocate_top(keys: np.ndarray, block_len: int, slot_count: int, rng: np.random.Generator) -> SlotTree:
    """Uniform slot choice for every top-level segment group."""
    if slot_count < 1:
        raise ValueError("slot_count must be positive")
    slots = rng.integers(0, slot_count, size=len(keys))
    return SlotTree([TreeLevel(block_len, slot_count, keys, slots, None)])


def allocate_recursive(tree: SlotTree, child_keys: np.ndarray, rng: np.random.Generator) -> SlotTree:
    """Place each half-length segment group uniformly among the 4 child
    slots of its parent's slot; children of distinct parents stay disjoint."""
    top = tree.leaf
    parent_enc = encode_keys(top.keys[:, 0], top.keys[:, 1])
    want = encode_keys(child_keys[:, 0] // 2, child_keys[:, 1] // 2)
    pos = np.searchsorted(parent_enc, want)
    ok = (pos < len(parent_enc)) & (parent_enc[np.minimum(pos, len(parent_enc) - 1)] == want)
    if not ok.all():
        raise ValueError("sub-segment with no parent record")
    choice = rng.integers(0, 4, size=len(child_keys))
    slots = top.slots[pos] * 4 + choice
    lev = TreeLevel(top.block_len // 2, top.slot_count * 4, child_keys, slots, pos)
    return SlotTree(tree.levels + [lev])


def collisions_exhaustive(tree: SlotTree, level_index: int) -> np.ndarray:
    """Reference per-slot enumeration at one tree level."""
    return colocated_pairs(tree.levels[level_index].slots)


def _expand_children(pairs: np.ndarray, child_of: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """Cartesian products of the children of each (parent a, parent b) pair."""
    pa, pb = pairs[:, 0], pairs[:, 1]
    ca_n, cb_n = counts[pa], counts[pb]
    per = ca_n * cb_n
    total = int(per.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    pair_id = np.repeat(np.arange(len(pairs)), per)
    offs = np.concatenate([[0], np.cumsum(per)[:-1]])
    r = np.arange(total) - offs[pair_id]
    ia = r // cb_n[pair_id]
    ib = r % cb_n[pair_id]
    ca = child_of[starts[pa[pair_id]] + ia]
    cb = child_of[starts[pb[pair_id]] + ib]
    return ca, cb


def _children_index(parent: np.ndarray, n_parents: int):
    order = np.argsort(parent, kind="stable")
    counts = np.bincount(parent, minlength=n_parents).astype(np.int64)
    starts = np.zeros(n_parents, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return order.astype(np.int64), starts, counts


def collisions_incremental(
    parent_collisions: np.ndarray,
    tree: SlotTree,
    level_index: int,
    counters: Counters | None = None,
    diagonal_nodes: np.ndarray | None = None,
) -> np.ndarray:
    """Collisions at one tree level found by searching only the children of
    the previous level's collisions and of nodes sharing a slot with
    themselves (every co-located child pair has co-located parents).

    Set-equal to collisions_exhaustive at the same level. Each candidate
    check is O(1); checks are counted when counters are given.
    """
    lev = tree.levels[level_index]
    par = tree.levels[level_index - 1]
    child_of, starts, counts = _children_index(lev.parent, len(par.keys))
    if diagonal_nodes is None:
        diagonal_nodes = np.arange(len(par.keys), dtype=np.int64)
    diag = np.stack([diagonal_nodes, diagonal_nodes], 1)
    seed_pairs = np.concatenate([parent_collisions[:, 1:3], diag], 0) if len(parent_collisions) else diag
    ca, cb = _expand_children(seed_pairs, child_of, starts, counts)
    if counters is not None:
        counters.collision_checks += len(ca)
    if not len(ca):
        return np.empty((0, 3), dtype=np.int64)
    keep = (ca != cb) & (lev.slots[ca] == lev.slots[cb])
    ca, cb = ca[keep], cb[keep]
    out = np.stack([lev.slots[ca], ca, cb], 1)
    # dedup: a child pair can descend from several seed pairs only via the
    # diagonal overlap, but keep the contract tight anyway
    if len(out):
        enc = (out[:, 1] * (len(lev.keys) + 1) + out[:, 2])
        _, first = np.unique(enc, return_index=True)
        out = out[np.sort(first)]
    return out


# ---------------------------------------------------------------------------
# per-level collision machinery (structural: counters and statistics)


def _level_collision_pass(
    seg_a: SegmentTable,
    seg_b: SegmentTable,
    l0: int,
    top_slots: int,
    gamma_blocks: np.ndarray,
    rng: np.random.Generator,
    shift: int,
    counters: Counters,
) -> np.ndarray:
    """Tree allocation of one reduced column's segments for one
    correspondence relation, with incremental collision finding restricted
    to collisions whose footprint touches the assigned blocks."""
    l = seg_a.block_len
    keys_t = seg_a.keys
    n_seg = len(keys_t)
    depth = int(math.log2(l0 // l))

    # node keys per tree level; halving both the column-block index and the
    # bucket index reproduces the coarser level's grouping exactly
    uniq_keys: list[np.ndarray] = []
    node_of_seg: list[np.ndarray] = []
    for j in range(depth + 1):
        sh = depth - j
        kj = np.stack([keys_t[:, 0] >> sh, keys_t[:, 1] >> sh], 1)
        enc = encode_keys(kj[:, 0], kj[:, 1])
        _, first, inverse = np.unique(enc, return_index=True, return_inverse=True)
        uniq_keys.append(kj[first])
        node_of_seg.append(inverse.astype(np.int64))

    tree = allocate_top(uniq_keys[0], l0, top_slots, rng)
    for j in range(1, depth + 1):
        tree = allocate_recursive(tree, uniq_keys[j], rng)

    # partner sizes per target segment
    pos, found = b_partners(seg_b, keys_t, shift)
    b_sizes_t = np.where(found, seg_b.sizes[pos], 0).astype(np.int64)

    # per-level footprint hits: does a node cover an assigned row / column
    seg_rows = np.concatenate(seg_a.members) if n_seg else np.empty(0, dtype=np.int64)
    row_seg_id = np.repeat(np.arange(n_seg), seg_a.sizes) if n_seg else np.empty(0, dtype=np.int64)
    bcol_lists = [seg_b.members[pos[i]] if found[i] else np.empty(0, dtype=np.int64) for i in range(n_seg)]
    seg_cols = np.concatenate(bcol_lists) if n_seg else np.empty(0, dtype=np.int64)
    col_seg_id = np.repeat(np.arange(n_seg), b_sizes_t) if n_seg else np.empty(0, dtype=np.int64)

    nb_t = seg_a.buckets.shape[0]
    row_hit_lv: list[np.ndarray] = []
    col_hit_lv: list[np.ndarray] = []
    for j in range(depth + 1):
        sh = depth - j
        nb_j = nb_t >> sh
        grow = np.zeros(nb_j, dtype=bool)
        gcol = np.zeros(nb_j, dtype=bool)
        grow[gamma_blocks[:, 0] >> sh] = True
        gcol[gamma_blocks[:, 1] >> sh] = True
        rh = np.zeros(len(uniq_keys[j]), dtype=bool)
        ch = np.zeros(len(uniq_keys[j]), dtype=bool)
        if len(seg_rows):
            np.logical_or.at(rh, node_of_seg[j][row_seg_id], grow[seg_rows >> sh])
        if len(seg_cols):
            np.logical_or.at(ch, node_of_seg[j][col_seg_id], gcol[seg_cols >> sh])
        row_hit_lv.append(rh)
        col_hit_lv.append(ch)

    # aggregate block counts per top node for the enumeration cost counter
    a_sz0 = np.zeros(len(uniq_keys[0]), dtype=np.int64)
    b_sz0 = np.zeros(len(uniq_keys[0]), dtype=np.int64)
    np.add.at(a_sz0, node_of_seg[0], seg_a.sizes)
    np.add.at(b_sz0, node_of_seg[0], b_sizes_t)
    counters.collision_checks += cross_check_count(tree.levels[0].slots, a_sz0, b_sz0)

    pairs = colocated_pairs(tree.levels[0].slots)
    if len(pairs):
        keep = row_hit_lv[0][pairs[:, 1]] & col_hit_lv[0][pairs[:, 2]]
        pairs = pairs[keep]
    for j in range(1, depth + 1):
        diag = np.flatnonzero(row_hit_lv[j - 1] & col_hit_lv[j - 1]).astype(np.int64)
        pairs = collisions_incremental(pairs, tree, j, counters, diagonal_nodes=diag)
        if len(pairs):
            keep = row_hit_lv[j][pairs[:, 1]] & col_hit_lv[j][pairs[:, 2]]
            pairs = pairs[keep]
    counters.collisions_found += len(pairs)
    return pairs


# ---------------------------------------------------------------------------
# audit and entry point


def collision_audit(
    a: BDMatrix,
    b: BDMatrix,
    params: AlgoParams,
    level_trace: list[LevelState],
    counters: Counters,
    effective_omega: float = 3.0,
) -> list[float]:
    """Collision accounting of a finished product, replayed from its level
    trace with the product's own seed.

    For every level and every sampled column that computed blocks, the
    segments of the column's reduced matrices are placed in a 4-way slot
    tree rooted at the top block length l0, per correspondence relation,
    and the collisions touching the column's blocks are found level by
    level. Adds to collision_checks and collisions_found, and raises
    max_large_slots to the most segments of at least T_gamma blocks in one
    block-length-l0 table.

    The per-level slot exponent is gamma_l = theta + effective_omega/3 - 1,
    with theta the level exponent (block length l = n**(1-theta)); the top
    level gets n**(2*theta_0 - gamma_l) slots, at least one. The default
    effective_omega = 3 is the cubic kernel used here. Returns gamma_l per
    level.
    """
    gammas = [st.theta + effective_omega / 3.0 - 1.0 for st in level_trace]
    if not level_trace:
        return gammas
    ad, bd = a.base.data, b.base.data
    n = a.n
    l0 = level_trace[0].block_len
    t_gamma = params.t_gamma(n)
    for li, (st, gamma_l) in enumerate(zip(level_trace, gammas)):
        if not st.assigned:
            continue
        l = st.block_len
        top_slots = max(1, ceil_tol(n ** (2 * level_trace[0].theta - gamma_l)))
        for r_col in sorted(st.assigned):
            a_rr = ad - ad[:, r_col : r_col + 1]
            b_rr = bd - bd[r_col : r_col + 1, :]
            seg_a, seg_b, shifts = build_segments(a_rr, b_rr, l, params.delta)
            if l == l0:
                counters.max_large_slots = max(counters.max_large_slots, int((seg_a.sizes >= t_gamma).sum()))
            for rel, shift in enumerate(shifts):
                rng = derived_rng(params.seed, _PH_ALLOC_LVL, li, r_col, rel)
                _level_collision_pass(seg_a, seg_b, l0, top_slots, st.assigned[r_col], rng, shift, counters)
    return gammas


def recursive_minplus(
    a: BDMatrix,
    b: BDMatrix,
    params: AlgoParams,
    *,
    counters: Counters | None = None,
    level_trace: list[LevelState] | None = None,
) -> Matrix:
    """Exact min-plus product via level-by-level candidate refinement: the
    level loop over block lengths l0, l0/2, ..., 1.

    Deterministic for a fixed params.seed.
    """
    l0 = params.block_len(check_operands(a, b, params, "recursive_minplus"))
    return run_levels(a, b, params, [l0 >> j for j in range(l0.bit_length())], counters, level_trace)
