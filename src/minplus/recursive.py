"""Level-recursive min-plus product and the collision audit.

The recursive engine runs the shared level loop (``basic.run_levels``) from
the top block length down to the floor ``AlgoParams.l_min`` (single entries
at ``l_min=1``, the paper's schedule), halving the block length each round.
Pairs whose candidate set crosses the size threshold at some level are
finished by that level's sampled pipeline; pairs still small at the last
level are finished there by direct candidate enumeration.

No product runs the rest of this module. The collision audit replays the
slot allocation of the paper after a product: at finer levels it descends
a 4-way slot tree, so collisions are searched inside the previous level's
collisions instead of among all segments again. Each sampled column is
segmented once, with the product's bucket rule (``basic.build_segments``,
no reduced copy), and its correspondence relations share the tree nodes
and footprints; only the slot draws and B partners differ between them.
Shared slots are searched as the children of each slot's diagonal pair.
The audit only fills counters; results never depend on it. The flat
slot allocation and the packed rectangular products that route a sampled
column's blocks through these slots in the paper are a test-side reference
(``tests/packed_reference.py``).
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
    build_segments,
    ceil_tol,
    check_operands,
    derived_rng,
    encode_keys,
    run_levels,
)
from .matrix import BDMatrix, Matrix

_PH_ALLOC_LVL = 12


# ---------------------------------------------------------------------------
# segment correspondence and slot sharing


def b_partners(seg_b: SegmentTable, a_keys: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in seg_b of the B segments corresponding to the A segment
    keys (block column, bucket p) under one relation, bucket shift - p, and
    whether each exists; a missing partner's position is meaningless."""
    b_enc = encode_keys(seg_b.keys[:, 0], seg_b.keys[:, 1])
    want = encode_keys(a_keys[:, 0], shift - a_keys[:, 1])
    if not len(b_enc):
        return np.zeros(len(want), dtype=np.int64), np.zeros(len(want), dtype=bool)
    pos = np.minimum(np.searchsorted(b_enc, want), len(b_enc) - 1)
    return pos, b_enc[pos] == want


def colocated_pairs(slots: np.ndarray) -> np.ndarray:
    """All ordered pairs of distinct indices sharing a slot: rows (slot, i, j)
    by slot, then i, then j. They are the children of each shared slot's
    diagonal pair (slot, slot), with the indices as the slots' children;
    slots are non-negative and index per-slot counts."""
    members, starts, counts = _children_index(slots, int(slots.max(initial=-1)) + 1)
    shared = np.flatnonzero(counts >= 2)
    i, j = _expand_children(np.stack([shared, shared], 1), members, starts, counts)
    keep = i != j
    i, j = i[keep], j[keep]
    return np.stack([slots[i], i, j], 1)


def cross_check_count(slots: np.ndarray, a_sizes: np.ndarray, b_sizes: np.ndarray) -> int:
    """Sum over slots of |A_p| * |B_q| across ordered pairs p != q sharing
    the slot, the block products a collision search enumerates: per slot,
    (sum of A sizes) * (sum of B sizes) minus the p == q terms."""
    n_slots = int(slots.max(initial=-1)) + 1
    a_sum = np.zeros(n_slots, dtype=np.int64)
    b_sum = np.zeros(n_slots, dtype=np.int64)
    np.add.at(a_sum, slots, a_sizes)
    np.add.at(b_sum, slots, b_sizes)
    return int(a_sum @ b_sum - a_sizes @ b_sizes)


# ---------------------------------------------------------------------------
# slot tree


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


def _covering(seg: SegmentTable, seg_of_member: np.ndarray, blocks: np.ndarray, sh: int) -> np.ndarray:
    """Per segment of seg, whether a member, coarsened sh times, is one of
    the given block indices coarsened the same way."""
    target = np.zeros(len(seg.buckets) >> sh, dtype=bool)
    target[blocks >> sh] = True
    hit = np.zeros(len(seg.keys), dtype=bool)
    hit[seg_of_member[target[seg.members >> sh]]] = True
    return hit


def _audit_column(
    seg_a: SegmentTable,
    seg_b: SegmentTable,
    shifts: tuple[int, ...],
    rngs: list[np.random.Generator],
    l0: int,
    top_slots: int,
    blocks: np.ndarray,
    counters: Counters,
) -> None:
    """Tree allocation of one sampled column's segments for each
    correspondence relation, with incremental collision finding restricted
    to collisions whose footprint touches the column's assigned blocks.

    The tree nodes, which segments cover an assigned block row or column,
    and the A-side node sizes do not depend on the relation and are built
    once; each relation draws its tree from its own stream in ``rngs``.
    """
    depth = int(math.log2(l0 // seg_a.block_len))
    a_of_member = np.repeat(np.arange(len(seg_a.keys)), seg_a.sizes)
    b_of_member = np.repeat(np.arange(len(seg_b.keys)), seg_b.sizes)
    # per tree level j: node keys (halving both the block column and the
    # bucket index reproduces the coarser level's grouping exactly), each
    # segment's node, whether a node covers an assigned block row, and
    # whether a B segment covers an assigned block column
    node_keys, node_of, row_hit, b_col_hit = [], [], [], []
    for j in range(depth + 1):
        sh = depth - j
        kj = seg_a.keys >> sh
        _, first, node = np.unique(encode_keys(kj[:, 0], kj[:, 1]), return_index=True, return_inverse=True)
        node_keys.append(kj[first])
        node_of.append(node)
        hit = np.zeros(len(first), dtype=bool)
        hit[node[_covering(seg_a, a_of_member, blocks[:, 0], sh)]] = True
        row_hit.append(hit)
        b_col_hit.append(_covering(seg_b, b_of_member, blocks[:, 1], sh))
    a_size = np.zeros(len(node_keys[0]), dtype=np.int64)
    np.add.at(a_size, node_of[0], seg_a.sizes)

    for shift, rng in zip(shifts, rngs):
        tree = allocate_top(node_keys[0], l0, top_slots, rng)
        for j in range(1, depth + 1):
            tree = allocate_recursive(tree, node_keys[j], rng)
        pos, found = b_partners(seg_b, seg_a.keys, shift)
        b_size = np.zeros(len(node_keys[0]), dtype=np.int64)
        np.add.at(b_size, node_of[0], np.where(found, seg_b.sizes[pos], 0))
        counters.collision_checks += cross_check_count(tree.levels[0].slots, a_size, b_size)
        col_hit = []
        for j in range(depth + 1):
            hit = np.zeros(len(node_keys[j]), dtype=bool)
            hit[node_of[j][found & b_col_hit[j][pos]]] = True
            col_hit.append(hit)

        pairs = colocated_pairs(tree.levels[0].slots)
        pairs = pairs[row_hit[0][pairs[:, 1]] & col_hit[0][pairs[:, 2]]]
        for j in range(1, depth + 1):
            diag = np.flatnonzero(row_hit[j - 1] & col_hit[j - 1])
            pairs = collisions_incremental(pairs, tree, j, counters, diagonal_nodes=diag)
            pairs = pairs[row_hit[j][pairs[:, 1]] & col_hit[j][pairs[:, 2]]]
        counters.collisions_found += len(pairs)


# ---------------------------------------------------------------------------
# audit and entry point


def collision_audit(
    a: BDMatrix,
    b: BDMatrix,
    params: AlgoParams,
    level_trace: list[LevelState],
    counters: Counters,
) -> None:
    """Collision accounting of a finished product, replayed from its level
    trace with the product's own seed.

    For every level and every sampled column that computed blocks, the
    segments of the column's reduced matrices are placed in a 4-way slot
    tree rooted at the top block length l0, per correspondence relation,
    and the collisions touching the column's blocks are found level by
    level. Adds to collision_checks and collisions_found, and raises
    max_large_slots to the most segments of at least T_gamma blocks in one
    block-length-l0 table.

    A level with exponent theta (block length l = n**(1-theta)) gives the
    top of its tree n**(2*theta_0 - theta) slots, at least one: the slot
    exponent of the paper with the cubic kernel used here.
    """
    if not level_trace:
        return
    ad, bd = a.base.data, b.base.data
    n = a.n
    l0 = level_trace[0].block_len
    t_gamma = params.t_gamma(n)
    for li, st in enumerate(level_trace):
        if not st.assigned:
            continue
        l = st.block_len
        top_slots = max(1, ceil_tol(n ** (2 * level_trace[0].theta - st.theta)))
        for r_col in sorted(st.assigned):
            seg_a, seg_b, shifts = build_segments(ad, bd, l, params.delta, r_col)
            if l == l0:
                counters.max_large_slots = max(counters.max_large_slots, int((seg_a.sizes >= t_gamma).sum()))
            rngs = [derived_rng(params.seed, _PH_ALLOC_LVL, li, r_col, rel) for rel in range(len(shifts))]
            _audit_column(seg_a, seg_b, shifts, rngs, l0, top_slots, st.assigned[r_col], counters)


def recursive_minplus(
    a: BDMatrix,
    b: BDMatrix,
    params: AlgoParams,
    *,
    counters: Counters | None = None,
    level_trace: list[LevelState] | None = None,
) -> Matrix:
    """Exact min-plus product via level-by-level candidate refinement: the
    level loop over block lengths l0, l0/2, ..., down to min(l0, l_min)
    (``AlgoParams.levels``); pairs still pending at the last level are
    enumerated there. ``l_min=1`` refines to single entries, as the paper
    does.

    Deterministic for a fixed params.seed.
    """
    check_operands(a, b, params, "recursive_minplus")
    return run_levels(a, b, params, params.levels(a.n), counters, level_trace)
