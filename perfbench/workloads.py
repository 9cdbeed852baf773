"""Seeded workload generators for the benchmark.

Every workload is a list of ``(A, B)`` pairs of ``BDMatrix`` inputs made from
the workload seed alone: the same seed gives the same pairs. The engines only
ever see the generated matrices.

- ``walk-*``: pairs from ``minplus.generate_bd``, the library's seeded 2-D
  random walk. Candidate sets cover almost every block column (density near
  1), so this is the dense worst case for the blocked engines.
- ``valley-*``: ``A[i,k] = (delta-1)*|k - c(i)|`` where the center ``c`` moves
  by at most one column per row, and ``B`` is the transpose of an independent
  ``A``. Near-optimal witnesses sit between the two centers, so candidate
  sets prune: the case bounded-difference inputs from edit-distance and
  folding recurrences are made for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from minplus import matrix


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "walk" or "valley"
    n: int
    delta: int
    pairs: int  # distinct input pairs made per run
    setup_reps: int  # set-up is repeated this often and its median reported


WORKLOADS = {
    w.name: w
    for w in (
        Workload("walk-64", "walk", 64, 2, pairs=24, setup_reps=10),
        Workload("walk-128", "walk", 128, 2, pairs=12, setup_reps=5),
        Workload("valley-256", "valley", 256, 2, pairs=9, setup_reps=20),
    )
}


def _stream(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), *key])


def valley_centers(n: int, rng: np.random.Generator) -> np.ndarray:
    """Center column per row, sweeping back and forth across a band of
    width n/16 around n/2: from a random phase, each row advances by one
    column or holds, at random. The center moves by at most one column per
    row, any two centers stay within n/16 of each other, and the repeated
    sweeps spread the centers evenly over the band, so the candidate density
    hardly varies between seeds."""
    band = n // 16
    start = n // 2 - band // 2
    if band == 0:
        return np.full(n, n // 2, dtype=np.int64)
    steps = rng.integers(0, 2, size=n - 1)
    path = int(rng.integers(0, 2 * band)) + np.concatenate([[0], np.cumsum(steps)])
    folded = np.mod(path, 2 * band)
    return start + np.where(folded <= band, folded, 2 * band - folded)


def valley_matrix(n: int, delta: int, rng: np.random.Generator) -> np.ndarray:
    """``(delta-1)*|k - c(i)|`` for row i and column k."""
    c = valley_centers(n, rng)
    return (delta - 1) * np.abs(np.arange(n, dtype=np.int64)[None, :] - c[:, None])


def make_pair(w: Workload, seed: int, index: int) -> tuple[matrix.BDMatrix, matrix.BDMatrix]:
    """Input pair ``index`` of workload ``w`` under ``seed``; both sides are
    validated by ``BDMatrix``."""
    if w.kind == "walk":
        sa, sb = (int(s) for s in _stream(seed, index).generate_state(2))
        return matrix.generate_bd(w.n, w.delta, sa), matrix.generate_bd(w.n, w.delta, sb)
    if w.kind == "valley":
        ra, rb = (np.random.default_rng(s) for s in _stream(seed, index).spawn(2))
        a = valley_matrix(w.n, w.delta, ra)
        b = valley_matrix(w.n, w.delta, rb).T
        return (
            matrix.BDMatrix(matrix.Matrix(a), w.delta),
            matrix.BDMatrix(matrix.Matrix(b), w.delta),
        )
    raise ValueError(f"unknown workload kind {w.kind!r}")


def make_pairs(w: Workload, seed: int) -> list[tuple[matrix.BDMatrix, matrix.BDMatrix]]:
    """All input pairs of one run."""
    return [make_pair(w, seed, i) for i in range(w.pairs)]


def engine_seed(seed: int, index: int) -> int:
    """Sampling seed handed to the engines for pair ``index``."""
    return int(_stream(seed, index, 1).generate_state(1)[0])
