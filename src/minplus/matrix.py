"""Dense integer matrices with an infinity sentinel, bounded-difference
generation and validation, and the MPM1 text format.

Entries are 64-bit signed integers; the distinguished value ``INF``
(2**62) stands for +infinity and is absorbing under saturating addition.
The operands of a product are capped at 2**60 in magnitude, so sums of two
entries plus bucketing offsets stay far below the int64 limit. A matrix
holds finite entries up to 2**61, so the product of any two operands is a
matrix too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

INF: int = 1 << 62
MAX_ENTRY: int = 1 << 61  # largest finite magnitude a matrix or an MPM1 file holds
MAX_OPERAND: int = 1 << 60  # largest finite magnitude a product accepts


class FormatError(ValueError):
    """Malformed MPM1 file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _as_entry_array(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError(f"matrix data must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("matrix dimensions must be positive")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"matrix entries must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, order="C", copy=True)  # C order: the kernels read rows and slices
    finite = arr != INF
    if np.any(finite & (np.abs(arr) > MAX_ENTRY)):
        raise ValueError("finite entries must have magnitude <= 2**61")
    return arr


def product_matrix(c: np.ndarray) -> Matrix:
    """A Matrix over the product ``c`` an engine wrote, or over the
    representative minima a candidate scan wrote (INF where it scanned no
    pair), kept without the copy and range check ``Matrix(c)`` makes: every
    finite entry of ``c`` is a sum of two product operands, which the
    operand cap keeps within MAX_ENTRY. ``c`` must be a C-contiguous 2-D
    int64 array that nothing else writes; it is marked read-only."""
    if c.dtype != np.int64 or c.ndim != 2 or not c.flags.c_contiguous:
        raise ValueError(f"a product must be a C-contiguous 2-D int64 array, got {c.dtype} {c.shape}")
    c.setflags(write=False)
    m = object.__new__(Matrix)
    object.__setattr__(m, "data", c)
    return m


def check_operand(m: Matrix, name: str = "operand") -> None:
    """Reject a product operand with a finite entry beyond MAX_OPERAND in
    magnitude; within the cap, every product entry stays within MAX_ENTRY."""
    d = m.data
    if np.any((d != INF) & (np.abs(d) > MAX_OPERAND)):
        raise ValueError(_operand_cap_message(name))


def operand_range(m: Matrix, name: str = "operand") -> tuple[int, int]:
    """Minimum and maximum of an all-finite product operand, checked against
    the operand cap as ``check_operand`` does, in two reductions and no
    temporary."""
    lo, hi = int(m.data.min()), int(m.data.max())
    if max(-lo, hi) > MAX_OPERAND:
        raise ValueError(_operand_cap_message(name))
    return lo, hi


def _operand_cap_message(name: str) -> str:
    return f"{name}: product operands must have finite entries of magnitude <= 2**60"


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable dense int64 matrix; ``INF`` entries represent +infinity."""

    data: np.ndarray

    def __post_init__(self):
        arr = _as_entry_array(self.data)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def all_finite(self) -> bool:
        return bool(np.all(self.data != INF))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return f"Matrix({self.n_rows}x{self.n_cols})"


@dataclass(frozen=True, eq=False)
class BDMatrix:
    """Square all-finite matrix whose adjacent entries differ by less than
    ``delta``, with power-of-two dimension."""

    base: Matrix
    delta: int

    def __post_init__(self):
        object.__setattr__(self, "delta", int(self.delta))
        if self.delta < 1:
            raise ValueError(f"delta must be a positive integer, got {self.delta}")
        if not self.base.is_square():
            raise ValueError("bounded-difference matrices must be square")
        if not _is_pow2(self.base.n_rows):
            raise ValueError(f"dimension must be a power of two, got {self.base.n_rows}")
        if not validate_bd(self.base, self.delta):
            raise ValueError(f"matrix violates the {self.delta}-bounded-difference property")

    @property
    def n(self) -> int:
        return self.base.n_rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, BDMatrix):
            return NotImplemented
        return self.delta == other.delta and self.base == other.base

    def __repr__(self) -> str:
        return f"BDMatrix({self.n}x{self.n}, delta={self.delta})"


def validate_bd(m: Matrix, delta: int) -> bool:
    """True iff every horizontally and vertically adjacent pair of entries
    differs by strictly less than ``delta``.

    Non-square or INF-containing input is a contract violation and raises.
    """
    delta = int(delta)
    if delta < 1:
        raise ValueError(f"delta must be a positive integer, got {delta}")
    if not m.is_square():
        raise ValueError("validate_bd requires a square matrix")
    if not m.all_finite():
        raise ValueError("validate_bd requires an all-finite matrix")
    d = m.data
    return bool(
        np.all(np.abs(np.diff(d, axis=0)) < delta)
        and np.all(np.abs(np.diff(d, axis=1)) < delta)
    )


def generate_bd(n: int, delta: int, seed: int) -> BDMatrix:
    """Seeded 2-D random walk producing a delta-bounded-difference matrix.

    Each entry is drawn uniformly from the integer window satisfying both
    adjacency constraints; the window is never empty because diagonal
    neighbours differ by at most 2*(delta-1). Deterministic for fixed
    (n, delta, seed).

    Entry (i, j) depends only on (i-1, j) and (i, j-1), so the entries
    are filled one anti-diagonal at a time. In the flat C-order matrix, entry
    (i, d - i) of anti-diagonal d sits at i*(n-1) + d, so a diagonal is a
    slice of stride n - 1, and the up and left neighbours of its entries are
    two shifted slices of the diagonal before. The entries are those of the
    row-by-row walk over the same draws.
    """
    n = int(n)
    delta = int(delta)
    if not _is_pow2(n):
        raise ValueError(f"n must be a positive power of two, got {n}")
    if delta < 1:
        raise ValueError(f"delta must be a positive integer, got {delta}")
    x = np.zeros((n, n), dtype=np.int64)
    if delta > 1 and n > 1:
        rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
        span = 2 * delta - 1  # window width for a single-constraint step
        steps = rng.integers(-(delta - 1), delta, size=n - 1)
        draws = rng.integers(0, 1 << 62, size=(n - 1, n), dtype=np.int64)  # draws[i - 1, j] sets entry (i, j)
        x[0, 1:] = np.cumsum(steps)
        x[1:, 0] = np.cumsum(draws[:, 0] % span - (delta - 1))
        flat, d_flat, m = x.reshape(-1), draws.reshape(-1), n - 1
        for d in range(2, 2 * n - 1):
            lo, hi = max(1, d - m), min(d, n)  # rows of the diagonal's inner entries
            prev = flat[(lo - 1) * m + d - 1 : hi * m + d - 1 : m]  # rows lo-1 .. hi-1 of diagonal d-1
            up, left = prev[:-1], prev[1:]
            top, bottom = np.maximum(up, left), np.minimum(up, left)
            d_row = d_flat[(lo - 1) * m + d - 1 : (hi - 1) * m + d - 1 : m]
            flat[lo * m + d : hi * m + d : m] = top - (delta - 1) + d_row % (bottom - top + 2 * delta - 1)
    return BDMatrix(Matrix(x), delta)


def _format_entry(v: int) -> str:
    return "inf" if v == INF else str(int(v))


def _parse_entry(tok: str, line: int) -> int:
    if tok == "inf":
        return INF
    try:
        v = int(tok)
    except ValueError:
        raise FormatError(f"invalid token {tok!r}", line) from None
    if abs(v) > MAX_ENTRY:
        raise FormatError(f"entry {v} out of range (|v| <= 2**61)", line)
    return v


def write_matrix(m: Matrix | BDMatrix, path: str | os.PathLike) -> None:
    """Write a matrix in the MPM1 text format; BDMatrix inputs get a DELTA line."""
    delta = None
    if isinstance(m, BDMatrix):
        delta = m.delta
        m = m.base
    lines = [f"MPM1 {m.n_rows} {m.n_cols}"]
    if delta is not None:
        lines.append(f"DELTA {delta}")
    for row in m.data:
        lines.append(" ".join(_format_entry(v) for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path: str | os.PathLike) -> Matrix | BDMatrix:
    """Parse an MPM1 file; returns a BDMatrix when a DELTA header is present.

    Round-trips with write_matrix, including INF entries. Structural
    problems raise FormatError with the offending line number.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError("empty file", 1)
    header = lines[0].split()
    if len(header) != 3 or header[0] != "MPM1":
        raise FormatError("expected header 'MPM1 <n_rows> <n_cols>'", 1)
    try:
        n_rows, n_cols = int(header[1]), int(header[2])
    except ValueError:
        raise FormatError("non-integer dimensions in header", 1) from None
    if n_rows < 1 or n_cols < 1:
        raise FormatError("dimensions must be positive", 1)

    pos = 1
    delta = None
    if pos < len(lines) and lines[pos].startswith("DELTA"):
        parts = lines[pos].split()
        if len(parts) != 2:
            raise FormatError("expected 'DELTA <delta>'", pos + 1)
        try:
            delta = int(parts[1])
        except ValueError:
            raise FormatError("non-integer delta", pos + 1) from None
        if delta < 1:
            raise FormatError("delta must be positive", pos + 1)
        pos += 1

    data = np.empty((n_rows, n_cols), dtype=np.int64)
    for i in range(n_rows):
        if pos >= len(lines):
            raise FormatError(f"expected {n_rows} rows, file ends after {i}", len(lines) + 1)
        toks = lines[pos].split()
        if len(toks) != n_cols:
            raise FormatError(f"expected {n_cols} tokens, got {len(toks)}", pos + 1)
        for j, tok in enumerate(toks):
            data[i, j] = _parse_entry(tok, pos + 1)
        pos += 1
    for extra in range(pos, len(lines)):
        if lines[extra].strip():
            raise FormatError("unexpected extra row", extra + 1)

    m = Matrix(data)
    if delta is not None:
        return BDMatrix(m, delta)
    return m
