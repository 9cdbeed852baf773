"""Ground-truth min-plus products.

Two independent routes: a naive cubic kernel under saturating addition, and
a product for small-entry matrices that encodes each entry as a monomial,
multiplies the polynomial matrices degree slice by degree slice with an
exact integer matrix product, and reads the answer off the lowest nonzero
degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import INF, Matrix, check_operand

_ROW_CHUNK = 32


def minplus_naive(a: Matrix, b: Matrix) -> Matrix:
    """Exact min-plus product: C[i,j] = min_k A[i,k] + B[k,j], INF absorbing."""
    if a.n_cols != b.n_rows:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    check_operand(a, "a")
    check_operand(b, "b")
    ad, bd = a.data, b.data
    b_inf = bd == INF
    bz = np.where(b_inf, 0, bd)
    out = np.empty((a.n_rows, b.n_cols), dtype=np.int64)
    for lo in range(0, a.n_rows, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, a.n_rows)
        rows = ad[lo:hi]
        a_inf = rows == INF
        s = np.where(a_inf, 0, rows)[:, :, None] + bz[None, :, :]
        s = np.where(a_inf[:, :, None] | b_inf[None, :, :], INF, s)
        out[lo:hi] = s.min(axis=1)
    return Matrix(out)


@dataclass(frozen=True, eq=False)
class PolyMatrix:
    """Matrix of polynomials with nonnegative int64 coefficients.

    coeffs has shape (n_rows, n_cols, degree_bound + 1); the all-zero
    polynomial encodes +infinity.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs)
        if arr.ndim != 3:
            raise ValueError(f"coefficient array must be 3-D, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"coefficients must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=True)
        if np.any(arr < 0):
            raise ValueError("coefficients must be nonnegative")
        object.__setattr__(self, "coeffs", arr)

    @property
    def n_rows(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_cols(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree_bound(self) -> int:
        return self.coeffs.shape[2] - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return bool(np.array_equal(self.coeffs, other.coeffs))


def encode_poly(a: Matrix, m_bound: int) -> PolyMatrix:
    """Encode finite entry v as the monomial of degree v + m_bound; INF as zero.

    The degree bound of the result is 2 * m_bound.
    """
    m_bound = int(m_bound)
    if m_bound < 0:
        raise ValueError("m_bound must be nonnegative")
    d = a.data
    finite = d != INF
    if np.any(finite & ((d < -m_bound) | (d > m_bound))):
        raise ValueError(f"finite entries must lie in [-{m_bound}, {m_bound}]")
    coeffs = np.zeros((a.n_rows, a.n_cols, 2 * m_bound + 1), dtype=np.int64)
    ii, jj = np.nonzero(finite)
    coeffs[ii, jj, d[ii, jj] + m_bound] = 1
    return PolyMatrix(coeffs)


def poly_matmul(a: PolyMatrix, b: PolyMatrix, counters=None) -> PolyMatrix:
    """Exact polynomial-coefficient matrix product.

    Degree-sliced: each coefficient slice of ``a`` multiplies all of ``b``
    and the products accumulate by degree. Output coefficients count
    witnesses, so they may exceed 1. A slice product is bounded by max(a) *
    max(b) * k: below 2**53 every product and partial sum is an integer a
    double holds, so the float64 GEMM computes it exactly whatever its
    summation order; below 2**63 the int64 matmul does; above, OverflowError.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"inner dimensions differ: {a.n_cols} vs {b.n_rows}")
    da, db = a.degree_bound, b.degree_bound
    n, k, m = a.n_rows, a.n_cols, b.n_cols
    out = np.zeros((n, m, da + db + 1), dtype=np.int64)

    b_flat = np.ascontiguousarray(b.coeffs.reshape(k, m * (db + 1)))
    bound = int(a.coeffs.max(initial=0)) * int(b.coeffs.max(initial=0)) * max(k, 1)
    if bound >= 1 << 63:
        raise OverflowError(f"matrix product may exceed int64 (bound {bound})")
    use_float = bound < 1 << 53
    if use_float:
        b_float = b_flat.astype(np.float64)
    ops = 0
    for d1 in range(da + 1):
        a_slice = a.coeffs[:, :, d1]
        if not a_slice.any():
            continue
        if use_float:
            prod = (a_slice.astype(np.float64) @ b_float).astype(np.int64)
        else:
            prod = a_slice @ b_flat
        out[:, :, d1 : d1 + db + 1] += prod.reshape(n, m, db + 1)
        ops += n * k * m * (db + 1)
    if int(out.max(initial=0)) >= (1 << 62):
        raise OverflowError("accumulated coefficients approach int64 range")
    if counters is not None:
        counters.poly_degree_ops += ops
    return PolyMatrix(out)


def extract_min(c: PolyMatrix, m_total: int) -> Matrix:
    """Lowest nonzero degree of each cell minus m_total; all-zero cells map to INF."""
    m_total = int(m_total)
    nz = c.coeffs != 0
    any_nz = nz.any(axis=2)
    first = nz.argmax(axis=2).astype(np.int64)
    out = np.where(any_nz, first - m_total, INF)
    return Matrix(out)


def minplus_small_entries(a: Matrix, b: Matrix, m_bound: int, counters=None) -> Matrix:
    """Min-plus product via the polynomial encoding.

    Requires every finite entry of both matrices to lie in [-m_bound, m_bound];
    equals minplus_naive exactly.
    """
    check_operand(a, "a")
    check_operand(b, "b")
    ca = encode_poly(a, m_bound)
    cb = encode_poly(b, m_bound)
    prod = poly_matmul(ca, cb, counters)
    return extract_min(prod, 2 * int(m_bound))
