"""Entry range: product operands are capped at 2**60, and a matrix holds
every product of two operands (|v| <= 2**61, below INF)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minplus as mp
from minplus import INF, MAX_ENTRY, MAX_OPERAND, AlgoParams, Matrix

SIGN = st.sampled_from([-1, 1])


def capped_bd(n, delta, seed, sign):
    """BD matrix whose largest magnitude is exactly MAX_OPERAND."""
    x = mp.generate_bd(n, delta, seed).base.data
    return mp.BDMatrix(Matrix(sign * (MAX_OPERAND - (x - x.min()))), delta)


def brute(a, b):
    """Python-integer min-plus product of finite matrices."""
    ad, bd = a.data.tolist(), b.data.tolist()
    return [[min(r[k] + bd[k][j] for k in range(len(bd))) for j in range(len(bd[0]))] for r in ad]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32), SIGN)
def test_naive_at_the_cap(rows, inner, cols, seed, sign):
    rng = np.random.default_rng(seed)
    a = Matrix(sign * (MAX_OPERAND - rng.integers(0, 3, size=(rows, inner))))
    b = Matrix(sign * (MAX_OPERAND - rng.integers(0, 3, size=(inner, cols))))
    got = mp.minplus_naive(a, b)
    assert got.data.tolist() == brute(a, b)
    assert np.abs(got.data).max() <= MAX_ENTRY < INF


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([4, 8, 16, 32]), st.integers(1, 5), st.integers(0, 2**16), SIGN, st.sampled_from([0.9, 0.6]))
def test_engines_at_the_cap(n, delta, seed, sign, alpha):
    a, b = capped_bd(n, delta, 2 * seed, sign), capped_bd(n, delta, 2 * seed + 1, sign)
    want = mp.minplus_naive(a.base, b.base)
    assert np.abs(want.data).max() > MAX_OPERAND  # the product leaves the operand range
    for beta in (0.6, 0.75):  # the paper's, which samples, and the default
        params = AlgoParams(delta=delta, alpha=alpha, beta=beta, seed=seed)
        assert mp.basic_minplus(a, b, params) == want
        assert mp.recursive_minplus(a, b, params) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2**32))
def test_smallentry_at_its_bound(m_bound, seed):
    # memory grows with m_bound, so the oracle is exercised at its own
    # bound; above 2**60 the operand check rejects before anything is built
    rng = np.random.default_rng(seed)
    a = Matrix(rng.choice([-m_bound, m_bound, INF], size=(3, 4)))
    b = Matrix(rng.choice([-m_bound, m_bound, INF], size=(4, 2)))
    assert mp.minplus_small_entries(a, b, m_bound) == mp.minplus_naive(a, b)


@pytest.mark.parametrize("algo", ["naive", "smallentry", "basic", "recursive"])
def test_operands_beyond_the_cap_rejected(algo):
    over = Matrix(np.full((4, 4), MAX_OPERAND + 1, dtype=np.int64))  # a valid matrix, not a valid operand
    ok = Matrix(np.zeros((4, 4), dtype=np.int64))
    with pytest.raises(ValueError, match="2\\*\\*60"):
        if algo == "naive":
            mp.minplus_naive(ok, over)
        elif algo == "smallentry":
            mp.minplus_small_entries(over, ok, MAX_OPERAND + 1)
        else:
            engine = mp.basic_minplus if algo == "basic" else mp.recursive_minplus
            engine(mp.BDMatrix(over, 1), mp.BDMatrix(ok, 1), AlgoParams(delta=1))


def test_matrix_and_mpm1_hold_products(tmp_path):
    m = Matrix(np.array([[MAX_ENTRY, -MAX_ENTRY], [INF, 0]]))
    path = tmp_path / "m.mpm"
    mp.write_matrix(m, path)
    assert mp.read_matrix(path) == m
