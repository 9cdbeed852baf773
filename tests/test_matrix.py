import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minplus as mp
from minplus import INF, MAX_ENTRY, BDMatrix, FormatError, Matrix
from minplus.matrix import product_matrix


def bd_holds_brute(data, delta):
    n = len(data)
    for i in range(n):
        for j in range(n):
            if j + 1 < n and abs(int(data[i][j]) - int(data[i][j + 1])) >= delta:
                return False
            if i + 1 < n and abs(int(data[i][j]) - int(data[i + 1][j])) >= delta:
                return False
    return True


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix(np.zeros((2, 2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        Matrix(np.array([[0.5]]))
    with pytest.raises(ValueError):
        Matrix(np.array([[MAX_ENTRY + 1]]))
    m = Matrix(np.array([[1, INF], [0, -MAX_ENTRY]]))
    assert m.shape == (2, 2) and not m.all_finite()
    with pytest.raises(ValueError):
        m.data[0, 0] = 5  # immutable


def test_product_matrix_keeps_the_array():
    # the engines' result wrapper keeps the written array, read-only, and
    # takes only a C-contiguous 2-D int64 one
    c = np.arange(6, dtype=np.int64).reshape(2, 3)
    m = product_matrix(c)
    assert m.data is c and not c.flags.writeable and m == Matrix(np.arange(6).reshape(2, 3))
    not_c_order = np.zeros((4, 4), dtype=np.int64)[:, ::2]
    for bad in (np.zeros((2, 2), dtype=np.int32), not_c_order, np.zeros(4, dtype=np.int64)):
        with pytest.raises(ValueError):
            product_matrix(bad)


def test_generate_single_entry():
    m = mp.generate_bd(1, 1, 0)
    assert m.n == 1 and m.base.data[0, 0] == 0


def test_generate_deterministic():
    a = mp.generate_bd(64, 3, 7)
    b = mp.generate_bd(64, 3, 7)
    assert a == b
    assert a != mp.generate_bd(64, 3, 8)


def test_generate_validates():
    m = mp.generate_bd(64, 3, 7)
    assert mp.validate_bd(m.base, 3)


@pytest.mark.parametrize("n", [2, 8, 16])
@pytest.mark.parametrize("delta", [1, 2, 5])
def test_generate_brute_oracle(n, delta):
    for seed in range(10):
        m = mp.generate_bd(n, delta, seed)
        assert bd_holds_brute(m.base.data.tolist(), delta)


def test_generate_property_sweep():
    # generator output always passes validation with the same delta
    for seed in range(100):
        delta = 1 + seed % 5
        m = mp.generate_bd(16, delta, seed)
        assert mp.validate_bd(m.base, delta)


def generate_bd_loop(n, delta, seed):
    """Reference for generate_bd: the walk row by row, entry by entry, over
    the same draws."""
    x = np.zeros((n, n), dtype=np.int64)
    if delta > 1 and n > 1:
        rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
        span = 2 * delta - 1
        x[0, 1:] = np.cumsum(rng.integers(-(delta - 1), delta, size=n - 1))
        draws = rng.integers(0, 1 << 62, size=(n - 1, n), dtype=np.int64)
        for i in range(1, n):
            x[i, 0] = x[i - 1, 0] - (delta - 1) + int(draws[i - 1, 0]) % span
            for j in range(1, n):
                up, prev = int(x[i - 1, j]), int(x[i, j - 1])
                lo, hi = max(up, prev) - delta + 1, min(up, prev) + delta - 1
                x[i, j] = lo + int(draws[i - 1, j]) % (hi - lo + 1)
    return x


@pytest.mark.parametrize("n", [1, 2, 4, 8, 32, 128])
@pytest.mark.parametrize("delta", [1, 2, 3, 5])
def test_generate_matches_row_walk(n, delta):
    for seed in (0, 1, 7, 2**40 + 3):
        assert np.array_equal(mp.generate_bd(n, delta, seed).base.data, generate_bd_loop(n, delta, seed))


def test_generate_rejects():
    with pytest.raises(ValueError):
        mp.generate_bd(3, 1, 0)
    with pytest.raises(ValueError):
        mp.generate_bd(0, 1, 0)
    with pytest.raises(ValueError):
        mp.generate_bd(4, 0, 0)


def test_validate_examples():
    assert mp.validate_bd(Matrix(np.zeros((4, 4), dtype=np.int64)), 1)
    assert not mp.validate_bd(Matrix(np.array([[0, 5], [0, 0]])), 3)


def test_validate_contract_errors():
    with pytest.raises(ValueError):
        mp.validate_bd(Matrix(np.zeros((2, 3), dtype=np.int64)), 1)
    with pytest.raises(ValueError):
        mp.validate_bd(Matrix(np.array([[0, INF], [0, 0]])), 1)


def test_bdmatrix_rejects_bad_input():
    with pytest.raises(ValueError):
        BDMatrix(Matrix(np.array([[0, 5], [0, 0]])), 3)
    with pytest.raises(ValueError):
        BDMatrix(Matrix(np.zeros((3, 3), dtype=np.int64)), 1)  # not a power of two


def test_roundtrip_with_inf(tmp_path):
    m = Matrix(np.array([[1, INF], [-3, 7]]))
    path = tmp_path / "m.mpm"
    mp.write_matrix(m, path)
    assert mp.read_matrix(path) == m


def test_roundtrip_bd(tmp_path):
    m = mp.generate_bd(8, 2, 3)
    path = tmp_path / "bd.mpm"
    mp.write_matrix(m, path)
    back = mp.read_matrix(path)
    assert isinstance(back, BDMatrix) and back == m


def test_read_inf_token(tmp_path):
    path = tmp_path / "t.mpm"
    path.write_text("MPM1 1 2\n4 inf\n")
    m = mp.read_matrix(path)
    assert m.data[0, 0] == 4 and m.data[0, 1] == INF


def test_read_extra_row(tmp_path):
    path = tmp_path / "t.mpm"
    path.write_text("MPM1 2 2\n0 0\n0 0\n0 0\n")
    with pytest.raises(FormatError) as ei:
        mp.read_matrix(path)
    assert ei.value.line == 4


def test_read_errors(tmp_path):
    cases = [
        ("garbage\n", 1),
        ("MPM1 2\n", 1),
        ("MPM1 2 2\n0 0 0\n0 0\n", 2),
        ("MPM1 2 2\n0 0\n", 3),
        ("MPM1 1 1\nfoo\n", 2),
        (f"MPM1 1 1\n{(1 << 61) + 1}\n", 2),
        ("MPM1 1 1\nDELTA x\n0\n", 2),
    ]
    for text, line in cases:
        path = tmp_path / "bad.mpm"
        path.write_text(text)
        with pytest.raises(FormatError) as ei:
            mp.read_matrix(path)
        assert ei.value.line == line


@settings(max_examples=40)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**32),
)
def test_roundtrip_random(tmp_path_factory, rows, cols, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(-1000, 1000, size=(rows, cols))
    data = np.where(rng.random((rows, cols)) < 0.2, INF, data)
    m = Matrix(data)
    path = tmp_path_factory.mktemp("rt") / "m.mpm"
    mp.write_matrix(m, path)
    assert mp.read_matrix(path) == m
