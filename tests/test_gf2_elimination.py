"""Property tests for the word-block elimination kernel.

The oracle below is the column-at-a-time pivot loop the kernel replaced:
one pass per column, a scan of every remaining row, and a full-width
XOR per pivot.  Pivots, the reduced row echelon form, ``reduce``
residuals, the kernel basis and the pinned-free-variable preimage are
canonical functions of the row space, so the kernel must reproduce the
oracle's results exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycss import gf2
from cayleycss.gf2 import BitMatrix, BitVector, RowEchelonCache

# -- oracle: the column-at-a-time loop -----------------------------------


def oracle_echelon(M: BitMatrix) -> RowEchelonCache:
    work = M.words.copy()
    pivots = []
    r = 0
    for c in range(M.cols):
        wi = c >> 6
        bit = np.uint64(1 << (c & 63))
        hits = np.nonzero(work[r:, wi] & bit)[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            work[[r, p]] = work[[p, r]]
        below = (work[r + 1:, wi] & bit) != 0
        if below.any():
            work[r + 1:][below] ^= work[r]
        pivots.append(c)
        r += 1
        if r == M.rows:
            break
    return RowEchelonCache(pivots, work[: len(pivots)].copy())


def oracle_rref(ech: RowEchelonCache) -> np.ndarray:
    basis = ech.basis.copy()
    for r in range(ech.rank - 1, 0, -1):
        c = ech.pivots[r]
        above = (basis[:r, c >> 6] & np.uint64(1 << (c & 63))) != 0
        if above.any():
            basis[:r][above] ^= basis[r]
    return basis


def oracle_reduce(ech: RowEchelonCache, words: np.ndarray) -> np.ndarray:
    out = words.copy()
    for r, c in enumerate(ech.pivots):
        if (out[c >> 6] >> np.uint64(c & 63)) & np.uint64(1):
            out ^= ech.basis[r]
    return out


def oracle_kernel(M: BitMatrix) -> list[int]:
    ech = oracle_echelon(M)
    rref = oracle_rref(ech)
    out = []
    for f in sorted(set(range(M.cols)) - set(ech.pivots)):
        value = 1 << f
        for r, c in enumerate(ech.pivots):
            if (int(rref[r, f >> 6]) >> (f & 63)) & 1:
                value |= 1 << c
        out.append(value)
    return out


def oracle_solve(M: BitMatrix, b: BitVector) -> int | None:
    """Gauss-Jordan on [M | b]; free variables pinned to zero."""
    rhs = np.array([b.bit(i) for i in range(b.length)], dtype=np.uint8)
    dense = np.hstack([M.to_dense(), rhs[:, None]])
    r = 0
    pivots = []
    for c in range(M.cols):
        hits = np.nonzero(dense[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        dense[[r, p]] = dense[[p, r]]
        others = dense[:, c].astype(bool)
        others[r] = False
        dense[others] ^= dense[r]
        pivots.append(c)
        r += 1
        if r == M.rows:
            break
    if dense[r:, -1].any():
        return None
    return sum(1 << c for i, c in enumerate(pivots) if dense[i, -1])


# -- strategies ------------------------------------------------------------

#: Sizes biased to the 64-bit word boundaries.
SIZES = st.one_of(
    st.sampled_from([1, 63, 64, 65, 127, 128, 129]), st.integers(1, 140)
)


@st.composite
def matrices(draw):
    """A dense 0/1 array of a drawn kind, shape and memory layout."""
    rows, cols = draw(SIZES), draw(SIZES)
    kind = draw(st.sampled_from(["zero", "ones", "random", "full-rank"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        dense = np.zeros((rows, cols), dtype=np.uint8)
    elif kind == "ones":
        dense = np.ones((rows, cols), dtype=np.uint8)
    elif kind == "random":
        density = draw(st.sampled_from([0.02, 0.1, 0.5, 0.9]))
        dense = (rng.random((rows, cols)) < density).astype(np.uint8)
    else:
        # min(rows, cols) distinct unit rows, mixed by an invertible
        # lower times upper unitriangular matrix: rank min(rows, cols).
        k = min(rows, cols)
        dense = np.zeros((rows, cols), dtype=np.int64)
        dense[np.arange(k), rng.permutation(cols)[:k]] = 1
        lower = np.tril(rng.integers(0, 2, (rows, rows)), -1) + np.eye(
            rows, dtype=np.int64
        )
        upper = np.triu(rng.integers(0, 2, (rows, rows)), 1) + np.eye(
            rows, dtype=np.int64
        )
        dense = (lower @ (upper @ dense % 2) % 2).astype(np.uint8)
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        dense = np.asfortranarray(dense)
    elif layout == "strided":
        big = np.zeros((2 * rows, 3 * cols), dtype=np.uint8)
        big[::2, ::3] = dense
        dense = big[::2, ::3]
    return dense


def vector(rng, length) -> BitVector:
    return BitVector.from_support(
        length, np.flatnonzero(rng.integers(0, 2, length))
    )


# -- properties ------------------------------------------------------------


@settings(max_examples=60, deadline=None, database=None)
@given(matrices(), st.integers(0, 2**32 - 1))
def test_kernel_matches_column_loop(dense, seed):
    M = BitMatrix.from_dense(dense)
    assert np.array_equal(M.to_dense(), dense)
    ech = gf2._echelon(M)
    want = oracle_echelon(M)
    assert ech.pivots == want.pivots
    assert gf2.rank(M) == want.rank
    assert np.array_equal(gf2._rref(ech.basis.copy(), ech.pivots), oracle_rref(want))
    rng = np.random.default_rng(seed)
    for _ in range(4):
        v = vector(rng, M.cols)
        residual = ech.reduce(v.words)
        assert np.array_equal(residual, oracle_reduce(want, v.words))
        assert not any(residual[c >> 6] >> np.uint64(c & 63) & np.uint64(1)
                       for c in ech.pivots)
    kernel = [v.to_int() for v in gf2.kernel_basis(M)]
    assert kernel == oracle_kernel(M)
    assert gf2.rank(M) + len(kernel) == M.cols


@settings(max_examples=60, deadline=None, database=None)
@given(matrices(), st.integers(0, 2**32 - 1))
def test_solver_matches_gauss_jordan(dense, seed):
    M = BitMatrix.from_dense(dense)
    rng = np.random.default_rng(seed)
    reachable = M.mul_vector(vector(rng, M.cols))
    for b in (reachable, vector(rng, M.rows)):
        x = gf2.solve_preimage(M, b)
        want = oracle_solve(M, b)
        assert (None if x is None else x.to_int()) == want
        if x is not None:
            assert M.mul_vector(x) == b
    assert gf2.solve_preimage(M, reachable) is not None


@settings(max_examples=60, deadline=None, database=None)
@given(matrices(), st.integers(0, 2**32 - 1))
def test_blockwise_reduce_matches_per_pivot_loop(dense, seed):
    # A cache built directly from pivots and rows, as the oracle builds
    # it, reduces through its fully reduced rows exactly as the
    # per-pivot loop does, on random words and on row-space words
    # (residual zero).
    M = BitMatrix.from_dense(dense)
    ech = oracle_echelon(M)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        for v in (vector(rng, M.cols),
                  M.transpose().mul_vector(vector(rng, M.rows))):
            want = oracle_reduce(ech, v.words)
            assert np.array_equal(ech.reduce(v.words), want)
        assert not ech.reduce(v.words).any()


# -- the fully reduced rows are built once, and never for the rank ---------


@pytest.fixture
def rref_calls(monkeypatch):
    """The list of row counts ``gf2._rref`` was called with."""
    calls = []
    real = gf2._rref

    def spy(basis, pivots):
        calls.append(len(pivots))
        return real(basis, pivots)

    monkeypatch.setattr(gf2, "_rref", spy)
    return calls


def random_matrix(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    return BitMatrix.from_dense(rng.integers(0, 2, (rows, cols)))


def test_rank_leaves_the_reduced_rows_unbuilt(rref_calls):
    M = random_matrix(90, 130)
    assert gf2.rank(M) == oracle_echelon(M).rank
    assert rref_calls == []


def test_membership_and_kernels_reduce_the_rows_once(rref_calls):
    M = random_matrix(90, 130)
    rng = np.random.default_rng(1)
    for i in range(10):
        if i % 2:
            v = M.transpose().mul_vector(vector(rng, M.rows))
            assert gf2.in_row_space(M, v)
        else:
            v = vector(rng, M.cols)
            want = not oracle_reduce(oracle_echelon(M), v.words).any()
            assert gf2.in_row_space(M, v) == want
    first = [v.to_int() for v in gf2.kernel_basis(M)]
    assert first == oracle_kernel(M)
    assert [v.to_int() for v in gf2.kernel_basis(M)] == first
    assert rref_calls == [gf2.rank(M)]


@pytest.mark.parametrize("rows", [0, 5])
@pytest.mark.parametrize("cols", [1, 64, 70])
def test_reduce_without_pivots_returns_its_input(rows, cols):
    # An all-zero matrix and a 0-row matrix have no pivots.
    M = BitMatrix(rows, cols, np.zeros((rows, (cols + 63) // 64),
                                       dtype=np.uint64))
    ech = gf2._echelon(M)
    assert ech.rank == 0
    rng = np.random.default_rng(cols)
    for v in (BitVector.zeros(cols), vector(rng, cols),
              BitVector.from_support(cols, [cols - 1])):
        assert np.array_equal(ech.reduce(v.words), v.words)
        assert gf2.in_row_space(M, v) == v.is_zero()
