"""Property tests for the XOR basis behind ``gf2``'s matrix functions.

The oracles below are the column-at-a-time pivot loop on packed words
(one pass per column, a scan of every remaining row, a full-width XOR
per pivot) and Gauss-Jordan on the dense [M | b].  Rank, row-space
membership, the reduced kernel basis and the pinned-free-variable
preimage are canonical functions of the matrix, so ``rank``,
``in_row_space``, ``kernel_basis`` and ``solve_preimage`` must
reproduce the oracles exactly.  Sizes straddle the 64-bit word
boundaries (63, 64, 65, 128) and include 0-row and 0-column matrices.
"""

from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycss import gf2
from cayleycss.gf2 import BitMatrix, BitVector

# -- oracles: the column-at-a-time loop ------------------------------------


def oracle_echelon(M: BitMatrix) -> tuple[list[int], np.ndarray]:
    """Pivot columns and echelon rows."""
    work = M.words.copy()
    pivots = []
    r = 0
    for c in range(M.cols):
        if r == M.rows:
            break
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
    return pivots, work[: len(pivots)].copy()


def oracle_rref(pivots: list[int], basis: np.ndarray) -> np.ndarray:
    basis = basis.copy()
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        above = (basis[:r, c >> 6] & np.uint64(1 << (c & 63))) != 0
        if above.any():
            basis[:r][above] ^= basis[r]
    return basis


def oracle_in_row_space(M: BitMatrix, v: BitVector) -> bool:
    pivots, basis = oracle_echelon(M)
    out = v.words.copy()
    for r, c in enumerate(pivots):
        if (out[c >> 6] >> np.uint64(c & 63)) & np.uint64(1):
            out ^= basis[r]
    return not out.any()


def oracle_kernel(M: BitMatrix) -> list[int]:
    pivots, basis = oracle_echelon(M)
    rref = oracle_rref(pivots, basis)
    out = []
    for f in sorted(set(range(M.cols)) - set(pivots)):
        value = 1 << f
        for r, c in enumerate(pivots):
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
        if r == M.rows:
            break
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
    if dense[r:, -1].any():
        return None
    return sum(1 << c for i, c in enumerate(pivots) if dense[i, -1])


# -- strategies ------------------------------------------------------------

#: Sizes biased to the 64-bit word boundaries, empty included.
SIZES = st.one_of(
    st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]), st.integers(1, 140)
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


def assert_matches_oracles(M: BitMatrix, rng) -> None:
    """rank, kernel_basis, in_row_space and solve_preimage of M against
    the oracles, on random words and on words of the row space and of
    the column space."""
    pivots, _ = oracle_echelon(M)
    assert gf2.rank(M) == len(pivots)
    kernel = [v.to_int() for v in gf2.kernel_basis(M)]
    assert kernel == oracle_kernel(M)
    assert gf2.rank(M) + len(kernel) == M.cols
    for _ in range(4):
        for v in (vector(rng, M.cols),
                  M.transpose().mul_vector(vector(rng, M.rows))):
            assert gf2.in_row_space(M, v) == oracle_in_row_space(M, v)
        reachable = M.mul_vector(vector(rng, M.cols))
        assert gf2.in_row_space(M.transpose(), reachable)
        for b in (reachable, vector(rng, M.rows)):
            x = gf2.solve_preimage(M, b)
            assert (None if x is None else x.to_int()) == oracle_solve(M, b)
            if x is not None:
                assert M.mul_vector(x) == b
        assert gf2.solve_preimage(M, reachable) is not None


# -- properties ------------------------------------------------------------


@settings(max_examples=60, deadline=None, database=None)
@given(matrices(), st.integers(0, 2**32 - 1))
def test_kernel_matches_column_loop(dense, seed):
    M = BitMatrix.from_dense(dense)
    assert np.array_equal(M.to_dense(), dense)
    assert_matches_oracles(M, np.random.default_rng(seed))


@pytest.mark.parametrize("cols", [0, 1, 63, 64, 65, 128])
@pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 128])
def test_word_boundary_shapes_match_the_oracles(rows, cols):
    rng = np.random.default_rng(rows * 1000 + cols)
    for density in (0.05, 0.5):
        M = BitMatrix.from_dense(rng.random((rows, cols)) < density)
        assert_matches_oracles(M, rng)


@settings(max_examples=60, deadline=None, database=None)
@given(matrices())
def test_row_basis_is_keyed_by_leading_bit(dense):
    # Each row has its key as leading bit length and lies in the row
    # space; there are rank(M) of them, so they span it, no row carries
    # a mask, and the cached mapping is read-only.
    M = BitMatrix.from_dense(dense)
    basis = gf2.row_basis(M)
    assert isinstance(basis, MappingProxyType)
    assert len(basis) == len(oracle_echelon(M)[0])
    for lead, (row, mask) in basis.items():
        assert row.bit_length() == lead > 0
        assert mask == 0
        assert oracle_in_row_space(M, BitVector.from_int(M.cols, row))
    with pytest.raises(TypeError):
        basis[0] = (0, 0)


# -- each basis is built once, and the rank builds no column basis ---------


@pytest.fixture
def eliminations(monkeypatch):
    """The number of inputs of every ``gf2.int_echelon`` call, and
    whether it keeps dependency masks."""
    calls = []
    real = gf2.int_echelon

    def spy(vectors, *args, **kwargs):
        vectors = list(vectors)
        calls.append((len(vectors), kwargs.get("masks", True)))
        return real(vectors, *args, **kwargs)

    monkeypatch.setattr(gf2, "int_echelon", spy)
    return calls


def random_matrix(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    return BitMatrix.from_dense(rng.integers(0, 2, (rows, cols)))


def test_rank_builds_no_column_basis(eliminations):
    # The 90 rows once, without masks.
    M = random_matrix(90, 130)
    assert gf2.rank(M) == len(oracle_echelon(M)[0])
    assert eliminations == [(90, False)]
    assert M._col_basis is None


def test_membership_kernels_and_solves_eliminate_once_each(eliminations):
    # The rows once for membership, without masks, and the 130 columns
    # once, with them, for the kernel and every solve.
    M = random_matrix(90, 130)
    rng = np.random.default_rng(1)
    for i in range(10):
        if i % 2:
            v = M.transpose().mul_vector(vector(rng, M.rows))
            assert gf2.in_row_space(M, v)
        else:
            v = vector(rng, M.cols)
            assert gf2.in_row_space(M, v) == oracle_in_row_space(M, v)
    first = [v.to_int() for v in gf2.kernel_basis(M)]
    assert first == oracle_kernel(M)
    assert [v.to_int() for v in gf2.kernel_basis(M)] == first
    b = M.mul_vector(vector(rng, M.cols))
    assert M.mul_vector(gf2.solve_preimage(M, b)) == b
    assert eliminations == [(90, False), (130, True)]


@pytest.mark.parametrize("rows", [0, 5])
@pytest.mark.parametrize("cols", [0, 1, 64, 70])
def test_matrix_without_pivots(rows, cols):
    # An all-zero matrix and a 0-row matrix have an empty basis: only
    # zero is in the row space, and the kernel is every unit vector.
    M = BitMatrix(rows, cols, np.zeros((rows, (cols + 63) // 64),
                                       dtype=np.uint64))
    assert gf2.rank(M) == 0 and not gf2.row_basis(M)
    assert [v.to_int() for v in gf2.kernel_basis(M)] == [
        1 << c for c in range(cols)
    ]
    rng = np.random.default_rng(cols)
    for v in (BitVector.zeros(cols), vector(rng, cols)):
        assert gf2.in_row_space(M, v) == v.is_zero()
    assert gf2.solve_preimage(M, BitVector.zeros(rows)) == BitVector.zeros(
        cols
    )
    if rows:
        assert gf2.solve_preimage(M, BitVector.from_int(rows, 1)) is None
