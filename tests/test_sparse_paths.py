"""Property tests for the set-bit paths: ``BitMatrix.nonzero`` and its
inverse ``BitMatrix.from_nonzero``, the four writers and readers, and
``is_self_orthogonal``.

The oracles below are the dense implementations these paths replaced:
writers that unpack the whole matrix to one byte per entry, and the row
loop that forms M . M^T one row at a time.  Outputs must be
byte-identical and verdicts equal.
"""

import hashlib
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycss import formats, gf2, repetition
from cayleycss.cayley import GeneratorSet, adjacency_matrix, halved_matrix
from cayleycss.gf2 import BitMatrix

# -- oracles: the dense writers and the row loop --------------------------


def oracle_alist(M: BitMatrix) -> str:
    dense = M.to_dense()
    col_lists = [list(np.nonzero(dense[:, j])[0] + 1) for j in range(M.cols)]
    row_lists = [list(np.nonzero(dense[i, :])[0] + 1) for i in range(M.rows)]
    col_deg = [len(c) for c in col_lists]
    row_deg = [len(r) for r in row_lists]
    max_col = max(col_deg, default=0)
    max_row = max(row_deg, default=0)
    lines = [
        f"{M.cols} {M.rows}",
        f"{max_col} {max_row}",
        " ".join(map(str, col_deg)),
        " ".join(map(str, row_deg)),
    ]
    lines += [
        " ".join(map(str, c + [0] * (max_col - len(c)))) for c in col_lists
    ]
    lines += [
        " ".join(map(str, r + [0] * (max_row - len(r)))) for r in row_lists
    ]
    return "\n".join(lines) + "\n"


def oracle_mtx(M: BitMatrix) -> str:
    rr, cc = np.nonzero(M.to_dense())
    lines = [
        "%%MatrixMarket matrix coordinate pattern general",
        f"{M.rows} {M.cols} {len(rr)}",
    ]
    lines += [f"{i + 1} {j + 1}" for i, j in zip(rr.tolist(), cc.tolist())]
    return "\n".join(lines) + "\n"


def oracle_bin(M: BitMatrix) -> bytes:
    header = formats._BIN_HEADER.pack(
        formats.BIN_MAGIC, formats.BIN_VERSION, 0, M.rows, M.cols
    )
    size = (M.cols + 7) // 8
    return header + b"".join(
        M.row(i).words.tobytes()[:size] for i in range(M.rows)
    )


def oracle_json(M: BitMatrix) -> str:
    dense = M.to_dense()
    payload = {
        "rows": M.rows,
        "cols": M.cols,
        "row_support": [
            np.nonzero(dense[i, :])[0].tolist() for i in range(M.rows)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


ORACLES = {
    "alist": oracle_alist,
    "mtx": oracle_mtx,
    "bin": oracle_bin,
    "json": oracle_json,
}


def oracle_self_orthogonal(M: BitMatrix) -> bool:
    for i in range(M.rows):
        parities = (
            np.bitwise_count(M.words & M.words[i][None, :]).sum(axis=1) & 1
        )
        if parities.any():
            return False
    return True


# -- strategies ------------------------------------------------------------

#: Sizes biased to the 64-bit word boundaries.
SIZES = st.one_of(
    st.sampled_from([0, 1, 63, 64, 65, 128, 129]), st.integers(1, 140)
)


def layout(draw, dense):
    """The same entries in C, Fortran or strided memory."""
    kind = draw(st.sampled_from(["c", "fortran", "strided"]))
    if kind == "fortran":
        return np.asfortranarray(dense)
    if kind == "strided":
        rows, cols = dense.shape
        big = np.zeros((2 * rows, 3 * cols), dtype=np.uint8)
        big[::2, ::3] = dense
        return big[::2, ::3]
    return dense


@st.composite
def matrices(draw):
    """A dense 0/1 array: zero, all-ones, random, or random with some
    rows and columns emptied."""
    rows, cols = draw(SIZES), draw(SIZES)
    kind = draw(st.sampled_from(["zero", "ones", "random", "holes"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        dense = np.zeros((rows, cols), dtype=np.uint8)
    elif kind == "ones":
        dense = np.ones((rows, cols), dtype=np.uint8)
    else:
        density = draw(st.sampled_from([0.01, 0.05, 0.2, 0.5, 0.9]))
        dense = (rng.random((rows, cols)) < density).astype(np.uint8)
        if kind == "holes":
            dense[rng.random(rows) < 0.3, :] = 0
            dense[:, rng.random(cols) < 0.3] = 0
    return layout(draw, dense)


@st.composite
def cayley_matrices(draw):
    """A Cayley adjacency matrix over F_2^m with |S| even (self-orthogonal),
    or the same with one bit flipped (not self-orthogonal)."""
    m = draw(st.integers(2, 8))
    nonzero = list(range(1, 1 << m))
    size = 2 * draw(st.integers(1, len(nonzero) // 2))
    S = draw(st.permutations(nonzero))[:size]
    M = adjacency_matrix(m, GeneratorSet(m, tuple(S)))
    if draw(st.booleans()):
        dense = M.to_dense()
        i = draw(st.integers(0, M.rows - 1))
        j = draw(st.integers(0, M.cols - 1))
        dense[i, j] ^= 1
        return BitMatrix.from_dense(layout(draw, dense))
    return M


# -- properties ------------------------------------------------------------


@settings(max_examples=80, deadline=None, database=None)
@given(matrices())
def test_nonzero_and_writers_match_dense_oracles(dense):
    M = BitMatrix.from_dense(dense)
    rows, cols = M.nonzero()
    want_rows, want_cols = np.nonzero(dense)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(cols, want_cols)
    for fmt, oracle in ORACLES.items():
        assert getattr(formats, f"write_{fmt}")(M) == oracle(M), fmt


@settings(max_examples=80, deadline=None, database=None)
@given(matrices())
def test_readers_invert_writers(dense):
    M = BitMatrix.from_dense(dense)
    for fmt in formats.FORMAT_NAMES:
        written = getattr(formats, f"write_{fmt}")(M)
        assert getattr(formats, f"read_{fmt}")(written) == M, fmt


@settings(max_examples=80, deadline=None, database=None)
@given(matrices(), st.integers(0, 2**32 - 1))
def test_from_nonzero_inverts_nonzero_with_repeats(dense, seed):
    M = BitMatrix.from_dense(dense)
    rng = np.random.default_rng(seed)
    rows, cols = M.nonzero()
    # Every coordinate, about half of them twice, in random order.
    take = np.concatenate(
        [np.arange(rows.size), rng.choice(rows.size, size=rows.size // 2)]
    )
    take = rng.permutation(take)
    assert BitMatrix.from_nonzero(M.rows, M.cols, rows[take], cols[take]) == M


def both_branches_agree(M: BitMatrix) -> None:
    """The public test, its sparse kernel and its forced row loop all
    give the oracle's verdict."""
    want = oracle_self_orthogonal(M)
    assert gf2.is_self_orthogonal(M) == want
    rows, cols = M.nonzero()
    deg = np.bincount(cols, minlength=M.cols)
    assert gf2._sparse_self_orthogonal(rows, cols, deg, M.rows) == want
    with mock.patch.object(gf2, "MAX_SPARSE_PAIRS", -1):
        assert gf2.is_self_orthogonal(M) == want


@settings(max_examples=80, deadline=None, database=None)
@given(matrices())
def test_self_orthogonality_matches_row_loop(dense):
    both_branches_agree(BitMatrix.from_dense(dense))


@settings(max_examples=80, deadline=None, database=None)
@given(cayley_matrices())
def test_self_orthogonality_on_cayley_matrices_and_near_misses(M):
    both_branches_agree(M)


def test_odd_entries_with_equal_index_sums_are_not_confused():
    # M . M^T is odd at exactly (0, 3) and (1, 2); every row has even
    # weight, so only a pair key that tells (0, 3) from (1, 2) sees it.
    M = BitMatrix.from_dense([
        [1, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 1, 0, 1],
        [1, 0, 1, 0, 0, 0],
    ])
    both_branches_agree(M)
    assert not gf2.is_self_orthogonal(M)


def sparse_branch_taken(M: BitMatrix) -> bool:
    with mock.patch.object(
        gf2, "_sparse_self_orthogonal", wraps=gf2._sparse_self_orthogonal
    ) as spy:
        gf2.is_self_orthogonal(M)
    return spy.called


def test_branch_follows_pair_count_against_dense_cost():
    # sum deg^2 = 2048 * 12^2 against 2048^2 * 32 / 8 words: sparse
    assert sparse_branch_taken(repetition.matrix(11))
    # all-ones 64 x 64: 64^3 pairs against 64^2 words: dense
    assert not sparse_branch_taken(BitMatrix.from_dense(np.ones((64, 64))))
    # a self-orthogonal Cayley matrix with |S| = 32 over F_2^6: dense
    M = adjacency_matrix(6, GeneratorSet(6, tuple(range(1, 33))))
    assert not sparse_branch_taken(M)
    assert gf2.is_self_orthogonal(M)


#: sha256 of each export of the n = 11 tower matrix, fixed from the
#: dense writers.
TOWER_11_SHA256 = {
    "alist": "521e1ca7ffe70cdb98601b9e7d50314037038caef373c49a0b5b8f5c3118c866",
    "mtx": "69f041939d095aab3e04e473eac26d4a24b073c85cb02fbd50896068445ca3a0",
    "bin": "7b0e2c9b5109618b2c971742139ef35d3ec8fc1c0857b2412c01fb0a91adf003",
    "json": "5542bdb73573e4203f8bec5cdd7a1ae5874fba8881e2a48103ce8189e4f6f4e3",
}


#: The same for n = 13, fixed from the writers that formatted one line
#: at a time.
TOWER_13_SHA256 = {
    "alist": "891920b4205df8c8e4b7a0007542a5a81fcdd7b08df5bd618ec8d6db13d390a8",
    "mtx": "5f80a5995c5459064ba085385c68ca96cd1f6d83fd906db38ecfdfd79c8d61a0",
    "bin": "46b3097c7ae781d4452e978f0481a29a8a1281d2eb834a63b82f2270f28d3822",
    "json": "3392d2509e820faab0acaf6eb9e20ed459b1737af1f9052584231a79f7d6f9d2",
}


def export_sha256(fmt: str, n: int) -> str:
    out = getattr(formats, f"write_{fmt}")(repetition.matrix(n))
    if isinstance(out, str):
        out = out.encode()
    return hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("fmt", formats.FORMAT_NAMES)
def test_tower_n11_exports_are_pinned(fmt):
    assert export_sha256(fmt, 11) == TOWER_11_SHA256[fmt]


@pytest.mark.parametrize("fmt", formats.FORMAT_NAMES)
def test_tower_n13_exports_are_pinned(fmt):
    assert export_sha256(fmt, 13) == TOWER_13_SHA256[fmt]


# -- the text renderer at its edges ----------------------------------------

TEXT_FORMATS = ("alist", "mtx", "json")


def assert_text_writers_match_oracles(M: BitMatrix) -> None:
    for fmt in TEXT_FORMATS:
        got, want = getattr(formats, f"write_{fmt}")(M), ORACLES[fmt](M)
        if got != want:  # name the first difference: diffing 10^4 lines
            at = next(  # takes pytest minutes
                (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)),
            )
            pytest.fail(f"{fmt} differs at {at}: {got[at - 20:at + 20]!r}")


#: Shapes whose dimension, largest index or largest degree is the last
#: number of one decimal width or the first of the next.
BOUNDARY_SHAPES = [
    shape for k in (9, 99, 999, 9999)
    for shape in ((2, k), (2, k + 1), (k, 2), (k + 1, 2))
]


@pytest.mark.parametrize("fill", ["ones", "corners", "sparse"])
@pytest.mark.parametrize("rows, cols", BOUNDARY_SHAPES)
def test_text_writers_across_decimal_widths(rows, cols, fill):
    if fill == "ones":
        dense = np.ones((rows, cols), dtype=np.uint8)
    elif fill == "corners":  # empty rows and columns between the corners
        dense = np.zeros((rows, cols), dtype=np.uint8)
        dense[0, 0] = dense[-1, -1] = 1
    else:
        rng = np.random.default_rng(rows * 100003 + cols)
        dense = (rng.random((rows, cols)) < 0.01).astype(np.uint8)
    assert_text_writers_match_oracles(BitMatrix.from_dense(dense))


@pytest.mark.parametrize("rows, cols, value", [
    (0, 0, 0), (0, 5, 0), (5, 0, 0), (1, 1, 0), (1, 1, 1), (4, 7, 0),
    (4, 7, 1),
])
def test_text_writers_on_empty_and_tiny_matrices(rows, cols, value):
    dense = np.full((rows, cols), value, dtype=np.uint8)
    assert_text_writers_match_oracles(BitMatrix.from_dense(dense))


def test_wide_sparse_matrix_renders_without_a_token_per_index():
    # Three ones in 2 x (2 x 10^6), rows of unequal length: a token table
    # over every index up to the largest took 270 MB here.
    M = BitMatrix.from_nonzero(
        2, 2_000_000, np.array([0, 0, 1]), np.array([5, 7, 1_999_999])
    )
    tracemalloc.start()
    try:
        texts = [formats.write_mtx(M), formats.write_json(M)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert texts == [ORACLES["mtx"](M), ORACLES["json"](M)]
    assert peak < 1_000_000, f"peak {peak / 1e6:.1f} MB"


def test_empty_rows_and_columns_render_as_blank_lists():
    # Row 1 and columns 0 and 2 are empty.
    M = BitMatrix.from_dense(np.array(
        [[0, 1, 0, 1], [0, 0, 0, 0], [0, 0, 0, 1]], dtype=np.uint8
    ))
    assert_text_writers_match_oracles(M)
    assert formats.write_alist(M) == (
        "4 3\n2 2\n0 1 0 2\n2 0 1\n0 0\n1 0\n0 0\n1 3\n2 4\n0 0\n4 0\n"
    )
    assert formats.write_mtx(M) == (
        "%%MatrixMarket matrix coordinate pattern general\n"
        "3 4 3\n1 2\n1 4\n3 4\n"
    )
    assert formats.write_json(M) == (
        '{\n  "rows": 3,\n  "cols": 4,\n  "row_support": [\n'
        "    [\n      1,\n      3\n    ],\n    [],\n    [\n      3\n    ]\n"
        "  ]\n}\n"
    )


# -- the coordinates a matrix was built from --------------------------------


def assert_nonzero_is_dense_nonzero(M: BitMatrix) -> None:
    """nonzero() equals np.nonzero of the dense matrix, dtype included,
    and its arrays refuse in-place writes."""
    got, want = M.nonzero(), np.nonzero(M.to_dense())
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and a.dtype == b.dtype
        with pytest.raises(ValueError):
            a[...] = 0


def kept(M: BitMatrix) -> bool:
    """Whether nonzero() hands out the same arrays on every call."""
    first, second = M.nonzero(), M.nonzero()
    return first[0] is second[0] and first[1] is second[1]


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("rows", [0, 1, 7])
@pytest.mark.parametrize("cols", [63, 64, 65, 128])
def test_row_major_coordinates_are_kept_as_nonzero(cols, rows, density):
    rng = np.random.default_rng(1000 * rows + cols)
    rr, cc = np.nonzero(rng.random((rows, cols)) < density)
    M = BitMatrix.from_nonzero(rows, cols, rr, cc)
    assert kept(M)
    assert_nonzero_is_dense_nonzero(M)
    assert rr.flags.writeable and cc.flags.writeable  # the caller's own


@pytest.mark.parametrize("kind", ["unsorted", "repeated", "transposed"])
@pytest.mark.parametrize("cols", [63, 64, 65, 128])
def test_other_coordinates_take_the_computed_path(cols, kind):
    rng = np.random.default_rng(cols)
    dense = (rng.random((9, cols)) < 0.3).astype(np.uint8)
    rr, cc = np.nonzero(dense)
    if kind == "unsorted":
        M = BitMatrix.from_nonzero(9, cols, rr[::-1], cc[::-1])
    elif kind == "repeated":
        M = BitMatrix.from_nonzero(9, cols, rr.repeat(2), cc.repeat(2))
    else:  # as verify.halved_block compares U with its transpose
        M = BitMatrix.from_nonzero(cols, 9, cc, rr)
        dense = dense.T
    assert M._words is not None  # packed at once; a repeat sets one bit
    assert not kept(M)
    assert_nonzero_is_dense_nonzero(M)
    assert M == BitMatrix.from_dense(dense)


def test_tower_builds_and_readbacks_keep_their_coordinates():
    S = repetition.generators(9)
    M = adjacency_matrix(9, S)
    assert kept(M) and kept(halved_matrix(9, S))
    assert_nonzero_is_dense_nonzero(M)
    for fmt in ("alist", "mtx", "json"):
        back = getattr(formats, f"read_{fmt}")(
            getattr(formats, f"write_{fmt}")(M)
        )
        assert back == M and kept(back)
