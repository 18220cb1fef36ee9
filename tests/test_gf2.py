"""Bit-packed GF(2) linear algebra, checked against naive unpacked
oracles on random inputs."""

import random

import numpy as np
import pytest

from cayleycss import gf2
from cayleycss.gf2 import (
    BitMatrix,
    BitVector,
    DimensionBudgetError,
    EmptyDifferenceError,
    min_weight_in_span_minus_subspace,
)


# -- independent oracles ------------------------------------------------


def dense_rank(dense: np.ndarray) -> int:
    """Textbook row reduction on a 0/1 array."""
    a = dense.copy() % 2
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
    return r


def dense_kernel(dense: np.ndarray) -> list[int]:
    """All kernel vectors (as ints) by brute force; cols <= 14."""
    rows, cols = dense.shape
    out = []
    for v in range(1 << cols):
        vec = np.fromiter(
            ((v >> j) & 1 for j in range(cols)), dtype=np.uint8
        )
        if not (dense @ vec % 2).any():
            out.append(v)
    return out


def random_dense(rng, rows, cols):
    return np.array(
        [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)],
        dtype=np.uint8,
    )


# -- BitVector -----------------------------------------------------------


def test_bitvector_int_round_trip():
    rng = random.Random(7)
    for length in (1, 7, 63, 64, 65, 128, 200):
        for value in (rng.getrandbits(length), 0, (1 << length) - 1):
            v = BitVector.from_int(length, value)
            assert v.to_int() == value
            assert v.weight == value.bit_count()
            assert v.support() == [
                i for i in range(length) if value >> i & 1
            ]


def test_bitvector_from_support_matches_bits():
    v = BitVector.from_support(10, [0, 3, 9])
    assert [v.bit(i) for i in range(10)] == [1, 0, 0, 1, 0, 0, 0, 0, 0, 1]
    with pytest.raises(ValueError):
        BitVector.from_support(10, [10])


def test_bitvector_xor_dot_and_reversal():
    a = BitVector.from_support(5, [0, 2, 3])
    b = BitVector.from_support(5, [2, 4])
    assert (a ^ b).support() == [0, 3, 4]
    assert a.dot(b) == 1
    assert a.reversed().support() == [1, 2, 4]


def test_bitvector_slice_and_concat():
    rng = random.Random(11)
    value = rng.getrandbits(130)
    v = BitVector.from_int(130, value)
    parts = [v.slice(0, 40), v.slice(40, 100), v.slice(100, 130)]
    assert BitVector.concat(parts) == v


def test_packed_bytes_little_endian():
    v = BitVector.from_support(12, [0, 8, 11])
    assert v.words.tobytes()[:2] == bytes([0x01, 0x09])


@pytest.mark.parametrize("rows", [63, 64, 65, 128])
def test_transpose_and_from_dense_at_word_boundaries(rows):
    rng = np.random.default_rng(rows)
    dense = (rng.random((rows, 10)) < 0.5).astype(np.uint8)
    M = BitMatrix.from_dense(dense)
    assert np.array_equal(M.transpose().to_dense(), dense.T)
    assert M.transpose().transpose() == M
    zeros = BitMatrix.from_dense(np.zeros((rows, 10), dtype=np.uint8))
    assert zeros.transpose() == BitMatrix.from_dense(zeros.to_dense().T)
    # Non-C-contiguous inputs: a transposed view and a strided slice.
    wide = (rng.random((2 * rows, 3 * rows)) < 0.5).astype(np.uint8)
    for view in (wide[:rows, :rows].T, wide[::2, ::3], np.asfortranarray(wide)):
        assert not view.flags.c_contiguous
        assert np.array_equal(BitMatrix.from_dense(view).to_dense(), view)


# -- elimination vs oracle ------------------------------------------------


@pytest.mark.parametrize("rows,cols", [(5, 5), (8, 12), (12, 8), (20, 40)])
def test_rank_matches_dense_oracle(rows, cols):
    rng = random.Random(rows * 100 + cols)
    for _ in range(10):
        dense = random_dense(rng, rows, cols)
        assert gf2.rank(BitMatrix.from_dense(dense)) == dense_rank(dense)


def test_rank_nullity():
    rng = random.Random(3)
    for _ in range(20):
        rows = rng.randint(1, 30)
        cols = rng.randint(1, 90)
        M = BitMatrix.from_dense(random_dense(rng, rows, cols))
        assert gf2.rank(M) + len(gf2.kernel_basis(M)) == cols


def test_kernel_matches_exhaustive_oracle():
    rng = random.Random(5)
    for _ in range(10):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 12)
        dense = random_dense(rng, rows, cols)
        M = BitMatrix.from_dense(dense)
        basis = gf2.kernel_basis(M)
        # every basis vector annihilates, and the span size matches
        span = {0}
        for b in basis:
            assert M.mul_vector(b).is_zero()
            span |= {s ^ b.to_int() for s in span}
        assert sorted(span) == dense_kernel(dense)


def test_in_row_space():
    rng = random.Random(9)
    dense = random_dense(rng, 6, 20)
    M = BitMatrix.from_dense(dense)
    acc = BitVector.zeros(20)
    for i in range(6):
        if rng.random() < 0.5:
            acc = acc ^ M.row(i)
    assert gf2.in_row_space(M, acc)
    # a vector outside the span: extend rank and flip the new pivot
    if gf2.rank(M) < 20:
        outside = acc.to_int()
        pivots = {v.to_int() for v in (M.row(i) for i in range(6))}
        for j in range(20):
            trial = outside ^ (1 << j)
            if not gf2.in_row_space(M, BitVector.from_int(20, trial)):
                return
        pytest.fail("could not leave a rank-deficient row space")


def test_solve_preimage_round_trip_and_linearity():
    rng = random.Random(13)
    for _ in range(20):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 30)
        M = BitMatrix.from_dense(random_dense(rng, rows, cols))
        x = BitVector.from_int(cols, rng.getrandbits(cols))
        b = M.mul_vector(x)
        sol = gf2.solve_preimage(M, b)
        assert sol is not None
        assert M.mul_vector(sol) == b
        # fixed linear section: solving twice gives the same answer
        assert gf2.solve_preimage(M, b) == sol


def test_solve_preimage_unsolvable():
    M = BitMatrix.from_dense(np.array([[1, 0], [1, 0]], dtype=np.uint8))
    assert gf2.solve_preimage(M, BitVector.from_support(2, [0, 1])) is not None
    assert gf2.solve_preimage(M, BitVector.from_support(2, [0])) is None
    # Empty shapes: a zero right-hand side has the zero solution, and
    # with no columns nothing reaches e_0.
    for rows, cols in [(3, 0), (0, 3), (0, 0)]:
        E = BitMatrix.from_nonzero(rows, cols, [], [])
        x = gf2.solve_preimage(E, BitVector.zeros(rows))
        assert x == BitVector.zeros(cols)
    E = BitMatrix.from_nonzero(3, 0, [], [])
    assert gf2.solve_preimage(E, BitVector.from_support(3, [0])) is None


def test_is_self_orthogonal():
    good = BitMatrix.from_dense(
        np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8)
    )
    bad = BitMatrix.from_dense(
        np.array([[1, 1, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)
    )
    assert gf2.is_self_orthogonal(good)
    assert not gf2.is_self_orthogonal(bad)


# -- minimum weight over a span difference -------------------------------


def xor_span(ints):
    span = {0}
    for b in ints:
        span |= {s ^ b for s in span}
    return span


def test_min_weight_matches_oracle():
    rng = random.Random(17)
    checked = 0
    for _ in range(20):
        length = rng.randint(6, 16)
        sub_ints = [rng.getrandbits(length) for _ in range(3)]
        extra = [rng.getrandbits(length) for _ in range(4)]
        span_vecs = [
            BitVector.from_int(length, v) for v in sub_ints + extra
        ]
        sub_vecs = [BitVector.from_int(length, v) for v in sub_ints]
        diff = xor_span(sub_ints + extra) - xor_span(sub_ints)
        if not diff:
            with pytest.raises(EmptyDifferenceError):
                min_weight_in_span_minus_subspace(span_vecs, sub_vecs)
            continue
        w, witness = min_weight_in_span_minus_subspace(span_vecs, sub_vecs)
        best = min(diff, key=lambda v: (v.bit_count(), v))
        assert (w, witness.to_int()) == (best.bit_count(), best)
        checked += 1
    assert checked >= 10


def test_min_weight_budget_and_empty_difference():
    vs = [BitVector.from_support(40, [i]) for i in range(30)]
    with pytest.raises(DimensionBudgetError) as err:
        min_weight_in_span_minus_subspace(vs, [], budget=26)
    assert err.value.dimension == 30
    with pytest.raises(EmptyDifferenceError):
        min_weight_in_span_minus_subspace(vs[:4], vs[:4])


def test_min_weight_subspace_containment_enforced():
    a = [BitVector.from_support(3, [0])]
    b = [BitVector.from_support(3, [1])]
    with pytest.raises(ValueError):
        min_weight_in_span_minus_subspace(a, b)
