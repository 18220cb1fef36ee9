"""The vectorized packing helpers and the table-driven distance walk of
``gf2`` against the definitions they replaced.

The references below are the former implementations: ``BitVector``
packing through 2^n-bit Python ints and a per-position loop, and the
inline two-level Gray walk of ``min_weight_in_span_minus_subspace``
(the per-pivot ``reduce`` is ``oracle_reduce`` in
test_gf2_elimination.py).  Widths sit on the 64-bit word boundaries
(63, 64, 65 and 128), and inputs include non-contiguous arrays.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycss import gf2
from cayleycss.gf2 import BitMatrix, BitVector

WIDTHS = st.sampled_from([63, 64, 65, 128])

# -- references: the int-based packing definitions ------------------------


def reference_from_support(length, positions):
    value = 0
    for p in positions:
        if not 0 <= p < length:
            raise ValueError(f"position {p} out of range [0, {length})")
        value ^= 1 << p
    return value


def reference_slice(value, start, stop):
    return (value >> start) & ((1 << (stop - start)) - 1)


def reference_concat(parts):
    value = offset = 0
    for length, v in parts:
        value |= v << offset
        offset += length
    return value


def reference_reversed(value, length):
    return sum(1 << (length - 1 - p) for p in range(length) if value >> p & 1)


def strided_words(value, length):
    """The words of ``value`` as a non-contiguous stride-2 view."""
    return np.repeat(BitVector.from_int(length, value).words, 2)[::2]


def assert_canonical(v: BitVector):
    assert v.words.shape == (gf2._n_words(v.length),)
    assert not v.words.flags.writeable
    assert v.to_int() >> v.length == 0  # padding bits are zero


@st.composite
def vectors(draw, width):
    """A width-bit vector, built contiguous, strided or as a matrix row
    (a view into the matrix words)."""
    value = draw(st.integers(0, (1 << width) - 1))
    how = draw(st.sampled_from(["int", "strided", "row"]))
    if how == "int":
        v = BitVector.from_int(width, value)
    elif how == "strided":
        v = BitVector(width, strided_words(value, width))
    else:
        other = BitVector.from_int(width, draw(st.integers(0, (1 << width) - 1)))
        v = BitMatrix.from_rows([other, BitVector.from_int(width, value)]).row(1)
    return v, value


@settings(max_examples=100, deadline=None, database=None)
@given(WIDTHS, st.data())
def test_from_support_matches_position_loop(width, data):
    positions = data.draw(st.lists(st.integers(0, width - 1), max_size=40))
    # Repeats cancel: listing every position twice gives zero.
    for given_ in (positions, iter(positions), np.array(positions, np.int64),
                   np.repeat(np.array(positions, np.int64), 2)[::2]):
        v = BitVector.from_support(width, given_)
        assert v.to_int() == reference_from_support(width, positions)
        assert_canonical(v)
    assert BitVector.from_support(width, positions * 2).is_zero()
    bad = data.draw(st.one_of(st.integers(-9, -1),
                              st.integers(width, width + 9)))
    at = data.draw(st.integers(0, len(positions)))
    wrong = positions[:at] + [bad] + positions[at:]
    with pytest.raises(ValueError, match=f"position {bad} out of range"):
        reference_from_support(width, wrong)
    with pytest.raises(ValueError, match=f"position {bad} out of range"):
        BitVector.from_support(width, wrong)
    with pytest.raises(ValueError, match="out of range"):
        BitVector.from_support(width, np.array(wrong)[::-1])


@settings(max_examples=100, deadline=None, database=None)
@given(WIDTHS, st.data())
def test_slice_and_reversed_match_int_definitions(width, data):
    v, value = data.draw(vectors(width))
    stop = data.draw(st.integers(0, width))
    start = data.draw(st.integers(0, stop))
    part = v.slice(start, stop)
    assert part.length == stop - start
    assert part.to_int() == reference_slice(value, start, stop)
    assert_canonical(part)
    r = v.reversed()
    assert r.to_int() == reference_reversed(value, width)
    assert_canonical(r)
    with pytest.raises(ValueError):
        v.slice(start, width + 1)


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.one_of(WIDTHS, st.integers(0, 9)), max_size=5), st.data())
def test_concat_matches_int_definition(widths, data):
    parts = [data.draw(vectors(w)) if w else (BitVector.zeros(0), 0)
             for w in widths]
    v = BitVector.concat([p for p, _ in parts])
    assert v.length == sum(widths)
    assert v.to_int() == reference_concat(
        [(w, value) for w, (_, value) in zip(widths, parts)]
    )
    assert_canonical(v)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 70), WIDTHS, st.integers(0, 2**32 - 1))
def test_from_nonzero_matches_dense_reference(rows, cols, seed):
    # from_nonzero wraps the words it builds without a copy.
    rng = np.random.default_rng(seed)
    nnz = int(rng.integers(0, 3 * cols))
    rr = rng.integers(0, max(rows, 1), nnz) if rows else np.zeros(0, int)
    cc = rng.integers(0, cols, rr.size)
    dense = np.zeros((rows, cols), dtype=np.uint8)
    dense[rr, cc] = 1
    M = BitMatrix.from_nonzero(rows, cols, rr, cc)
    assert M == BitMatrix.from_dense(dense)
    assert M.words.shape == (rows, gf2._n_words(cols))
    assert not M.words.flags.writeable
    # The padding bits past the last column are clear.
    assert all(M.row(i).to_int() >> cols == 0 for i in range(rows))
    assert np.array_equal(M.to_dense(), dense)


@settings(max_examples=60, deadline=None, database=None)
@given(WIDTHS, WIDTHS, st.integers(0, 2**32 - 1))
def test_mul_vector_matches_dense_product(rows, cols, seed):
    rng = np.random.default_rng(seed)
    dense = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    x = rng.integers(0, 2, cols)
    M = BitMatrix.from_dense(np.asfortranarray(dense))
    got = M.mul_vector(BitVector.from_support(cols, np.flatnonzero(x)))
    assert got.to_int() == sum(
        1 << i for i, b in enumerate(dense.astype(np.int64) @ x % 2) if b
    )
    assert_canonical(got)


# -- reference: the inline two-level Gray walk ----------------------------


def reference_walk(span_basis, sub_basis):
    """A Gray code over the complement coefficients, and inside each of
    its steps one over the subspace coefficients; (weight, value)."""
    length = span_basis[0].length
    sub_ints = [b for b, _ in
                gf2.int_echelon(v.to_int() for v in sub_basis).values()]
    span_ints = [b for b, _ in
                 gf2.int_echelon(v.to_int() for v in span_basis).values()]
    s = len(sub_ints)
    joint = gf2.int_echelon(sub_ints + span_ints)
    comp = [b for b, mask in joint.values() if mask >> s]
    best_w = length + 1
    best_v = 0
    outer = 0
    for i in range(1, 1 << len(comp)):
        outer ^= comp[(i & -i).bit_length() - 1]
        v = outer
        w = v.bit_count()
        if w < best_w or (w == best_w and v < best_v):
            best_w, best_v = w, v
        for j in range(1, 1 << s):
            v ^= sub_ints[(j & -j).bit_length() - 1]
            w = v.bit_count()
            if w < best_w or (w == best_w and v < best_v):
                best_w, best_v = w, v
    return best_w, best_v


def table_walk(span_vs, sub_vs, t):
    """The engine with its table held to 2^t combinations."""
    width = span_vs[0].length
    cap = (16 * gf2._n_words(width)) << t
    with mock.patch.object(gf2, "MAX_TABLE_BYTES", cap):
        weight, witness = gf2.min_weight_in_span_minus_subspace(span_vs, sub_vs)
    return weight, witness.to_int()


def independent(rng, width, count, sparse):
    """``count`` independent width-bit vectors; sparse ones have one or
    two bits among the low positions, so minimum-weight words tie."""
    out = []
    while len(out) < count:
        if sparse:
            bits = rng.choice(min(width, 12), rng.integers(1, 3), replace=False)
            v = sum(1 << int(b) for b in bits)
        else:
            v = int.from_bytes(rng.bytes(width // 8 + 1), "little")
            v &= (1 << width) - 1
        if len(gf2.int_echelon(out + [v])) > len(out):
            out.append(v)
    return out


def mixed(rng, vs):
    """Another basis of the same span: each vector plus a random subset
    of the ones before it, in shuffled order."""
    vs = [vs[i] for i in rng.permutation(len(vs))]
    out = []
    for i, v in enumerate(vs):
        for u in vs[:i]:
            if rng.integers(2):
                v ^= u
        out.append(v)
    return out


def case(width, s, c, seed, sparse=False):
    rng = np.random.default_rng(seed)
    vs = independent(rng, width, s + c, sparse)
    span = [BitVector.from_int(width, v) for v in mixed(rng, vs)]
    sub = [BitVector.from_int(width, v) for v in mixed(rng, vs[:s])]
    return span, sub


@settings(max_examples=80, deadline=None, database=None)
@given(WIDTHS, st.integers(0, 5), st.integers(1, 5), st.data(),
       st.integers(0, 2**32 - 1), st.booleans())
def test_table_walk_matches_gray_walk(width, s, c, data, seed, sparse):
    span, sub = case(width, s, c, seed, sparse)
    t = data.draw(st.integers(0, s + c))
    assert table_walk(span, sub, t) == reference_walk(span, sub)


@pytest.mark.parametrize("width", [63, 64, 65, 128])
@pytest.mark.parametrize("s, c, t", [
    (0, 5, 2),  # no subspace
    (6, 2, 3),  # subspace larger than the table
    (2, 7, 3),  # complement larger than the table
    (6, 6, 4),  # both larger
    (3, 3, 0),  # a one-row table
    (4, 4, 8),  # everything in the table
])
def test_table_walk_at_table_boundaries(width, s, c, t):
    for seed in range(3):
        for sparse in (False, True):
            span, sub = case(width, s, c, seed, sparse)
            assert table_walk(span, sub, t) == reference_walk(span, sub)


@pytest.mark.parametrize("t", range(6))
def test_table_walk_breaks_ties_towards_the_least_value(t):
    # The weight-1 words e1 = (e1 + e3) + e3, e3, e5, e9 and e64 tie,
    # spread over the table and the offsets; the least value, e1, wins.
    width = 65
    span = [BitVector.from_support(width, [p]) for p in (9, 5, 3, 64)]
    span.append(BitVector.from_support(width, [1, 3]))
    sub = [BitVector.from_support(width, [1, 3])]
    assert table_walk(span, sub, t) == reference_walk(span, sub) == (1, 2)
    sub = [BitVector.from_support(width, [1, 5, 9])]
    assert table_walk(span, sub, t) == reference_walk(span, sub) == (1, 2)
