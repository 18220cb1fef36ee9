"""Property tests for the integer XOR-basis core in ``gf2``.

``int_echelon``, ``int_reduce`` and ``gray_span`` are checked against
brute-force subset XORs; ``min_weight_in_span_minus_subspace`` against
the set difference of two brute-force spans, minimised by
(weight, value).  Inputs are biased to the 64-bit word boundaries and
include zero, duplicate and dependent vectors.
"""

from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycss import gf2

#: Widths biased to the 64-bit word boundaries, plus small widths where
#: weight ties are common.
WIDTHS = st.one_of(
    st.sampled_from([63, 64, 65, 128]), st.integers(1, 12),
    st.integers(1, 130),
)


@st.composite
def int_vectors(draw, width, max_size=8):
    """Up to max_size width-bit integers of mixed kinds."""
    out: list[int] = []
    for _ in range(draw(st.integers(0, max_size))):
        kind = draw(st.sampled_from(
            ["random", "sparse", "zero", "ones", "duplicate", "dependent"]
        ))
        if kind in ("duplicate", "dependent") and not out:
            kind = "random"
        if kind == "random":
            v = draw(st.integers(0, (1 << width) - 1))
        elif kind == "sparse":
            bits = draw(st.lists(st.integers(0, width - 1), max_size=3))
            v = reduce(xor, (1 << b for b in bits), 0)
        elif kind == "zero":
            v = 0
        elif kind == "ones":
            v = (1 << width) - 1
        elif kind == "duplicate":
            v = draw(st.sampled_from(out))
        else:
            picks = draw(st.lists(st.sampled_from(out), min_size=1))
            v = reduce(xor, picks, 0)
        out.append(v)
    return out


def subset_xors(vectors: list[int]) -> set[int]:
    """Every XOR of a subset of the vectors, the empty subset included."""
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


def masked_xor(vectors: list[int], mask: int) -> int:
    return reduce(xor, (v for i, v in enumerate(vectors) if mask >> i & 1), 0)


def span_rank(vectors: list[int]) -> int:
    """log2 of the number of subset XORs."""
    return len(subset_xors(vectors)).bit_length() - 1


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_int_echelon_rows_rank_and_masks(data):
    width = data.draw(WIDTHS)
    vectors = data.draw(int_vectors(width))
    dependencies = []
    basis = gf2.int_echelon(vectors, dependencies)
    assert len(basis) == span_rank(vectors)
    for lead, (row, mask) in basis.items():
        assert row.bit_length() == lead > 0
        assert 0 < mask < 1 << len(vectors)
        assert row == masked_xor(vectors, mask)
    # One dependency per input that reduces to zero, in input order:
    # that input's own bit is the highest in its mask.
    assert len(dependencies) == len(vectors) - len(basis)
    tops = [mask.bit_length() for mask in dependencies]
    assert tops == sorted(set(tops))
    for mask in dependencies:
        assert masked_xor(vectors, mask) == 0
    assert gf2.int_echelon(vectors) == basis


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_int_echelon_extends_a_basis_in_place(data):
    # Extending the basis of the first vectors, masks cleared, with the
    # rest gives the rank of all of them and the dependencies of the
    # rest modulo the span of the first.
    width = data.draw(WIDTHS)
    first = data.draw(int_vectors(width))
    rest = data.draw(int_vectors(width))
    start = {k: (row, 0) for k, (row, _) in gf2.int_echelon(first).items()}
    dependencies = []
    basis = gf2.int_echelon(rest, dependencies, start)
    assert basis is start
    assert len(basis) == span_rank(first + rest)
    span = subset_xors(first)
    for mask in dependencies:
        assert masked_xor(rest, mask) in span
    assert len(dependencies) == len(rest) - (len(basis) - span_rank(first))


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_int_reduce_residual_and_mask(data):
    width = data.draw(WIDTHS)
    vectors = data.draw(int_vectors(width))
    basis = gf2.int_echelon(vectors)
    if vectors and data.draw(st.booleans()):
        v = masked_xor(vectors, data.draw(
            st.integers(0, (1 << len(vectors)) - 1)
        ))
    else:
        v = data.draw(st.integers(0, (1 << width) - 1))
    residual, mask = gf2.int_reduce(basis, v)
    assert (residual == 0) == (v in subset_xors(vectors))
    assert v ^ residual == masked_xor(vectors, mask)
    # A starting mask is carried through by XOR.
    assert gf2.int_reduce(basis, v, 1 << 40) == (residual, mask ^ 1 << 40)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_gray_span_walks_the_span(data):
    width = data.draw(WIDTHS)
    vectors = data.draw(int_vectors(width))
    rows = [row for row, _ in gf2.int_echelon(vectors).values()]
    walk = list(gf2.gray_span(rows))
    assert len(walk) == 1 << len(rows)
    assert len(set(walk)) == len(walk)
    assert set(walk) == subset_xors(vectors)
    assert walk[0] == 0
    assert all(a ^ b in rows for a, b in zip(walk, walk[1:]))


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_min_weight_in_span_minus_subspace_matches_brute_force(data):
    width = data.draw(WIDTHS)
    span_ints = data.draw(int_vectors(width).filter(bool))
    if data.draw(st.booleans()):
        # Drawn from the span: XORs of span inputs, some repeated.
        masks = data.draw(st.lists(
            st.integers(0, (1 << len(span_ints)) - 1), max_size=6
        ))
        sub_ints = [masked_xor(span_ints, m) for m in masks]
    else:
        sub_ints = data.draw(int_vectors(width, max_size=4))
    # The engine takes the span as independent ints and the subspace as
    # an int_echelon basis, which it leaves as it found it.
    span_basis = [row for row, _ in gf2.int_echelon(span_ints).values()]
    sub_basis = gf2.int_echelon(sub_ints)
    before = dict(sub_basis)
    span, sub = subset_xors(span_ints), subset_xors(sub_ints)

    def search():
        return gf2.min_weight_in_span_minus_subspace(
            span_basis, sub_basis, width
        )
    if not sub <= span:
        with pytest.raises(ValueError):
            search()
    elif span == sub:
        with pytest.raises(gf2.EmptyDifferenceError):
            search()
    else:
        want = min(span - sub, key=lambda v: (v.bit_count(), v))
        weight, witness = search()
        assert (weight, witness.to_int()) == (want.bit_count(), want)
        assert witness.length == width
    assert sub_basis == before
