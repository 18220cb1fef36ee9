"""Cayley graphs over F_2^m: adjacency, metric neighborhoods,
self-orthogonality tests, bipartite halving, and group algebra."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycss import gf2, repetition, verify
from cayleycss.cayley import (
    CyclicProductGroup,
    GeneratorSet,
    SizeGuardError,
    adjacency_matrix,
    algebra_nilpotency_check,
    algebra_nilpotency_check_f2,
    ball,
    ball_vertices,
    check_self_orthogonal_combinatorial,
    format_small_word,
    halved_matrix,
    parse_small_word,
    sphere,
)

# The worked 8x8 example: basis-plus-all-ones generators over F_2^3,
# with vertex p at row/column p.
GOLDEN_8x8 = np.array(
    [
        [0, 1, 1, 0, 1, 0, 0, 1],
        [1, 0, 0, 1, 0, 1, 1, 0],
        [1, 0, 0, 1, 0, 1, 1, 0],
        [0, 1, 1, 0, 1, 0, 0, 1],
        [1, 0, 0, 1, 0, 1, 1, 0],
        [0, 1, 1, 0, 1, 0, 0, 1],
        [0, 1, 1, 0, 1, 0, 0, 1],
        [1, 0, 0, 1, 0, 1, 1, 0],
    ],
    dtype=np.uint8,
)


def test_small_word_parsing():
    assert parse_small_word("100") == 1
    assert parse_small_word("010") == 2
    assert parse_small_word("111") == 7
    assert format_small_word(5, 3) == "101"
    with pytest.raises(ValueError):
        parse_small_word("10x")
    with pytest.raises(ValueError):
        parse_small_word("")


def test_small_word_formatting_matches_the_bitwise_reference():
    for m in range(1, 24):
        alternating = int("01" * m, 2) & ((1 << m) - 1)
        for value in (0, 1, (1 << m) - 1, alternating, alternating >> 1):
            want = "".join("1" if value >> i & 1 else "0" for i in range(m))
            assert format_small_word(value, m) == want


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(3, (0,))
    with pytest.raises(ValueError):
        GeneratorSet(3, (8,))
    with pytest.raises(ValueError):
        GeneratorSet(3, (1, 1))
    s = GeneratorSet.named("S3'")
    assert s.elements == (1, 2, 4, 7)
    assert GeneratorSet.named("S4").elements == (1, 2, 4, 8)


def test_adjacency_matches_golden_8x8():
    M = adjacency_matrix(3, GeneratorSet.named("S3'"))
    assert np.array_equal(M.to_dense(), GOLDEN_8x8)


def test_adjacency_rows_are_spheres():
    S = GeneratorSet.named("S5'")
    M = adjacency_matrix(5, S)
    for p in (0, 7, 31):
        assert M.row(p) == sphere(5, S, p)


def test_adjacency_size_guard():
    with pytest.raises(SizeGuardError):
        adjacency_matrix(17, GeneratorSet(17, (1, 2)))


def test_sphere_and_ball():
    S = GeneratorSet.canonical(4)
    assert sorted(sphere(4, S, 0).support()) == [1, 2, 4, 8]
    b2 = ball(4, S, 0, 2)
    assert b2.weight == 1 + 4 + 6
    assert all(v.bit_count() <= 2 for v in b2.support())
    assert ball(4, S, 0, 4).weight == 16


@pytest.mark.parametrize("neighborhood", [ball_vertices, ball])
def test_ball_refuses_a_generator_set_of_another_group(neighborhood):
    # Generators of F_2^9 would reach vertices up to 511 from F_2^3.
    with pytest.raises(ValueError, match="does not live in F_2"):
        neighborhood(3, repetition.generators(9), 0, 1)


# -- pair count ------------------------------------------------------------
#
# Reference: the per-set dict count that the batched bincount replaced,
# kept here as the oracle.


def reference_pair_count(S):
    """Every g has an even number of ordered representations s + t."""
    counts = {}
    for s in S:
        for t in S:
            counts[s ^ t] = counts.get(s ^ t, 0) + 1
    return all(c % 2 == 0 for c in counts.values())


def test_combinatorial_certificate():
    assert check_self_orthogonal_combinatorial(3, (1, 2, 4, 7))
    # An odd-size set fails at g = 0, which counts the pairs (s, s).
    assert not check_self_orthogonal_combinatorial(3, (1, 2, 4))
    batch = [[(1, 2), (1, 3)], [(2, 3), (1, 1)]]
    assert check_self_orthogonal_combinatorial(2, batch).tolist() == [
        [True, True], [True, True],
    ]
    assert check_self_orthogonal_combinatorial(2, [(1,), (3,)]).tolist() == [
        False, False,
    ]


def test_pair_count_refuses_what_it_cannot_index():
    with pytest.raises(SizeGuardError):
        check_self_orthogonal_combinatorial(17, (1, 2))
    with pytest.raises(ValueError):
        check_self_orthogonal_combinatorial(3, (1, 8))
    with pytest.raises(ValueError):
        check_self_orthogonal_combinatorial(3, (-1, 2))


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_pair_count_matches_dict_reference(data):
    m = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, 9))
    sets = data.draw(st.lists(
        st.lists(st.integers(0, (1 << m) - 1), min_size=k, max_size=k),
        min_size=1, max_size=6,
    ))
    got = check_self_orthogonal_combinatorial(
        m, np.reshape(sets, (len(sets), k))
    )
    assert got.tolist() == [reference_pair_count(S) for S in sets]


# -- matrix oracle ---------------------------------------------------------
#
# Reference: the pure-Python pair loop over integer row bitsets, and the
# row builder, that the packed-word oracle replaced.


def reference_rows_self_orthogonal(rows):
    return all(
        (rows[i] & rows[j]).bit_count() % 2 == 0
        for i in range(len(rows))
        for j in range(i, len(rows))
    )


def reference_adjacency_rows(m, S):
    rows = []
    for p in range(1 << m):
        r = 0
        for s in S:
            r ^= 1 << (p ^ s)
        rows.append(r)
    return rows


def pack(rows, width):
    """Integer bitsets as packed uint64 words, bit c in word c // 64."""
    n_words = (width + 63) // 64
    return np.array(
        [[r >> (64 * w) & (1 << 64) - 1 for w in range(n_words)]
         for r in rows],
        dtype=np.uint64,
    ).reshape(len(rows), n_words)


def random_rows(rng, n_rows, width):
    """Half the time rows that set both columns of each pair (2j, 2j+1)
    or neither, which are self-orthogonal, then maybe one bit flipped;
    otherwise uniform rows."""
    if rng.random() < 0.5:
        return [rng.getrandbits(width) for _ in range(n_rows)]
    rows = []
    for _ in range(n_rows):
        pairs = rng.getrandbits(width // 2)
        rows.append(sum(3 << 2 * j for j in range(width // 2)
                        if pairs >> j & 1))
    if rng.random() < 0.5:
        rows[rng.randrange(n_rows)] ^= 1 << rng.randrange(width)
    return rows


@pytest.mark.parametrize("width", [63, 64, 65, 128])
def test_matrix_oracle_matches_pair_loop(width):
    rng = random.Random(width)
    for n_rows in (1, 2, 3, 5, 8):
        batch = [random_rows(rng, n_rows, width) for _ in range(12)]
        want = [reference_rows_self_orthogonal(rows) for rows in batch]
        assert any(want) and not all(want)
        packed = np.stack([pack(rows, width) for rows in batch])
        assert verify._rows_self_orthogonal(packed).tolist() == want
        assert [bool(verify._rows_self_orthogonal(p)) for p in packed] == want
        # The same words at a stride of two: a non-contiguous view.
        spread = np.zeros(packed.shape[:-1] + (2 * packed.shape[-1],),
                          dtype=np.uint64)
        spread[..., ::2] = packed
        view = spread[..., ::2]
        assert not view.flags.c_contiguous
        assert verify._rows_self_orthogonal(view).tolist() == want


@pytest.mark.parametrize("m", range(1, 8))
def test_adjacency_rows_match_row_builder(m):
    rng = random.Random(m)
    for k in (1, 2, 3, 6):
        # Repeats allowed: a generator listed twice cancels in both.
        sets = [[rng.randrange(1 << m) for _ in range(k)] for _ in range(5)]
        got = verify._adjacency_rows(m, np.array(sets))
        for S, rows in zip(sets, got):
            ref = reference_adjacency_rows(m, S)
            assert np.array_equal(rows, pack(ref, 1 << m))


@pytest.mark.parametrize("k", range(1, 8))
def test_batched_oracles_match_per_set_references(k):
    # Every k-subset of F_2^3 minus 0; only the even sizes are
    # self-orthogonal.
    sets = list(itertools.combinations(range(1, 8), k))
    want = [k % 2 == 0] * len(sets)
    assert [reference_pair_count(S) for S in sets] == want
    assert [reference_rows_self_orthogonal(reference_adjacency_rows(3, S))
            for S in sets] == want
    assert [reference_nilpotent((2,) * 3, [
        tuple(s >> i & 1 for i in range(3)) for s in S
    ]) for S in sets] == want
    assert check_self_orthogonal_combinatorial(3, sets).tolist() == want
    assert verify._rows_self_orthogonal(
        verify._adjacency_rows(3, np.array(sets))
    ).tolist() == want
    assert algebra_nilpotency_check_f2(3, sets).tolist() == want
    assert verify.three_way_agreement(3, sets).all()


def test_three_way_self_orthogonality_examples():
    for name in ("S3'", "S4", "S5'", "S6"):
        S = GeneratorSet.named(name)
        M = adjacency_matrix(S.m, S)
        assert check_self_orthogonal_combinatorial(S.m, S.elements)
        assert gf2.is_self_orthogonal(M)
        assert algebra_nilpotency_check_f2(S.m, S.elements)


# -- group algebra -------------------------------------------------------
#
# Reference: the dict convolution over mixed-radix tuple arithmetic that
# the vectorized check replaced, kept here as the oracle.


def reference_index(moduli, element):
    idx, stride = 0, 1
    for x, n in zip(element, moduli):
        idx += (x % n) * stride
        stride *= n
    return idx


def reference_element(moduli, idx):
    out = []
    for n in moduli:
        out.append(idx % n)
        idx //= n
    return tuple(out)


def reference_from_terms(terms):
    support = set()
    for t in terms:
        support.symmetric_difference_update({t})
    return support


def reference_product(moduli, a, b):
    counts = {}
    for x in a:
        for y in b:
            g = reference_index(moduli, tuple(
                u + v for u, v in zip(reference_element(moduli, x),
                                      reference_element(moduli, y))
            ))
            counts[g] = counts.get(g, 0) ^ 1
    return {g for g, c in counts.items() if c}


def reference_nilpotent(moduli, terms):
    pi = reference_from_terms(reference_index(moduli, t) for t in terms)
    pi_hat = reference_from_terms(
        reference_index(moduli, tuple(-x for x in t)) for t in terms
    )
    return not reference_product(moduli, pi, pi_hat)


@settings(max_examples=80, deadline=None, database=None)
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
    st.sampled_from([(), (5,), (3, 4)]),
)
def test_index_matches_whole_array_reduction(moduli, seed, batch):
    # The per-coordinate reduction, powers of two by mask, against the
    # whole-array expression it replaced, on negative and out-of-range
    # coordinates, in both layouts.
    g = CyclicProductGroup(tuple(moduli))
    rng = np.random.default_rng(seed)
    coords = rng.integers(-40, 40, batch + (len(moduli),))
    want = (coords % g.moduli) @ g._radix
    assert np.array_equal(g.index(coords), want)
    assert np.array_equal(g.index(np.moveaxis(coords, -1, 0), axis=0), want)
    strided = np.repeat(coords, 2, axis=-1)[..., ::2]
    assert np.array_equal(g.index(strided), want)
    with pytest.raises(ValueError):
        g.index(coords[..., :0])


def test_cyclic_group_indexing():
    g = CyclicProductGroup((6, 6))
    assert g.order == 36
    assert g.index((1, 0)) == 1
    assert g.index((0, 1)) == 6
    assert g.index((-1, 7)) == g.index((5, 1)) == 11
    assert tuple(g.coords(7)) == (1, 1)
    rows = [(1, 0), (0, 1), (5, 5), (-1, -2)]
    assert g.index(rows).tolist() == [1, 6, 35, 29]
    # Round trip over the whole group, in one call each way.
    idx = np.arange(g.order)
    assert np.array_equal(g.index(g.coords(idx)), idx)
    assert [tuple(c) for c in g.coords(idx)] == [
        reference_element(g.moduli, i) for i in range(g.order)
    ]


def test_binary_group_matches_xor():
    # Mixed-radix addition on (2,)*m is the XOR of the small-word
    # indexing the pair-count oracle uses; negation is the identity.
    g = CyclicProductGroup.binary(4)
    v = np.arange(16)
    assert np.array_equal(g.index(v[:, None] >> np.arange(4) & 1), v)
    a, b = np.meshgrid(v, v)
    assert np.array_equal(g.index(g.coords(a) + g.coords(b)), a ^ b)
    assert np.array_equal(g.index(-g.coords(v)), v)


def test_group_algebra_convolution():
    g = CyclicProductGroup((4,))
    # pi_S . pi_S-hat for S = {1, x}: (1 + x)(1 + x^3) = x + x^3 over F_2
    assert reference_product((4,), {0, 1}, {0, 3}) == {1, 3}
    assert not algebra_nilpotency_check(g, [(0,), (1,)])
    # ... while (1 + x^2)(1 + x^2) = 1 + x^4 = 0
    assert algebra_nilpotency_check(g, [(0,), (2,)])
    # The product is with pi_S-hat, not pi_S; random sets rarely tell
    # them apart.  In Z/7, S = {0, 1, 3, 6} covers every difference
    # twice, but pi_S^2 = 1 + x^2 + x^5 + x^6.
    S = [(0,), (1,), (3,), (6,)]
    assert reference_nilpotent((7,), S)
    assert algebra_nilpotency_check(CyclicProductGroup((7,)), S)
    # In Z/2 x Z/8, pi_S^2 = 0 but pi_S . pi_S-hat is not.
    S = [(0, 0), (0, 1), (1, 1), (1, 4)]
    assert not reference_nilpotent((2, 8), S)
    assert not algebra_nilpotency_check(CyclicProductGroup((2, 8)), S)


def test_duplicate_terms_cancel():
    g = CyclicProductGroup((4, 4))
    # (1,0) and (-3,0) are the same element, so the pair cancels mod 2
    assert g.index((1, 0)) == g.index((-3, 0))
    assert algebra_nilpotency_check(g, [(1, 0), (-3, 0)])
    odd = [(0, 0), (1, 0)]
    assert not algebra_nilpotency_check(g, odd)
    assert not algebra_nilpotency_check(g, odd + [(1, 0), (-3, 4)])


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_algebra_check_matches_dict_convolution(data):
    moduli = tuple(data.draw(st.lists(
        st.integers(1, 8), min_size=1, max_size=3
    )))
    term = st.tuples(*(st.integers(-9, 9) for _ in moduli))
    terms = data.draw(st.lists(term, max_size=10))
    # Repeat some terms, so that cancellation in pi_S is exercised.
    terms += data.draw(st.lists(st.sampled_from(terms), max_size=4)
                       if terms else st.just([]))
    g = CyclicProductGroup(moduli)
    assert algebra_nilpotency_check(g, terms) == reference_nilpotent(
        moduli, terms
    )


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_batched_algebra_check_matches_each_set(data):
    moduli = tuple(data.draw(st.lists(
        st.integers(1, 6), min_size=1, max_size=3
    )))
    k = data.draw(st.integers(0, 6))
    term = st.tuples(*(st.integers(-7, 7) for _ in moduli))
    sets = data.draw(st.lists(
        st.lists(term, min_size=k, max_size=k), min_size=1, max_size=8
    ))
    # An even count of sets goes in as a two-axis batch.
    shape = (2, len(sets) // 2) if len(sets) % 2 == 0 else (len(sets),)
    batch = np.reshape(sets, shape + (k, len(moduli)))
    got = algebra_nilpotency_check(CyclicProductGroup(moduli), batch)
    assert got.shape == batch.shape[:-2]
    assert got.ravel().tolist() == [
        reference_nilpotent(moduli, [tuple(t) for t in terms])
        for terms in batch.reshape(len(sets), k, len(moduli))
    ]


def test_torus_family_nilpotency():
    for n in (2, 3, 4):
        g = CyclicProductGroup((2 * n, 2 * n))
        terms = [
            (1, 0), (0, 1), (-1, 0), (0, -1),
            (n + 1, 0), (n - 1, 0), (0, n + 1), (0, n - 1),
        ]
        assert reference_nilpotent(g.moduli, terms)
        assert algebra_nilpotency_check(g, terms)


def test_algebra_order_guard():
    g = CyclicProductGroup((1 << 9, 1 << 9))
    with pytest.raises(SizeGuardError):
        algebra_nilpotency_check(g, [(1, 0)])


# -- bipartite halving ----------------------------------------------------


def test_halved_matrix_m2():
    # Two generators over F_2^2: each even vertex sees both odd vertices
    U = halved_matrix(2, GeneratorSet.canonical(2))
    assert np.array_equal(
        U.to_dense(), np.array([[1, 1], [1, 1]], dtype=np.uint8)
    )


def test_halved_matrix_row_weights():
    S = GeneratorSet.named("S5'")
    U = halved_matrix(5, S)
    assert U.rows == U.cols == 16
    dense = U.to_dense()
    assert (dense.sum(axis=1) == len(S.elements)).all()
    assert gf2.is_self_orthogonal(U)

