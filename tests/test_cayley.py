"""Cayley graphs over F_2^m: adjacency, metric neighborhoods,
self-orthogonality tests, bipartite halving, and group algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycss import cayley, gf2
from cayleycss.cayley import (
    BigWord,
    CyclicProductGroup,
    GeneratorSet,
    SizeGuardError,
    adjacency_matrix,
    algebra_nilpotency_check,
    algebra_nilpotency_check_f2,
    ball,
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
    assert s.spans()
    assert not GeneratorSet(3, (1, 2, 3)).spans()


def test_adjacency_matches_golden_8x8():
    M = adjacency_matrix(3, GeneratorSet.named("S3'"))
    assert np.array_equal(M.to_dense(), GOLDEN_8x8)


def test_adjacency_rows_are_spheres():
    S = GeneratorSet.named("S5'")
    M = adjacency_matrix(5, S)
    for p in (0, 7, 31):
        assert M.row(p) == sphere(5, S, p).bits


def test_adjacency_shared_only_up_to_cache_limit(monkeypatch):
    monkeypatch.setattr(cayley, "MAX_CACHED_DIMENSION", 4)
    S4, S5 = GeneratorSet.canonical(4), GeneratorSet.named("S5'")
    assert adjacency_matrix(4, S4) is adjacency_matrix(4, S4)
    fresh = adjacency_matrix(5, S5)
    assert fresh is not adjacency_matrix(5, S5)
    assert fresh == adjacency_matrix(5, S5)


def test_adjacency_size_guard():
    with pytest.raises(SizeGuardError):
        adjacency_matrix(17, GeneratorSet(17, (1, 2)))


def test_sphere_and_ball():
    S = GeneratorSet.canonical(4)
    assert sorted(sphere(4, S, 0).vertices()) == [1, 2, 4, 8]
    b2 = ball(4, S, 0, 2)
    assert b2.weight == 1 + 4 + 6
    assert all(v.bit_count() <= 2 for v in b2.vertices())
    assert ball(4, S, 0, 4).weight == 16


def test_combinatorial_certificate():
    assert check_self_orthogonal_combinatorial(
        3, GeneratorSet.named("S3'")
    ).ok
    cert = check_self_orthogonal_combinatorial(3, GeneratorSet(3, (1, 2, 4)))
    assert not cert.ok and cert.reason == "odd size"


def test_three_way_self_orthogonality_examples():
    for name in ("S3'", "S4", "S5'", "S6"):
        S = GeneratorSet.named(name)
        M = adjacency_matrix(S.m, S)
        assert check_self_orthogonal_combinatorial(S.m, S).ok
        assert gf2.is_self_orthogonal(M)
        assert algebra_nilpotency_check_f2(S.m, S)


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


# -- big words --------------------------------------------------------------


def test_big_word_basics():
    w = BigWord.from_vertices(3, [2, 4])
    assert w.weight == 2
    assert 2 in w and 3 not in w
    assert (w ^ BigWord.from_vertices(3, [4, 5])).vertices() == [2, 5]

