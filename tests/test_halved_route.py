"""The block model of ``css.CssCode`` against the full adjacency matrix M.

When every generator has odd weight, M is a coordinate permutation of
[[0, U], [U, 0]] and ``build_css`` holds the code as the two blocks
(U, evens) and (U, odds); otherwise as the one block (M, None).  The
oracle here is plain elimination of M itself, built directly by
``adjacency_matrix``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycss import cayley, cli, css, gf2, repetition
from cayleycss.cayley import GeneratorSet, adjacency_matrix
from cayleycss.css import WordClass
from cayleycss.gf2 import BitMatrix, BitVector


def full_matrix(code):
    """The oracle M of a graph-backed code, never read from its blocks."""
    return adjacency_matrix(code.m, code.generators)


def full_classify(code, w):
    """The three-way classification on M, never on U."""
    M = full_matrix(code)
    if not M.mul_vector(w).is_zero():
        return WordClass.NOT_IN_DUAL
    if gf2.in_row_space(M, w):
        return WordClass.STABILIZER
    return WordClass.LOGICAL


def assert_two_blocks_of_one_u(code):
    """The bipartite layout: one shared U on the even, then the odd
    class."""
    U = cayley.halved_matrix(code.m, code.generators)
    assert [B is U for B, _ in code.blocks] == [True, True]
    for (_, pos), want in zip(code.blocks, cayley.class_vertices(code.m)):
        assert (pos == want).all()


def random_word(rng, length, support=None):
    """A random word, restricted to the vertices ``support`` if given."""
    value = rng.getrandbits(length)
    w = BitVector.from_int(length, value)
    if support is None:
        return w
    return BitVector.from_support(
        length, [p for p in support if w.bit(int(p))]
    )


def translate(w, t):
    """The word moved by the graph automorphism v -> v + t."""
    return BitVector.from_support(w.length, [v ^ t for v in w.support()])


# -- rank ----------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_tower_rank_is_twice_the_halved_rank(n):
    code = repetition.build_code(n)
    assert_two_blocks_of_one_u(code)
    assert code.rank == gf2.rank(full_matrix(code))
    assert code.K == repetition.parameters(n)[1]


@pytest.mark.parametrize("m", range(1, 13))
def test_hypercube_rank_is_twice_the_halved_rank(m):
    # Rank is a matrix property: odd m (not self-orthogonal) counts too.
    S = GeneratorSet.canonical(m)
    M = adjacency_matrix(m, S)
    assert gf2.rank(M) == 2 * gf2.rank(cayley.halved_matrix(m, S))
    if m % 2 == 0:
        code = css.build_css(m, S)
        assert_two_blocks_of_one_u(code)
        assert code.rank == gf2.rank(M)


@st.composite
def odd_weight_sets(draw):
    """An even-size set of distinct odd-weight elements of F_2^m."""
    m = draw(st.integers(2, 8))
    odd = [v for v in range(1, 1 << m) if v.bit_count() % 2]
    size = 2 * draw(st.integers(1, min(8, len(odd) // 2)))
    elements = draw(st.lists(st.sampled_from(odd), min_size=size,
                             max_size=size, unique=True))
    return m, GeneratorSet(m, tuple(elements))


#: Kernel dimensions up to which the hypothesis test compares the exact
#: distance with the walk over M's kernel (2^20 words, well under 1 s).
ORACLE_DISTANCE_DIMENSION = 20


@settings(max_examples=60, deadline=None, database=None)
@given(odd_weight_sets(), st.integers(0, 2**32))
def test_random_odd_weight_sets_agree_with_the_full_matrix(drawn, seed):
    m, S = drawn
    code = css.build_css(m, S)
    assert_two_blocks_of_one_u(code)
    M = full_matrix(code)
    N = code.N
    assert code.rank == gf2.rank(M)
    assert sorted(r.to_int() for r in code.rows) == sorted(
        M.row(i).to_int() for i in range(M.rows)
    )
    kernel = code.kernel
    assert len(kernel) == N - gf2.rank(M)
    assert all(M.mul_vector(v).is_zero() for v in kernel)
    assert gf2.rank(BitMatrix.from_rows(kernel)) == len(kernel)
    dim = len(kernel)
    if 0 < code.K and dim <= ORACLE_DISTANCE_DIMENSION:
        report = css.distance_exact(code)
        weight, witness = gf2.min_weight_in_span_minus_subspace(
            gf2.kernel_basis(M), [M.row(i) for i in range(M.rows)]
        )
        assert (report.value, report.witness) == (weight, witness)
    rng = random.Random(seed)
    words = [random_word(rng, N), M.mul_vector(random_word(rng, N))]
    value = 0
    for v in kernel:
        if rng.random() < 0.5:
            value ^= v.to_int()
    words.append(BitVector.from_int(N, value))
    for w in words:
        assert css.classify_word(code, w) is full_classify(code, w)


@pytest.mark.parametrize("seed", range(6))
def test_exact_distance_matches_the_walk_over_m(seed):
    # Hypothesis rarely draws a nontrivial odd-weight set at m = 5 within
    # the oracle's reach; these are the distance workload's shape.
    rng = random.Random(seed)
    odd = [v for v in range(1, 32) if v.bit_count() % 2]
    while True:
        S = GeneratorSet(5, tuple(rng.sample(odd, 2 * rng.randint(2, 6))))
        code = css.build_css(5, S)
        if code.K > 0 and code.N - code.rank <= 22:
            break
    M = full_matrix(code)
    report = css.distance_exact(code)
    weight, witness = gf2.min_weight_in_span_minus_subspace(
        gf2.kernel_basis(M), [M.row(i) for i in range(M.rows)]
    )
    assert (report.value, report.witness) == (weight, witness)


# -- classification ------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_witness_classifies_as_on_the_full_matrix(n):
    code = repetition.build_code(n)
    w = repetition.min_weight_witness(n)
    assert css.classify_word(code, w) is WordClass.LOGICAL
    assert full_classify(code, w) is WordClass.LOGICAL


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_kernel_row_space_and_off_kernel_words_classify_alike(n):
    rng = random.Random(n)
    code = repetition.build_code(n)
    M = full_matrix(code)
    N = code.N
    kernel = [v.to_int() for v in code.kernel]
    seen = set()
    for _ in range(20):
        value = 0
        for v in kernel:
            if rng.random() < 0.5:
                value ^= v
        for w in (
            BitVector.from_int(N, value),
            M.mul_vector(random_word(rng, N)),
            random_word(rng, N),
        ):
            want = full_classify(code, w)
            assert css.classify_word(code, w) is want
            seen.add(want)
    assert seen == set(WordClass)


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
def test_stabilizer_on_one_class_and_logical_on_the_other(n):
    # The witness lies on the odd class; M maps a word on one class to a
    # row-space word on the other, and translation by e_1 swaps classes.
    rng = random.Random(n)
    code = repetition.build_code(n)
    M = full_matrix(code)
    N = code.N
    evens, odds = cayley.class_vertices(n)
    w = repetition.min_weight_witness(n)
    assert set(w.support()) <= set(odds.tolist())
    stab_even = M.mul_vector(random_word(rng, N, odds))
    stab_odd = M.mul_vector(random_word(rng, N, evens))
    assert not stab_even.is_zero() and not stab_odd.is_zero()
    w_even = translate(w, 1)
    broken_odd = w ^ BitVector.from_support(N, [int(odds[0])])
    cases = [
        (w ^ stab_even, WordClass.LOGICAL),
        (w_even ^ stab_odd, WordClass.LOGICAL),
        (stab_even ^ stab_odd, WordClass.STABILIZER),
        (w ^ w_even, WordClass.LOGICAL),
        (stab_even ^ broken_odd, WordClass.NOT_IN_DUAL),
    ]
    for word, want in cases:
        assert full_classify(code, word) is want
        assert css.classify_word(code, word) is want


# -- dispatch ------------------------------------------------------------


@pytest.fixture
def halved_calls(monkeypatch):
    """Every halved block built through ``cayley.halved_matrix``."""
    calls = []
    real = cayley.halved_matrix

    def spy(m, S):
        calls.append((m, S))
        return real(m, S)
    monkeypatch.setattr(cayley, "halved_matrix", spy)
    monkeypatch.setattr(css, "halved_matrix", spy)
    return calls


@pytest.fixture
def eliminated_shapes(monkeypatch):
    """The shape of every matrix eliminated, with both caches cleared so
    that nothing arrives already eliminated."""
    cayley._adjacency.cache_clear()
    cayley._halved.cache_clear()
    shapes = []
    real = gf2._eliminate

    def spy(work, pivot_words):
        shapes.append(work.shape)
        return real(work, pivot_words)
    monkeypatch.setattr(gf2, "_eliminate", spy)
    return shapes


def test_non_bipartite_sets_never_build_the_halved_block(halved_calls,
                                                         capsys):
    # 00011 has even weight.
    S = GeneratorSet.from_strings(5, ["10000", "01000", "00100", "00011"])
    code = css.build_css(5, S)
    assert len(code.blocks) == 1
    B, pos = code.blocks[0]
    assert B is adjacency_matrix(5, S) and pos is None
    assert code.rank == gf2.rank(full_matrix(code))
    w = code.kernel[0]
    assert css.classify_word(code, w) is full_classify(code, w)
    assert cli.main(["params", "--m", "5", "--gens",
                     "10000,01000,00100,00011"]) == 0
    assert halved_calls == []


def test_codes_from_a_matrix_never_build_the_halved_block(halved_calls):
    code = css.css_from_matrix(repetition.matrix(7))
    assert len(code.blocks) == 1
    B, pos = code.blocks[0]
    assert B is repetition.matrix(7) and pos is None
    assert code.K == repetition.parameters(7)[1]
    w = repetition.min_weight_witness(7)
    halved_calls.clear()
    assert css.classify_word(code, w) is WordClass.LOGICAL
    assert halved_calls == []


def test_params_eliminates_the_halved_block_once(eliminated_shapes):
    # The code's rank eliminates U(9); the witness is certified without
    # a matrix, so no lower level's U and no M is eliminated.
    assert cli.main(["params", "--family", "repetition", "--n", "9"]) == 0
    assert eliminated_shapes == [(256, 4)]


#: Generator sets over F_2^5 with kernel dimension 20 and K = 8, so
#: ``params`` takes the exact-distance path: all odd weights, then one
#: even-weight generator (00101) among them.
ODD_WEIGHT_GENS = "10000,00100,00111,00010,11100,01101"
MIXED_GENS = "00100,00101,10100,10010,01010,01101"


@pytest.mark.parametrize("argv", [
    ["--family", "repetition", "--n", "5"],
    ["--m", "5", "--gens", ODD_WEIGHT_GENS],
])
def test_exact_distance_eliminates_the_halved_block_once(
        eliminated_shapes, argv, capsys):
    # rank, kernel and the exact walk share U's echelon; M (32 rows) is
    # never eliminated.
    assert cli.main(["params", *argv]) == 0
    assert '"method": "exact"' in capsys.readouterr().out
    assert eliminated_shapes == [(16, 1)]


def test_exact_distance_of_a_mixed_set_eliminates_m_once(
        eliminated_shapes, capsys):
    assert cli.main(["params", "--m", "5", "--gens", MIXED_GENS]) == 0
    assert '"method": "exact"' in capsys.readouterr().out
    assert eliminated_shapes == [(32, 1)]


def test_tower_params_and_witness_build_no_adjacency_matrix(monkeypatch,
                                                            capsys):
    cayley._adjacency.cache_clear()
    cayley._halved.cache_clear()
    built = []

    def spy(m, S):
        built.append(m)
        raise AssertionError("the adjacency matrix was built")
    monkeypatch.setattr(cayley, "_build_adjacency", spy)
    monkeypatch.setattr(cayley, "_adjacency", spy)
    assert cli.main(["params", "--family", "repetition", "--n", "9"]) == 0
    assert cli.main(["witness", "--n", "9"]) == 0
    assert built == []


@pytest.mark.parametrize("n", [9, 13, 23])
def test_witness_builds_and_eliminates_no_matrix(monkeypatch, capsys, n):
    cayley._adjacency.cache_clear()
    cayley._halved.cache_clear()
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def record(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, record)
    spy(gf2, "_eliminate")
    for name in ("_build_halved", "_halved", "_build_adjacency",
                 "_adjacency"):
        spy(cayley, name)
    assert cli.main(["witness", "--n", str(n)]) == 0
    assert '"classification": "logical"' in capsys.readouterr().out
    assert calls == []


def test_class_vertices_index_each_class_by_v_shift_1():
    m = 6
    evens, odds = cayley.class_vertices(m)
    assert (evens >> 1 == np.arange(32)).all()
    assert (odds >> 1 == np.arange(32)).all()
    assert (evens ^ 1 == odds).all()
    w = BitVector.from_support(64, [0, 3, 7, 8, 63])
    even, odd = (w.take(pos) for pos in (evens, odds))
    # 0, 3 and 63 have even weight, 7 and 8 odd weight.
    assert even.support() == [0, 1, 31]
    assert odd.support() == [3, 4]


def test_halved_block_is_symmetric_and_lifts_to_the_tower():
    n = 5
    U = repetition.halved(n)
    assert U.transpose() == U
    evens, odds = cayley.class_vertices(n)
    dense = np.zeros((32, 32), dtype=np.uint8)
    dense[np.ix_(evens, odds)] = U.to_dense()
    dense[np.ix_(odds, evens)] = U.to_dense()
    assert BitMatrix.from_dense(dense) == repetition.matrix(n)


def test_halved_blocks_are_shared_only_up_to_cache_limit(monkeypatch):
    monkeypatch.setattr(cayley, "MAX_CACHED_DIMENSION", 4)
    S4, S5 = GeneratorSet.canonical(4), GeneratorSet.named("S5'")
    assert cayley.halved_matrix(4, S4) is cayley.halved_matrix(4, S4)
    fresh = cayley.halved_matrix(5, S5)
    assert fresh is not cayley.halved_matrix(5, S5)
    assert fresh == cayley.halved_matrix(5, S5)
