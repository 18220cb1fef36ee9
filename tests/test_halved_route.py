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

from test_cli import TWO_BLOCKS_OF_DIM_15


def full_matrix(m, S):
    """The oracle M of the graph, never read from a code's blocks."""
    return adjacency_matrix(m, S)


def full_classify(M, w):
    """The three-way classification on M, never on U."""
    if not M.mul_vector(w).is_zero():
        return WordClass.NOT_IN_DUAL
    if gf2.in_row_space(M, w):
        return WordClass.STABILIZER
    return WordClass.LOGICAL


def assert_two_blocks_of_one_u(code, m, S):
    """The bipartite layout of the code of (m, S): one shared U on the
    even, then the odd class."""
    (U, _), (B, _) = code.blocks
    assert B is U and U == cayley.halved_matrix(m, S)
    for (_, pos), want in zip(code.blocks, cayley.class_vertices(m)):
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


def lift(N, v, pos):
    """A word of a block placed on the coordinates ``pos`` of a length-N
    code (None: all of them)."""
    return v if pos is None else BitVector.from_support(
        N, [int(pos[i]) for i in v.support()]
    )


def lifted_kernel_and_rows(code):
    """Every block's kernel basis and rows, placed on the code's
    coordinates: the kernel and check rows of the whole code."""
    kernel = [lift(code.N, v, pos)
              for B, pos in code.blocks for v in gf2.kernel_basis(B)]
    rows = [lift(code.N, B.row(i), pos)
            for B, pos in code.blocks for i in range(B.rows)]
    return kernel, rows


def search_full_matrix(M):
    """The engine on M's own kernel and row basis, never on U."""
    return gf2.min_weight_in_span_minus_subspace(
        gf2.column_basis(M)[1], gf2.row_basis(M), M.cols
    )


def translate(w, t):
    """The word moved by the graph automorphism v -> v + t."""
    return BitVector.from_support(w.length, [v ^ t for v in w.support()])


# -- rank ----------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_tower_rank_is_twice_the_halved_rank(n):
    S = repetition.generators(n)
    code = repetition.build_code(n)
    assert_two_blocks_of_one_u(code, n, S)
    assert code.rank == gf2.rank(full_matrix(n, S))
    assert code.K == repetition.parameters(n)[1]


@pytest.mark.parametrize("m", range(1, 13))
def test_hypercube_rank_is_twice_the_halved_rank(m):
    # Rank is a matrix property: odd m (not self-orthogonal) counts too.
    S = GeneratorSet.canonical(m)
    M = adjacency_matrix(m, S)
    assert gf2.rank(M) == 2 * gf2.rank(cayley.halved_matrix(m, S))
    if m % 2 == 0:
        code = css.build_css(m, S)
        assert_two_blocks_of_one_u(code, m, S)
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
    assert_two_blocks_of_one_u(code, m, S)
    M = full_matrix(m, S)
    N = code.N
    assert code.rank == gf2.rank(M)
    kernel, rows = lifted_kernel_and_rows(code)
    assert sorted(r.to_int() for r in rows) == sorted(
        M.row(i).to_int() for i in range(M.rows)
    )
    assert len(kernel) == N - gf2.rank(M)
    assert all(M.mul_vector(v).is_zero() for v in kernel)
    rank = len(gf2.int_echelon((v.to_int() for v in kernel), masks=False))
    assert rank == len(kernel)
    dim = len(kernel)
    if 0 < code.K and dim <= ORACLE_DISTANCE_DIMENSION:
        report = css.distance_exact(code)
        assert (report.value, report.witness) == search_full_matrix(M)
    rng = random.Random(seed)
    words = [random_word(rng, N), M.mul_vector(random_word(rng, N))]
    value = 0
    for v in kernel:
        if rng.random() < 0.5:
            value ^= v.to_int()
    words.append(BitVector.from_int(N, value))
    for w in words:
        assert css.classify_word(code, w) is full_classify(M, w)


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
    M = full_matrix(5, S)
    report = css.distance_exact(code)
    assert (report.value, report.witness) == search_full_matrix(M)


#: Self-orthogonal blocks of known distance: a trivial one (kernel equals
#: row space), two with D = 2 and the Hamming check matrix of the Steane
#: code (D = 3).  ONES_4's least logical word is {0, 1}; PAIR_FOUR's is
#: {2, 3}, since {0, 1} is one of its rows.
TRIVIAL = BitMatrix.from_dense([[1, 1]])
ONES_4 = BitMatrix.from_dense([[1, 1, 1, 1]])
PAIR_FOUR = BitMatrix.from_dense([[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1]])
STEANE = BitMatrix.from_dense([
    [0, 0, 0, 1, 1, 1, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [1, 0, 1, 0, 1, 0, 1],
])


def two_block_code(first, first_pos, second):
    """The direct sum of two blocks: ``first`` on the coordinates
    ``first_pos``, ``second`` on the rest, in increasing order."""
    N = first.cols + second.cols
    rest = [p for p in range(N) if p not in first_pos]
    return css.CssCode(N, ((first, np.array(first_pos)),
                           (second, np.array(rest))))


@pytest.mark.parametrize("first, first_pos, second, value, support", [
    # A trivial block next to a nontrivial one: only the Steane block
    # has logical words.
    (TRIVIAL, [0, 5], STEANE, 3, [1, 2, 3]),
    # Two nontrivial blocks with different D: the lighter block wins.
    (STEANE, [0, 2, 3, 5, 6, 8, 10], ONES_4, 2, [1, 4]),
    # Equal D: the first block's least word is the smaller in the block
    # ({0, 1} against {2, 3}) but lifts to {5, 7}, the second's to
    # {2, 3}, so the tie goes to the second block.
    (ONES_4, [5, 7, 8, 9], PAIR_FOUR, 2, [2, 3]),
])
def test_exact_distance_of_two_different_blocks(first, first_pos, second,
                                                value, support):
    code = two_block_code(first, first_pos, second)
    assert gf2.is_self_orthogonal(first) and gf2.is_self_orthogonal(second)
    report = css.distance_exact(code)
    kernel, rows = lifted_kernel_and_rows(code)
    weight, witness = gf2.min_weight_in_span_minus_subspace(
        [v.to_int() for v in kernel],
        gf2.int_echelon(r.to_int() for r in rows), code.N,
    )
    assert (report.value, report.witness) == (weight, witness)
    assert (report.value, report.witness.support()) == (value, support)
    assert css.classify_word(code, report.witness) is WordClass.LOGICAL


def steane_next_to_ones_4():
    """Kernel dimensions: 4 for the Steane block, 3 for ONES_4 and 7
    for the whole code."""
    return two_block_code(STEANE, [0, 2, 3, 5, 6, 8, 10], ONES_4)


def test_a_block_past_the_budget_stops_before_any_search(monkeypatch):
    def refuse_search(*_):
        raise AssertionError("searched before the budget check")
    monkeypatch.setattr(gf2, "min_weight_in_span_minus_subspace",
                        refuse_search)
    with pytest.raises(gf2.DimensionBudgetError) as err:
        css.distance_exact(steane_next_to_ones_4(), 3)
    assert (err.value.dimension, err.value.budget) == (4, 3)


def test_the_budget_is_charged_per_block_not_on_the_whole_kernel():
    report = css.distance_exact(steane_next_to_ones_4(), 4)
    assert (report.method, report.value) == ("exact", 2)
    assert report.witness.support() == [1, 4]


@pytest.mark.parametrize("S, value, support", [
    (repetition.generators(5), 4, [5, 6, 9, 10]),
    (GeneratorSet.from_strings(5, TWO_BLOCKS_OF_DIM_15.split(",")), 2,
     [1, 2]),
], ids=["tower-n5", "two-blocks"])
def test_a_matrix_both_blocks_share_is_searched_once(monkeypatch, S, value,
                                                     support):
    # The two blocks of a bipartite code hold one U: one search, whose
    # witness is lifted through both classes, the least lifted word
    # reported (the golden reports of test_cli).
    calls = []
    real = gf2.min_weight_in_span_minus_subspace

    def spy(*args):
        calls.append(len(args[0]))
        return real(*args)
    monkeypatch.setattr(gf2, "min_weight_in_span_minus_subspace", spy)
    code = css.build_css(5, S)
    U = code.blocks[0][0]
    assert code.blocks[1][0] is U
    report = css.distance_exact(code)
    assert calls == [U.cols - gf2.rank(U)]
    assert (report.value, report.witness.support()) == (value, support)


# -- classification ------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_witness_classifies_as_on_the_full_matrix(n):
    S = repetition.generators(n)
    code = repetition.build_code(n)
    w = repetition.min_weight_witness(n)
    assert css.classify_word(code, w) is WordClass.LOGICAL
    assert full_classify(full_matrix(n, S), w) is WordClass.LOGICAL


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_kernel_row_space_and_off_kernel_words_classify_alike(n):
    rng = random.Random(n)
    S = repetition.generators(n)
    code = repetition.build_code(n)
    M = full_matrix(n, S)
    N = code.N
    kernel = [v.to_int() for v in gf2.kernel_basis(M)]
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
            want = full_classify(M, w)
            assert css.classify_word(code, w) is want
            seen.add(want)
    assert seen == set(WordClass)


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
def test_stabilizer_on_one_class_and_logical_on_the_other(n):
    # The witness lies on the odd class; M maps a word on one class to a
    # row-space word on the other, and translation by e_1 swaps classes.
    rng = random.Random(n)
    S = repetition.generators(n)
    code = repetition.build_code(n)
    M = full_matrix(n, S)
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
        assert full_classify(M, word) is want
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
    """The shape of every matrix whose rows are eliminated: M itself for
    its row basis, its transpose for its column basis."""
    shapes = []
    real = gf2._int_rows

    def spy(M):
        shapes.append((M.rows, M.cols))
        return real(M)
    monkeypatch.setattr(gf2, "_int_rows", spy)
    return shapes


def test_non_bipartite_sets_never_build_the_halved_block(halved_calls,
                                                         capsys):
    # 00011 has even weight.
    S = GeneratorSet.from_strings(5, ["10000", "01000", "00100", "00011"])
    code = css.build_css(5, S)
    assert len(code.blocks) == 1
    B, pos = code.blocks[0]
    assert B == adjacency_matrix(5, S) and pos is None
    assert code.rank == gf2.rank(full_matrix(5, S))
    w = gf2.kernel_basis(B)[0]
    assert css.classify_word(code, w) is full_classify(full_matrix(5, S), w)
    assert cli.main(["params", "--m", "5", "--gens",
                     "10000,01000,00100,00011"]) == 0
    assert halved_calls == []


def test_codes_from_a_matrix_never_build_the_halved_block(halved_calls):
    code = css.css_from_matrix(repetition.matrix(7))
    assert len(code.blocks) == 1
    B, pos = code.blocks[0]
    assert B == repetition.matrix(7) and pos is None
    assert code.K == repetition.parameters(7)[1]
    w = repetition.min_weight_witness(7)
    halved_calls.clear()
    assert css.classify_word(code, w) is WordClass.LOGICAL
    assert halved_calls == []


def test_params_eliminates_the_halved_block_once(eliminated_shapes):
    # The code's rank eliminates the rows of U(9); the witness is
    # certified without a matrix, so no lower level's U, no M and no
    # column basis is eliminated.
    assert cli.main(["params", "--family", "repetition", "--n", "9"]) == 0
    assert eliminated_shapes == [(256, 256)]


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
    # U's rows once for the rank, its columns once for the kernel that
    # both blocks' one exact walk shares; M (32 rows) is never
    # eliminated.
    assert cli.main(["params", *argv]) == 0
    assert '"method": "exact"' in capsys.readouterr().out
    assert eliminated_shapes == [(16, 16), (16, 16)]


def test_exact_distance_of_a_mixed_set_eliminates_m_once(
        eliminated_shapes, capsys):
    assert cli.main(["params", "--m", "5", "--gens", MIXED_GENS]) == 0
    assert '"method": "exact"' in capsys.readouterr().out
    assert eliminated_shapes == [(32, 32), (32, 32)]


def test_tower_params_and_witness_build_no_adjacency_matrix(monkeypatch,
                                                            capsys):
    built = []

    def spy(m, S):
        built.append(m)
        raise AssertionError("the adjacency matrix was built")
    monkeypatch.setattr(cayley, "_build_adjacency", spy)
    assert cli.main(["params", "--family", "repetition", "--n", "9"]) == 0
    assert cli.main(["witness", "--n", "9"]) == 0
    assert built == []


@pytest.mark.parametrize("n", [9, 13, 23])
def test_witness_builds_and_eliminates_no_matrix(monkeypatch, capsys, n):
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def record(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, record)
    spy(gf2, "int_echelon")
    for name in ("_build_halved", "_build_adjacency"):
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
