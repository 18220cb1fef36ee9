"""The basis-plus-all-ones tower: recursion, kernels, witnesses."""

import hashlib
import random

import numpy as np
import pytest

from cayleycss import cayley, css, gf2, repetition
from cayleycss.cayley import SizeGuardError
from cayleycss.gf2 import BitVector
from cayleycss.repetition import (
    QuadSplit,
    build_recursive,
    conjugation_check,
    image_element,
    kernel_basis_recursive,
    kernel_characterize,
    matrix,
    min_weight_witness,
    representative_normal_form,
    reversal,
    reversal_matrix,
)


def random_vector(rng, length):
    return BitVector.from_int(length, rng.getrandbits(length))


def random_kernel_word(rng, kernel):
    v = BitVector.zeros(kernel[0].length)
    for k in kernel:
        if rng.random() < 0.5:
            v = v ^ k
    return v


# -- recursion -----------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 14))
def test_recursive_build_matches_direct(n):
    assert build_recursive(n) == matrix(n)


def test_recursive_build_guards():
    with pytest.raises(ValueError):
        build_recursive(3)
    with pytest.raises(SizeGuardError):
        build_recursive(17)


@pytest.mark.parametrize("size", [2, 8, 64])
def test_reversal_is_involution(size):
    J = reversal_matrix(size).to_dense()
    assert np.array_equal(J @ J % 2, np.eye(size, dtype=np.uint8))
    v = BitVector.from_support(size, [0, size - 1, size // 2])
    assert reversal(reversal(v)) == v


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_conjugation_identity(n):
    assert conjugation_check(n)


def test_conjugation_rejects_even_n():
    with pytest.raises(ValueError):
        conjugation_check(4)


# -- kernel characterization ----------------------------------------------


@pytest.mark.parametrize("n_total", [5, 7])
def test_characterization_matches_direct_membership(n_total):
    """Block conditions agree with M . v = 0 on 1000 random words,
    half drawn from the kernel and half uniform."""
    rng = random.Random(100 + n_total)
    M, level = matrix(n_total), matrix(n_total - 2)
    kernel = gf2.kernel_basis(M)
    length = 1 << n_total
    in_kernel_seen = 0
    for i in range(1000):
        if i % 2:
            v = random_kernel_word(rng, kernel)
        else:
            v = random_vector(rng, length)
        direct = M.mul_vector(v).is_zero()
        in_kernel_seen += direct
        check = kernel_characterize(level, QuadSplit.split(v))
        assert check.in_kernel == direct
    assert 400 < in_kernel_seen < 600  # both classes actually exercised


def test_characterization_block_length_guard():
    with pytest.raises(ValueError):
        kernel_characterize(matrix(3), QuadSplit.split(BitVector.zeros(16)))


@pytest.mark.parametrize("n_total,expected", [(5, 20), (7, 72)])
def test_recursive_kernel_basis(n_total, expected):
    basis = kernel_basis_recursive(n_total - 2)
    assert len(basis) == expected
    rank = len(gf2.int_echelon((v.to_int() for v in basis), masks=False))
    assert rank == expected
    M = matrix(n_total)
    for v in basis:
        assert M.mul_vector(v).is_zero()
    # same dimension as direct elimination
    assert expected == (1 << n_total) - gf2.rank(M)


def test_kernel_dimension_formula():
    for n in (3, 5, 7, 9):
        M = matrix(n)
        assert M.cols - gf2.rank(M) == (1 << (n - 1)) + (1 << ((n - 1) // 2))


def test_tower_matrix_is_shared_and_eliminated_once():
    # The tower code's check matrix is the halved block U, one object
    # for both blocks: its rows are eliminated once for the code's rank
    # and its columns once for both blocks' kernels.
    n = 7
    code = css.build_css(n, repetition.generators(n))
    (U, _), (B, _) = code.blocks
    assert B is U and U == repetition.halved(n)
    assert U._row_basis is None and U._col_basis is None
    assert code.rank == 2 * gf2.rank(U)
    rows = U._row_basis
    assert rows is not None and U._col_basis is None
    kernel = [gf2.kernel_basis(B) for B, _ in code.blocks]
    assert sum(map(len, kernel)) == code.N - code.rank
    columns = U._col_basis
    assert columns is not None
    assert gf2.kernel_basis(U) == kernel[0]
    assert U._row_basis is rows and U._col_basis is columns


def test_recursive_kernel_basis_eliminates_the_level_matrix_once(
        monkeypatch):
    # M(7) (128 x 128) has its columns eliminated once for the kernel
    # and every solve, and its rows once, which the pair coefficients
    # extend without building a residual matrix; the independence check
    # eliminates the level-9 words as ints, building no matrix.
    shapes = []
    real = gf2._int_rows

    def spy(M):
        shapes.append((M.rows, M.cols))
        return real(M)
    monkeypatch.setattr(gf2, "_int_rows", spy)
    basis = kernel_basis_recursive(7)
    assert len(basis) == 272 and shapes == [(128, 128), (128, 128)]


@pytest.mark.parametrize("n, count, digest", [
    (3, 20, "7fcb65db64764a32ccfb8584e6c80f6e23c49ae9a75dd128cccfd7496630802c"),
    (5, 72, "90f26053207afed3fd8a9258e6d1c2ac451e017c58c67c5e7b758f22cb49d033"),
    (7, 272, "561945912a4a4e4f5a59a967822a2051d3a0aaffcad896e795a53e0a953e540e"),
])
def test_recursive_kernel_words_are_pinned_vector_for_vector(n, count,
                                                             digest):
    # The SHA-256 of the words, in order, as combining the pair
    # coefficients through the transposed kernel matrix gave them: (d1,
    # d2) and (d2, d1) both lift to kernel words, so only the words
    # themselves show which half of a coefficient is d1.
    basis = kernel_basis_recursive(n)
    blob = b"".join(v.to_int().to_bytes((4 << n) // 8, "little")
                    for v in basis)
    assert (len(basis), hashlib.sha256(blob).hexdigest()) == (count, digest)


# -- image parametrization and normal forms --------------------------------


def test_image_element_lands_in_row_space():
    rng = random.Random(21)
    big, M = matrix(5), matrix(3)
    for _ in range(10):
        blocks = [random_vector(rng, 8) for _ in range(4)]
        c = image_element(M, *blocks)
        assert gf2.in_row_space(big, c)


def test_image_elements_span_the_row_space():
    # the four unit blocks generate: check dimension equals the rank
    M = matrix(3)
    rows = []
    for i in range(4):
        for p in range(8):
            blocks = [BitVector.zeros(8)] * 4
            blocks[i] = BitVector.from_support(8, [p])
            rows.append(image_element(M, *blocks))
    rank = len(gf2.int_echelon((v.to_int() for v in rows), masks=False))
    assert rank == gf2.rank(matrix(5))


def test_normal_form_of_image_word():
    rng = random.Random(22)
    big, M = matrix(5), matrix(3)
    for _ in range(5):
        c = image_element(M, *[random_vector(rng, 8) for _ in range(4)])
        nf = representative_normal_form(big, M, c)
        assert nf.reduced
        assert nf.quad.parts[1].is_zero() and nf.quad.parts[2].is_zero()
        assert nf.quad.parts[0] == nf.quad.parts[3]
        assert gf2.in_row_space(big, c ^ nf.quad.join())


def test_normal_form_keeps_genuine_logical_words():
    w = min_weight_witness(5)
    nf = representative_normal_form(matrix(5), matrix(3), w)
    assert not nf.reduced
    assert nf.quad.join() == w


def test_normal_form_rejects_non_kernel_input():
    with pytest.raises(ValueError):
        representative_normal_form(
            matrix(5), matrix(3), BitVector.from_support(32, [0])
        )


# -- witnesses and the headline parameters ---------------------------------


def test_base_witness():
    w = min_weight_witness(3)
    assert w.support() == [2, 4]
    code = repetition.build_code(3)
    assert css.classify_word(code, w) is css.WordClass.LOGICAL


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_witness_weight(n):
    assert min_weight_witness(n).weight == 1 << ((n - 1) // 2)


def test_witness_rejects_even_n():
    with pytest.raises(ValueError):
        min_weight_witness(4)


# -- the matrix-free logical certificate -----------------------------------

CERTIFIED = {
    "in_kernel": True,
    "partner": "cyclic-shift",
    "partner_in_kernel": True,
    "overlap": 1,
}


def translate_e1(n, v):
    return v ^ 1


def coordinate_reversal(n, v):
    """x_i -> x_(n+1-i), also a graph automorphism of the tower."""
    return sum(((v >> i) & 1) << (n - 1 - i) for i in range(n))


@pytest.mark.parametrize("n", range(3, 24, 2))
def test_witness_is_certified_at_every_odd_level(n):
    w = min_weight_witness(n)
    assert repetition.certify_logical(n, w) == CERTIFIED


def quad_split_witness(n):
    """The witness as first built: (0, 0, J w, w) joined from blocks."""
    w = BitVector.from_support(8, (2, 4))
    for _ in range((n - 3) // 2):
        zero = BitVector.zeros(w.length)
        w = QuadSplit((zero, zero, reversal(w), w)).join()
    return w


@pytest.mark.parametrize("n", range(3, 24, 2))
def test_support_recursion_builds_the_quad_split_witness(n):
    w, support, cert = repetition.certified_witness(n)
    want = quad_split_witness(n)
    assert w == want
    assert support.tolist() == want.support()
    assert cert == repetition.certify_logical(n, want) == CERTIFIED
    assert min_weight_witness(n) == want


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_certificate_agrees_with_classify_word(n):
    code = repetition.build_code(n)
    w = min_weight_witness(n)
    assert css.classify_word(code, w) is css.WordClass.LOGICAL
    assert repetition.certify_logical(n, w) == CERTIFIED
    # Every support vertex flipped in turn: off the kernel, refused.
    for x in w.support():
        bad = w ^ BitVector.from_support(w.length, [x])
        assert css.classify_word(code, bad) is css.WordClass.NOT_IN_DUAL
        with pytest.raises(AssertionError, match="'in_kernel': False"):
            repetition.certify_logical(n, bad)
    # A row of M is a stabilizer; its overlap with any kernel word,
    # here its own shift, is even.
    row = cayley.sphere(n, repetition.generators(n), 0)
    assert css.classify_word(code, row) is css.WordClass.STABILIZER
    with pytest.raises(AssertionError, match="not certified"):
        repetition.certify_logical(n, row)


def other_partner(n, w, vertex_map):
    """Whether the image z of w under another vertex map lies in ker M,
    and |w & z|: the two facts certify_logical reads off the cyclic
    shift.  M z = 0 iff every vertex is hit an even number of times by
    y + s, y in supp z and s in S."""
    y = vertex_map(n, np.array(w.support()))
    S = np.array(repetition.generators(n).elements)
    hits = BitVector.from_support(w.length, (y[:, None] ^ S).ravel())
    z = BitVector.from_support(w.length, y)
    return hits.is_zero(), (w.to_int() & z.to_int()).bit_count()


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_a_translate_is_a_kernel_partner_with_even_overlap(n):
    # w + e1 is logical too, but lies on the other weight class, so it
    # could not stand in for the cyclic shift.
    w = min_weight_witness(n)
    moved = BitVector.from_support(
        w.length, translate_e1(n, np.array(w.support()))
    )
    assert css.classify_word(repetition.build_code(n), moved) is (
        css.WordClass.LOGICAL
    )
    assert other_partner(n, w, translate_e1) == (True, 0)
    assert repetition.certify_logical(n, w) == CERTIFIED


@pytest.mark.parametrize("n", range(3, 24, 2))
def test_coordinate_reversal_fails_as_partner_from_n7(n):
    w = min_weight_witness(n)
    want = (True, 1 if n < 7 else 0)
    assert other_partner(n, w, coordinate_reversal) == want


def test_parameters_closed_form():
    for n in range(3, 24, 2):
        N, K, D = repetition.parameters(n)
        assert N == 2 ** n and K == 2 ** ((n + 1) / 2) and D == K // 2


@pytest.mark.parametrize("n", [-3, 0, 1, 2, 4, 6])
def test_parameters_refuse_even_and_small_n(n):
    with pytest.raises(ValueError, match="odd n >= 3"):
        repetition.parameters(n)


def test_theorem_report_exact_regime():
    for n, d in ((3, 2), (5, 4)):
        code = repetition.build_code(n)
        assert (code.N, code.K) == (1 << n, 1 << ((n + 1) // 2))
        assert code.N - code.rank <= gf2.DEFAULT_ENUMERATION_BUDGET
        assert css.distance_exact(code).value == d
        assert repetition.parameters(n) == (code.N, code.K, d)


def test_theorem_report_bounded_regime():
    code = repetition.build_code(7)
    assert (code.N, code.K) == (128, 16)
    assert code.N - code.rank > gf2.DEFAULT_ENUMERATION_BUDGET
    w = min_weight_witness(7)
    assert css.classify_word(code, w) is css.WordClass.LOGICAL
    assert w.weight == 8 == repetition.parameters(7)[2]


@pytest.mark.parametrize("n,params", [(3, (4, 2, 2)), (5, (16, 4, 4))])
def test_halved_code_parameters(n, params):
    code = css.css_from_matrix(
        repetition.halved(n)
    )
    d = css.distance_exact(code)
    assert (code.N, code.K, d.value) == params
