"""The basis-plus-all-ones tower: recursion, kernels, witnesses."""

import random

import numpy as np
import pytest

from cayleycss import cayley, css, gf2, repetition
from cayleycss.cayley import SizeGuardError
from cayleycss.gf2 import BitMatrix, BitVector
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


@pytest.mark.parametrize("n", range(4, 11))
def test_recursive_build_matches_direct(n):
    assert build_recursive(n) == matrix(n)


def test_recursive_build_guards():
    with pytest.raises(ValueError):
        build_recursive(3)
    with pytest.raises(SizeGuardError):
        build_recursive(12)


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
    n = n_total - 2
    M = matrix(n_total)
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
        assert kernel_characterize(n, QuadSplit.split(v)).in_kernel == direct
    assert 400 < in_kernel_seen < 600  # both classes actually exercised


def test_characterization_block_length_guard():
    with pytest.raises(ValueError):
        kernel_characterize(3, QuadSplit.split(BitVector.zeros(16)))


@pytest.mark.parametrize("n_total,expected", [(5, 20), (7, 72)])
def test_recursive_kernel_basis(n_total, expected):
    basis = kernel_basis_recursive(n_total - 2)
    assert len(basis) == expected
    assert gf2.rank(BitMatrix.from_rows(basis)) == expected
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
    # The tower code's check matrix is the halved block U, one cached
    # object for both blocks and for every code of the same level.
    cayley._halved.cache_clear()
    n = 7
    code = css.build_css(n, repetition.generators(n))
    U = repetition.halved(n)
    assert [B is U for B, _ in code.blocks] == [True, True]
    assert U._ech is None
    assert code.rank == 2 * gf2.rank(U)
    echelon = U._ech
    assert echelon is not None
    assert repetition.build_code(n).rank == code.rank
    assert U._ech is echelon


# -- image parametrization and normal forms --------------------------------


def test_image_element_lands_in_row_space():
    rng = random.Random(21)
    big = matrix(5)
    for _ in range(10):
        blocks = [random_vector(rng, 8) for _ in range(4)]
        c = image_element(3, *blocks)
        assert gf2.in_row_space(big, c)


def test_image_elements_span_the_row_space():
    # the four unit blocks generate: check dimension equals the rank
    rows = []
    for i in range(4):
        for p in range(8):
            blocks = [BitVector.zeros(8)] * 4
            blocks[i] = BitVector.from_support(8, [p])
            rows.append(image_element(3, *blocks))
    assert gf2.rank(BitMatrix.from_rows(rows)) == gf2.rank(matrix(5))


def test_normal_form_of_image_word():
    rng = random.Random(22)
    big = matrix(5)
    for _ in range(5):
        c = image_element(3, *[random_vector(rng, 8) for _ in range(4)])
        nf = representative_normal_form(5, c)
        assert nf.reduced
        assert nf.quad.parts[1].is_zero() and nf.quad.parts[2].is_zero()
        assert nf.quad.parts[0] == nf.quad.parts[3]
        assert gf2.in_row_space(big, c ^ nf.quad.join())


def test_normal_form_keeps_genuine_logical_words():
    w = min_weight_witness(5)
    nf = representative_normal_form(5, w)
    assert not nf.reduced
    assert nf.quad.join() == w


def test_normal_form_rejects_non_kernel_input():
    with pytest.raises(ValueError):
        representative_normal_form(5, BitVector.from_support(32, [0]))


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


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_a_translate_is_a_kernel_partner_with_even_overlap(n):
    # w + e1 is logical too, but lies on the other weight class.
    w = min_weight_witness(n)
    moved = BitVector.from_support(
        w.length, translate_e1(n, np.array(w.support()))
    )
    assert css.classify_word(repetition.build_code(n), moved) is (
        css.WordClass.LOGICAL
    )
    with pytest.raises(AssertionError,
                       match="'partner_in_kernel': True, 'overlap': 0"):
        repetition.certify_logical(n, w, ("translate-e1", translate_e1))


@pytest.mark.parametrize("n", range(3, 24, 2))
def test_coordinate_reversal_fails_as_partner_from_n7(n):
    w = min_weight_witness(n)
    partner = ("reversal", coordinate_reversal)
    if n < 7:
        assert repetition.certify_logical(n, w, partner)["overlap"] == 1
        return
    with pytest.raises(AssertionError,
                       match="'partner_in_kernel': True, 'overlap': 0"):
        repetition.certify_logical(n, w, partner)


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
    upper = css.distance_witness_upper(code, min_weight_witness(7))
    assert upper.rejected_reason is None
    assert upper.upper == 8 == repetition.parameters(7)[2]


@pytest.mark.parametrize("n,params", [(3, (4, 2, 2)), (5, (16, 4, 4))])
def test_halved_code_parameters(n, params):
    code = css.css_from_matrix(
        repetition.halved(n)
    )
    d = css.distance_exact(code)
    assert (code.N, code.K, d.value) == params
