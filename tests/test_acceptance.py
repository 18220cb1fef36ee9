"""Acceptance gate: the headline claims of the construction, each as
one test with its stated tolerance and time limit.

Everything here is desk-scale and deterministic; the exact quantum
distance is computed where the kernel dimension permits exhaustive
enumeration (n <= 5) and certified by weight-exact logical witnesses
above that.
"""

import itertools
import random
import time

import numpy as np
import pytest

from cayleycss import css, formats, gf2, repetition, verify
from cayleycss.cayley import GeneratorSet, adjacency_matrix
from cayleycss.cover import CoverMap, BallCollision, certify_ball_isomorphism
from cayleycss.gf2 import BitMatrix
from cayleycss.smallcode import build_parity_check

# The worked 8x8 example (basis-plus-all-ones over F_2^3), frozen.
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


def test_01_golden_8x8_adjacency_under_1ms():
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        M = adjacency_matrix(3, GeneratorSet.named("S3'"))
        best = min(best, time.perf_counter() - t0)
    assert np.array_equal(M.to_dense(), GOLDEN_8x8)
    assert best < 1e-3, f"adjacency build took {best * 1e3:.3f} ms"


def test_02_kernel_dimension_formula_up_to_n13_under_60s():
    base = adjacency_matrix(3, GeneratorSet.named("S3'"))
    assert gf2.rank(base) == 2
    assert css.css_from_matrix(base).K == 4
    for n in (3, 5, 7, 9, 11, 13):
        t0 = time.perf_counter()
        M = adjacency_matrix(n, GeneratorSet.named(f"S{n}'"))
        dim = M.cols - gf2.rank(M)
        elapsed = time.perf_counter() - t0
        assert dim == (1 << (n - 1)) + (1 << ((n - 1) // 2))
        if n == 13:
            assert elapsed < 60, f"n=13 rank took {elapsed:.1f} s"


def test_03_even_hypercubes_are_self_dual():
    for n in (2, 4, 6, 8, 10, 12):
        M = adjacency_matrix(n, GeneratorSet.canonical(n))
        assert gf2.rank(M) == 1 << (n - 1)


def test_04_exact_distances_n3_n5_under_60s():
    for n, expected in ((3, 2), (5, 4)):
        code = repetition.build_code(n)
        t0 = time.perf_counter()
        report = css.distance_exact(code)
        elapsed = time.perf_counter() - t0
        assert report.value == expected
        assert (
            css.classify_word(code, report.witness) is css.WordClass.LOGICAL
        )
        assert elapsed < 60, f"n={n} enumeration took {elapsed:.1f} s"


def test_05_verified_witnesses_where_exact_search_is_out_of_reach():
    for n in (7, 9, 11, 13):
        w = repetition.min_weight_witness(n)
        assert w.weight == 1 << ((n - 1) // 2)
        code = repetition.build_code(n)
        assert css.classify_word(code, w) is css.WordClass.LOGICAL


def test_06_block_recursion_and_reversal_identities():
    for n in range(4, 11):
        assert repetition.build_recursive(n) == repetition.matrix(n)
    for n in (3, 5, 7):
        size = 1 << n
        J = repetition.reversal_matrix(size).to_dense()
        assert np.array_equal(J @ J % 2, np.eye(size, dtype=np.uint8))
        dense = repetition.matrix(n).to_dense()
        assert np.array_equal(J @ dense @ J % 2, dense)


def test_07_kernel_characterization_and_recursive_bases():
    for n_total in (5, 7):
        rng = random.Random(n_total)
        M = repetition.matrix(n_total)
        level = repetition.matrix(n_total - 2)
        kernel = gf2.kernel_basis(M)
        length = 1 << n_total
        for i in range(1000):
            if i % 2:
                value = 0
                for k in kernel:
                    if rng.random() < 0.5:
                        value ^= k.to_int()
            else:
                value = rng.getrandbits(length)
            v = gf2.BitVector.from_int(length, value)
            direct = M.mul_vector(v).is_zero()
            got = repetition.kernel_characterize(
                level, repetition.QuadSplit.split(v)
            ).in_kernel
            assert got == direct
    for n_total, size in ((5, 20), (7, 72)):
        basis = repetition.kernel_basis_recursive(n_total - 2)
        assert len(basis) == size
        assert gf2.rank(BitMatrix.from_rows(basis)) == size


def test_08_cover_certificates_and_non_liftable_word():
    cm = CoverMap(build_parity_check(5, (0b11111,)))
    for c in range(32):
        assert len(cm.fiber(c)) == 2
    for center in range(64):
        for r in (0, 1, 2):
            cert = certify_ball_isomorphism(cm, center, r)
            assert not isinstance(cert, BallCollision)
    assert isinstance(certify_ball_isomorphism(cm, 0, 3), BallCollision)
    ok, detail = verify.non_lift_example()
    assert ok, detail
    assert "3 times" in detail


def test_09_in_ball_decomposition_is_exactly_the_codeword_test():
    t0 = time.perf_counter()
    ok, detail = verify.local_sum_exhaustive()
    elapsed = time.perf_counter() - t0
    assert ok, detail
    assert elapsed < 1, f"exhaustive sweep took {elapsed:.2f} s"


def test_10_self_orthogonality_three_way_agreement():
    for m in (2, 3, 4):
        nonzero = range(1, 1 << m)
        for size in range(2, (1 << m), 2):
            combos = list(itertools.combinations(nonzero, size))
            agree = verify.three_way_agreement(m, combos)
            assert agree.all(), (
                f"disagreement at m={m}, S={combos[agree.argmin()]}"
            )
    rng = random.Random(77)
    for m in (5, 6):
        for _ in range(100):
            size = 2 * rng.randint(1, 8)
            combo = tuple(rng.sample(range(1, 1 << m), size))
            assert verify.three_way_agreement(m, [combo]).all()
    for n in (2, 3, 4):
        group, terms = verify.torus_example_generators(n)
        from cayleycss.cayley import algebra_nilpotency_check

        assert algebra_nilpotency_check(group, terms)


def test_11_halved_codes():
    for n, params in ((3, (4, 2, 2)), (5, (16, 4, 4))):
        code = css.css_from_matrix(
            repetition.halved(n)
        )
        report = css.distance_exact(code)
        assert (code.N, code.K, report.value) == params
        assert code.N == 1 << (n - 1)
        assert code.K == report.value == 1 << ((n - 1) // 2)


def test_12_lower_bound_arithmetic_and_ball_weight_spot_check():
    assert css.distance_lower_bound_theorem(10, 9) == 2
    assert css.distance_lower_bound_theorem(16, 10) == 4
    with pytest.raises(css.InapplicableBoundError):
        css.distance_lower_bound_theorem(100, 8)
    w = repetition.min_weight_witness(9)
    report = css.ball_weight_check(9, repetition.generators(9), w,
                                   n_classical=10)
    assert report.threshold == 4
    assert report.ok, "a support vertex saw fewer than 4 ones in its ball"


def test_13_self_orthogonality_of_n13_tower_under_5s():
    M = repetition.matrix(13)
    t0 = time.perf_counter()
    ok = gf2.is_self_orthogonal(M)
    elapsed = time.perf_counter() - t0
    assert ok
    assert elapsed < 5, f"is_self_orthogonal at n=13 took {elapsed:.1f} s"


@pytest.mark.parametrize("fmt", formats.FORMAT_NAMES)
def test_14_n13_tower_export_under_2s(fmt, tmp_path):
    M = repetition.matrix(13)
    path = str(tmp_path / f"tower13.{fmt}")
    t0 = time.perf_counter()
    formats.write_matrix(M, fmt, path)
    elapsed = time.perf_counter() - t0
    assert formats.read_matrix(fmt, path) == M
    assert elapsed < 2, f"{fmt} export at n=13 took {elapsed:.2f} s"
