"""CSS code parameters, word classification, and distance reports."""

import math
import random

import pytest

from cayleycss import css, gf2, repetition
from cayleycss.cayley import GeneratorSet, adjacency_matrix, ball
from cayleycss.css import (
    InapplicableBoundError,
    SelfOrthogonalityError,
    WordClass,
    build_css,
    classify_word,
    css_from_matrix,
    distance_exact,
    distance_lower_bound_theorem,
)
from cayleycss.gf2 import BitMatrix, BitVector


def test_build_css_basic_parameters():
    code = build_css(3, GeneratorSet.named("S3'"))
    assert (code.N, code.rank, code.K) == (8, 2, 4)
    assert not code.is_trivial


def test_build_css_rejects_odd_generator_count():
    with pytest.raises(SelfOrthogonalityError, match="odd size"):
        build_css(3, GeneratorSet(3, (1, 2, 4)))


@pytest.mark.parametrize("elements", [(1, 2), (1, 3)])
def test_build_css_rejects_a_set_of_another_group(elements):
    # (1, 2) is bipartite and takes the halved block, (1, 3) is not.
    with pytest.raises(ValueError, match="does not live in F_2"):
        build_css(3, GeneratorSet(2, elements))


def test_css_from_matrix_rejects_non_orthogonal():
    M = BitMatrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    with pytest.raises(SelfOrthogonalityError):
        css_from_matrix(M)


def test_hypercube_is_self_dual():
    for n in (2, 4):
        code = build_css(n, GeneratorSet.canonical(n))
        assert code.K == 0
        assert code.is_trivial
        report = distance_exact(code)
        assert report.trivial and report.value is None


def test_distance_exact_small_tower():
    code = build_css(3, GeneratorSet.named("S3'"))
    report = distance_exact(code)
    assert report.value == 2
    assert classify_word(code, report.witness) is WordClass.LOGICAL


def test_distance_exact_budget():
    code = build_css(3, GeneratorSet.named("S3'"))
    with pytest.raises(gf2.DimensionBudgetError):
        distance_exact(code, budget=2)


def test_distance_falls_back_to_the_callers_witness_past_the_budget():
    code = repetition.build_code(3)  # one U block of kernel dimension 3
    w = repetition.min_weight_witness(3)
    assert css.distance(code, 3, w, 2) == distance_exact(code, 3)
    with pytest.raises(gf2.DimensionBudgetError):
        css.distance(code, 2)
    report = css.distance(code, 2, w, 2)
    assert (report.method, report.value, report.witness) == (
        "witness-upper", 2, w)
    assert report.as_dict() == {
        "method": "witness-upper", "upper": 2, "claimed": 2,
        "label": "paper-claimed, witness-upper-bound-verified",
    }


def test_classify_word_three_ways():
    code = build_css(3, GeneratorSet.named("S3'"))
    M = adjacency_matrix(3, GeneratorSet.named("S3'"))
    assert classify_word(code, M.row(0)) is WordClass.STABILIZER
    assert (
        classify_word(code, BitVector.from_support(8, [0]))
        is WordClass.NOT_IN_DUAL
    )
    logical = BitVector.from_support(8, [2, 4])
    assert classify_word(code, logical) is WordClass.LOGICAL
    with pytest.raises(ValueError):
        classify_word(code, BitVector.zeros(4))


def test_lower_bound_arithmetic():
    assert distance_lower_bound_theorem(10, 9) == 2    # ceil(900/640)
    assert distance_lower_bound_theorem(16, 10) == 4   # ceil(2560/640)
    assert distance_lower_bound_theorem(100, 9) == 141
    with pytest.raises(InapplicableBoundError):
        distance_lower_bound_theorem(100, 8)


def test_ball_weight_margins():
    w = BitVector.from_support(8, [2, 4])
    report = css.ball_weight_check(3, GeneratorSet.named("S3'"), w,
                                   n_classical=4)
    assert report.threshold == 1  # ceil(16/32) = 1
    # radius-4 balls cover the whole graph, so both ones are inside
    assert all(m == 1 for m in report.margins.values())
    assert report.ok


@pytest.mark.parametrize("m, n, length", [(7, 9, 512), (9, 9, 256)])
def test_ball_weight_check_refuses_a_graph_the_word_is_not_on(m, n, length):
    # With (m, S) passed apart, nothing else ties them to each other and
    # to the word; a mismatch would count margins on the wrong graph.
    w = BitVector.from_support(length, [3, 5])
    with pytest.raises(ValueError, match="F_2"):
        css.ball_weight_check(m, repetition.generators(n), w, n + 1)


def per_vertex_ball_margins(m, S, w, n_classical):
    """Reference margins: one BFS ball per support vertex, no
    translation."""
    threshold = math.ceil(n_classical * n_classical / 32)
    margins = {}
    for x in w.support():
        b = ball(m, S, x, 4)
        inside = sum(b.bit(v) for v in w.support())
        margins[x] = inside - threshold
    return margins


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_ball_weight_margins_match_per_vertex_balls_on_witnesses(n):
    S = repetition.generators(n)
    w = repetition.min_weight_witness(n)
    report = css.ball_weight_check(n, S, w, n_classical=n + 1)
    assert report.margins == per_vertex_ball_margins(n, S, w, n + 1)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_ball_weight_margins_match_per_vertex_balls_on_random_words(n):
    # Up to n = 7 a radius-4 ball is the whole graph (graph distance is
    # at most (n + 1) / 2), so n = 9 is the first size with proper balls.
    rng = random.Random(n)
    S = repetition.generators(n)
    for _ in range(5):
        w = BitVector.from_support(
            1 << n, rng.sample(range(1 << n), rng.randint(1, 32))
        )
        report = css.ball_weight_check(n, S, w, n_classical=n + 1)
        assert report.margins == per_vertex_ball_margins(n, S, w, n + 1)
