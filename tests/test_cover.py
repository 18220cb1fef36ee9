"""Hypercube covering maps: fibers, ball isomorphisms, lifts, and
sphere-sum decompositions."""

import itertools
import random
from array import array

import pytest

from cayleycss import cli, cover, gf2, verify
from cayleycss.cayley import GeneratorSet, SizeGuardError, ball, sphere
from cayleycss.cover import (
    BallCollision,
    BallIsomorphismCertificate,
    CoverMap,
    RadiusTooLargeError,
    SupportEscapesBallError,
    certify_all_centers,
    certify_ball_isomorphism,
    check_sweep_length,
    check_sweep_size,
    decompose_as_sphere_sum,
    lift_ball_word,
    sphere_orthogonality_profile,
)
from cayleycss.gf2 import BitMatrix, BitVector
from cayleycss.smallcode import build_parity_check, min_distance


@pytest.fixture
def repetition_cover():
    # m = 5 with the all-ones extra column: a degree-2 cover of the
    # six-generator Cayley graph by the 6-hypercube
    return CoverMap(build_parity_check(5, (0b11111,)))


def test_projection_is_homomorphism(repetition_cover):
    cm = repetition_cover
    assert cm.project(0) == 0
    for x, y in [(3, 5), (17, 60), (63, 1)]:
        assert cm.project(x ^ y) == cm.project(x) ^ cm.project(y)
    # identity columns first: small vertices project to themselves
    for v in range(32):
        assert cm.project(v) == v
    assert cm.project(0b100000) == 0b11111


def test_fibers_partition(repetition_cover):
    cm = repetition_cover
    seen = set()
    for c in range(32):
        f = cm.fiber(c)
        assert len(f) == 2
        assert all(cm.project(x) == c for x in f)
        assert not (f & seen)
        seen |= f
    assert len(seen) == 64


def test_safe_radius(repetition_cover):
    assert repetition_cover.classical_distance == 6
    assert repetition_cover.safe_radius == 2


def test_ball_isomorphism_within_safe_radius(repetition_cover):
    cm = repetition_cover
    for center in range(64):
        for r in (0, 1, 2):
            cert = certify_ball_isomorphism(cm, center, r)
            assert isinstance(cert, BallIsomorphismCertificate)
    cert = certify_ball_isomorphism(cm, 0, 2)
    assert cert.ball_size == 1 + 6 + 15


def test_collision_beyond_safe_radius(repetition_cover):
    cert = certify_ball_isomorphism(repetition_cover, 0, 3)
    assert isinstance(cert, BallCollision)
    assert cert.kind == "vertex-collision"
    assert cert.first != cert.second
    cm = repetition_cover
    assert cm.project(cert.first) == cm.project(cert.second)


def small_covers():
    """Every [I_m | W] code with m <= 4 and |W| <= 2."""
    for m in range(2, 5):
        basis = {1 << i for i in range(m)}
        extra = [v for v in range(1, 1 << m) if v not in basis]
        for size in (1, 2):
            for W in itertools.combinations(extra, size):
                yield CoverMap(build_parity_check(m, W))


def test_certificate_verdict_follows_radius_formula_for_every_small_W():
    parities = set()
    for cm in small_covers():
        d = cm.classical_distance
        parities.add(d % 2)
        assert cm.safe_radius == max(r for r in range(d) if 2 * r + 1 < d)
        for r in range(d):
            certs = [
                certify_ball_isomorphism(cm, center, r)
                for center in range(1 << cm.n)
            ]
            iso = 2 * r + 1 < d
            assert all(
                isinstance(c, BallIsomorphismCertificate) == iso
                for c in certs
            ), (cm.m, cm.code.W, r)
            for c in certs:
                if isinstance(c, BallCollision):
                    edge = d % 2 == 1 and 2 * r + 1 == d
                    want = "edge-mismatch" if edge else "vertex-collision"
                    assert c.kind == want, (cm.m, cm.code.W, r)
    assert parities == {0, 1}


def loop_sweep(cm, r):
    """The center-by-center loop that certify_all_centers replaces."""
    for center in range(1 << cm.n):
        cert = certify_ball_isomorphism(cm, center, r)
        if isinstance(cert, BallCollision):
            return center + 1, cert
    return 1 << cm.n, None


def random_covers(rng, count):
    """count random codes [I_m | W] with m <= 8 and n = m + |W| <= 9."""
    covers = []
    while len(covers) < count:
        m = rng.randint(2, 8)
        basis = {1 << i for i in range(m)}
        extra = [v for v in range(1, 1 << m) if v not in basis]
        w = rng.randint(1, min(len(extra), 9 - m))
        covers.append(CoverMap(build_parity_check(m, rng.sample(extra, w))))
    return covers


def test_sweep_matches_the_center_by_center_loop():
    rng = random.Random(1)
    kinds, parities = set(), set()
    for cm in random_covers(rng, 80):
        d = cm.classical_distance
        parities.add(d % 2)
        radii = {cm.safe_radius - 1, cm.safe_radius, cm.safe_radius + 1}
        for r in sorted(radii - {-1}):
            want = loop_sweep(cm, r)
            kinds.add(want[1].kind if want[1] else "isomorphism")
            assert certify_all_centers(cm, r) == want, (cm.m, cm.code.W, r)
    assert kinds == {"isomorphism", "vertex-collision", "edge-mismatch"}
    assert parities == {0, 1}


@pytest.fixture
def full_checks(monkeypatch):
    """One entry per center the sweep checks in full: each full check
    builds its inverse map through ``dict`` once."""
    calls = []

    def spy(pairs):
        calls.append(None)
        return dict(pairs)
    monkeypatch.setattr(cover, "dict", spy, raising=False)
    return calls


def corrupt_projection(monkeypatch, cm, v, u):
    """Make v project where u does, in the table the sweep reads and in
    the projection the per-center check reads."""
    table = array("q", cm.projection_table)
    table[v] = table[u]
    cm.projection_table = table
    monkeypatch.setattr(cm, "project", table.__getitem__)


# n = 7, d = 7, r* = 2.  Each v is more than 2 from 0, its first center
# (v with its two highest ones cleared) is odd for one and even for the
# other, and u = v minus its highest one lies in that center's ball.
@pytest.mark.parametrize("v", [0b1110101, 0b1011010])
def test_sweep_fails_the_first_center_whose_ball_holds_a_corrupted_vertex(
    monkeypatch, full_checks, v
):
    cm = CoverMap(build_parity_check(6, (0b111111,)))
    r = cm.safe_radius
    assert certify_all_centers(cm, r) == (1 << cm.n, None)
    assert len(full_checks) == 1
    first = min(c for c in range(1 << cm.n) if (c ^ v).bit_count() <= r)
    assert first > 0
    u = v ^ (1 << (v.bit_length() - 1))
    corrupt_projection(monkeypatch, cm, v, u)
    full_checks.clear()
    assert certify_all_centers(cm, r) == (
        first + 1, BallCollision(first, r, u, v, "vertex-collision")
    )
    # Center 0, then the first center whose ball holds v.
    assert len(full_checks) == 2
    assert certify_all_centers(cm, r) == loop_sweep(cm, r)


def swap_projection(cm, v, u):
    """Exchange the images of v and u, in the table and in project."""
    table = array("q", cm.projection_table)
    table[v], table[u] = table[u], table[v]
    cm.projection_table = table
    cm.project = table.__getitem__


def outcome(sweep, cm, r):
    """The sweep's result, or the message of the AssertionError it
    raises when a ball's image leaves the target ball."""
    try:
        return sweep(cm, r)
    except AssertionError as exc:
        return str(exc)


def test_sweep_matches_the_loop_on_corrupted_tables(monkeypatch):
    # A corrupted table is no homomorphism, so the centers' relative
    # images differ and the sweep must still give the loop's verdict.
    rng = random.Random(23)
    kinds = set()
    for cm in random_covers(rng, 60):
        radii = {cm.safe_radius - 1, cm.safe_radius, cm.safe_radius + 1}
        v, u = rng.sample(range(1 << cm.n), 2)
        for corrupt in ("overwrite", "swap"):
            bad = CoverMap(cm.code)
            if corrupt == "overwrite":
                corrupt_projection(monkeypatch, bad, v, u)
            else:
                swap_projection(bad, v, u)
            for r in sorted(radii - {-1}):
                want = outcome(loop_sweep, bad, r)
                kinds.add("raises" if isinstance(want, str)
                          else want[1].kind if want[1] else "isomorphism")
                assert outcome(certify_all_centers, bad, r) == want, (
                    cm.m, cm.code.W, corrupt, v, u, r)
    assert kinds == {"isomorphism", "vertex-collision", "edge-mismatch",
                     "raises"}


@pytest.mark.parametrize("m, W, n, safe", [
    (8, (0b11111111,), 9, 3), (6, (0b111111,), 7, 2),
    (5, (0b11111, 0b00111), 7, 1),
])
def test_an_intact_table_is_checked_in_full_at_one_center(
    full_checks, m, W, n, safe
):
    cm = CoverMap(build_parity_check(m, W))
    assert (cm.n, cm.safe_radius) == (n, safe)
    for r in range(safe + 1):
        full_checks.clear()
        assert certify_all_centers(cm, r) == (1 << n, None)
        assert len(full_checks) == 1, r


def test_sweep_refuses_to_disagree_with_the_per_center_check():
    # Only the table is corrupted: the sweep fails a center the
    # per-center check, which projects bit by bit, passes.
    cm = CoverMap(build_parity_check(6, (0b111111,)))
    table = array("q", cm.projection_table)
    table[0b1110101] = table[0b0110101]
    cm.projection_table = table
    with pytest.raises(AssertionError, match="per-center check passes"):
        certify_all_centers(cm, cm.safe_radius)


def refuse_distance(*_):
    raise AssertionError("the distance was computed")


def test_sweep_size_guard(monkeypatch):
    # The largest sweep of the cover benchmark (n = 11, r = 5), the CLI
    # test inputs, and the verify cover suite on n = 12 at r* = 5 are
    # accepted.
    for m, W, radii in [(10, (0b1111111011,), [5]), (5, (0b11111,), [2]),
                        (6, (0b111111,), [3]), (11, (0b11111111111,),
                                                range(6))]:
        cm = CoverMap(build_parity_check(m, W))
        check_sweep_length(cm)
        check_sweep_size(cm, radii)
    # n = 13 at r* = 5: 2^13 centers times 2380 ball vertices.
    cm = CoverMap(build_parity_check(12, ((1 << 12) - 1,)))
    with pytest.raises(SizeGuardError, match="ball vertices"):
        check_sweep_size(cm, [cm.safe_radius])
    check_sweep_size(cm, range(5))
    # n = 21 is refused without its distance.
    monkeypatch.setattr(cover, "min_distance", refuse_distance)
    long = CoverMap(build_parity_check(20, ((1 << 20) - 1,)))
    with pytest.raises(SizeGuardError, match="n <= 20"):
        check_sweep_length(long)


def test_cover_never_calls_the_distance_engine(monkeypatch, capsys):
    # The classical distance comes from the codeword walk; the quantum
    # distance engine is for CSS blocks only.
    def refuse_engine(*_):
        raise AssertionError("the cover path called the distance engine")

    monkeypatch.setattr(gf2, "min_weight_in_span_minus_subspace",
                        refuse_engine)
    min_distance.cache_clear()
    assert cli.main(["cover", "--m", "5", "--gens", "11111"]) == 0
    assert '"classical_distance": 6' in capsys.readouterr().out
    # The lightest codeword sums all three basis words: weight 1 in
    # F_2^7 and three unit bits.
    cm = CoverMap(build_parity_check(7, (0b1110000, 0b0001110, 0b1111111)))
    assert cm.classical_distance == 4


def test_lift_at_safe_radius_for_odd_distance():
    cm = CoverMap(build_parity_check(4, (0b1111,)))
    assert (cm.classical_distance, cm.safe_radius) == (5, 1)
    c = BitVector.from_support(1 << 4, [1, 2])
    lifted = lift_ball_word(cm, c, 0, 1)
    assert sorted(cm.project(v) for v in lifted.support()) == [1, 2]
    with pytest.raises(RadiusTooLargeError, match=r"floor\(\(d-2\)/2\) = 1"):
        lift_ball_word(cm, c, 0, 2)


def test_lift_round_trip(repetition_cover):
    cm = repetition_cover
    c = BitVector.from_support(1 << 5, [1, 3, 6])
    lifted = lift_ball_word(cm, c, 0, 2)
    assert lifted.weight == c.weight
    assert sorted(cm.project(v) for v in lifted.support()) == c.support()


def test_lift_guards(repetition_cover):
    cm = repetition_cover
    with pytest.raises(RadiusTooLargeError):
        lift_ball_word(cm, BitVector.from_support(1 << 5, [1]), 0, 3)
    # weight 3 is distance 3 from 0 (also through the all-ones step)
    far = BitVector.from_support(1 << 5, [0b00111])
    with pytest.raises(SupportEscapesBallError):
        lift_ball_word(cm, far, 0, 2)
    # a word over the 6-hypercube is not a word of the target F_2^5
    with pytest.raises(ValueError, match="does not live in the cover target"):
        lift_ball_word(cm, BitVector.from_support(1 << 6, [1]), 0, 2)


def test_non_liftable_word_example():
    """A word orthogonal to every sphere downstairs whose lift meets a
    sphere upstairs an odd number of times."""
    ok, detail = verify.non_lift_example()
    assert ok, detail


def test_sphere_orthogonality_profile():
    m = 5
    cm = CoverMap(build_parity_check(m, (0b11111,)))
    S = cm.target
    shell2 = BitVector.from_support(
        1 << m, [v for v in range(32) if v.bit_count() == 2]
    )
    assert sphere_orthogonality_profile(m, S, shell2) == []
    single = BitVector.from_support(1 << m, [0])
    profile = sphere_orthogonality_profile(m, S, single)
    # exactly the neighbors of 0 see it an odd number of times
    assert sorted(profile) == sorted(sphere(m, S, 0).support())


def test_decompose_single_sphere():
    m = 4
    S = GeneratorSet.canonical(m)
    c = sphere(m, S, 0)
    centers = decompose_as_sphere_sum(m, c, 0, 2)
    assert centers == {0}


def test_decompose_sum_of_spheres():
    m = 4
    S = GeneratorSet.canonical(m)
    c = sphere(m, S, 1) ^ sphere(m, S, 2)
    centers = decompose_as_sphere_sum(m, c, 0, 2)
    assert centers is not None
    acc = BitVector.zeros(1 << m)
    for t in centers:
        acc = acc ^ sphere(m, S, t)
    assert acc == c


def test_decompose_rejects_non_codeword():
    m = 4
    c = BitVector.from_support(1 << m, [0])
    assert decompose_as_sphere_sum(m, c, 0, 2) is None


def test_decompose_guards():
    with pytest.raises(ValueError):
        decompose_as_sphere_sum(3, BitVector.zeros(1 << 3), 0, 1)  # odd m
    far = BitVector.from_support(1 << 4, [0b1111])
    with pytest.raises(SupportEscapesBallError):
        decompose_as_sphere_sum(4, far, 0, 2)
    with pytest.raises(ValueError, match="does not live in F_2"):
        decompose_as_sphere_sum(4, BitVector.from_support(8, [1]), 0, 2)


def test_decompositions_share_one_sphere_system_per_ball():
    m = 4
    S = GeneratorSet.canonical(m)
    c = sphere(m, S, 1) ^ sphere(m, S, 2)
    first = decompose_as_sphere_sum(m, c, 0, 2)
    first.add(99)  # the caller owns its result
    assert decompose_as_sphere_sum(m, c, 0, 2) == {1, 2}
    system = cover._sphere_system(m, 0, 2)
    assert system is cover._sphere_system(m, 0, 2)
    outer, candidates, spheres = system
    assert isinstance(outer, frozenset) and outer == set(
        ball(m, S, 0, 2).support()
    )
    assert candidates == tuple(ball(m, S, 0, 1).support())
    assert isinstance(spheres, BitMatrix)
    assert [spheres.transpose().row(i) for i in range(len(candidates))] == [
        sphere(m, S, t) for t in candidates
    ]
    # Another center is another system.
    assert decompose_as_sphere_sum(m, sphere(m, S, 5), 5, 2) == {5}
