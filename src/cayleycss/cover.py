"""Hypercube covering maps of Cayley graphs over F_2^m.

The projection sends a hypercube vertex x in F_2^(m+w) to the XOR of
the parity-check columns selected by x, so e_i maps to e_i for i <= m
and e_(m+j) maps to W_j.  Fibers are cosets of the classical code.
The map is injective on balls of radius r with 2r < d, and a graph
isomorphism on them, induced edges included, when 2r + 1 < d, that is
up to floor((d-2)/2); we certify this computationally rather than
assume it.

``certify_all_centers`` makes that certificate at every one of the 2^n
centers in one sweep.  It reads the projection P from a 2^n table built
from the columns, takes each center's ball as {x : |x xor c| <= r}, and
checks that P is injective on it, that the image is the target ball
around P(c) (found by BFS in the target graph), and that every target
edge inside that ball lifts to a hypercube edge.  The check reads only
the relative images P(c ^ y) ^ P(c), |y| <= r, so a center whose list
equals the last passing center's is skipped: it has the same verdict.
On a true cover P is a homomorphism and every list is the one at 0.
The first failing center is handed to ``certify_ball_isomorphism``, the
per-center check, which names the counterexample.
``check_sweep_length`` and ``check_sweep_size`` refuse a sweep over
MAX_SWEEP_LENGTH or MAX_SWEEP_SIZE with a ``SizeGuardError``; the CLI
runs them before the sweep and reports a refusal as exit 4.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from operator import xor
from typing import Iterable, Optional

import numpy as np

# ``ball`` stays bound here: the benchmark tracer's self-test reads it.
from .cayley import GeneratorSet, SizeGuardError, ball, ball_vertices, sphere
from .gf2 import BitMatrix, BitVector, solve_preimage
from .smallcode import ClassicalCode, enumerate_codewords, min_distance


#: Largest hypercube dimension n = m + |W| a sweep accepts; its
#: projection table holds 2^n entries (8 MB at n = 20).
MAX_SWEEP_LENGTH = 20

#: Largest sweep size, 2^n times the hypercube ball volume summed over
#: the radii swept, that a sweep accepts.  A run spends 0.25 to 0.35 us
#: per ball vertex at r >= 1 and 0.9 to 1.4 us at r = 0, n <= 20 (2-core
#: Xeon), so an accepted sweep ends within about 6 s.
MAX_SWEEP_SIZE = 1 << 24


class SupportEscapesBallError(ValueError):
    """The word's support is not contained in the stated ball."""


class RadiusTooLargeError(ValueError):
    """The requested radius exceeds the certified isomorphism range."""


@dataclass(frozen=True)
class BallIsomorphismCertificate:
    """Witness that the projection is a graph isomorphism on a ball;
    ``lift`` maps each target ball vertex to its one preimage."""

    center: int
    radius: int
    ball_size: int
    edge_count: int
    lift: dict[int, int] = field(repr=False, compare=False)


@dataclass(frozen=True)
class BallCollision:
    """Why the projection is not an isomorphism on a ball: two distinct
    vertices with the same image ("vertex-collision"), or two vertices
    whose images are adjacent while they are not ("edge-mismatch")."""

    center: int
    radius: int
    first: int
    second: int
    kind: str


class CoverMap:
    """The covering map from the (m+w)-hypercube onto the Cayley graph
    of F_2^m with generators S_m + W."""

    def __init__(self, code: ClassicalCode):
        self.code = code
        self.m = code.m
        self.n = code.length
        self.columns = tuple(1 << i for i in range(code.m)) + code.W
        self.domain = GeneratorSet.canonical(self.n)
        self.target = GeneratorSet(self.m, self.columns)

    @cached_property
    def codewords(self) -> tuple[int, ...]:
        return tuple(enumerate_codewords(self.code))

    @cached_property
    def classical_distance(self) -> int:
        d = min_distance(self.code)
        if d is None:
            raise ValueError("cover of a dimension-0 code is trivial")
        return d

    @property
    def safe_radius(self) -> int:
        """floor((d-2)/2), the largest r with 2r + 1 < d: the proven
        ball-isomorphism radius, induced edges included."""
        return (self.classical_distance - 2) // 2

    def project(self, x: int) -> int:
        """Group homomorphism F_2^(m+w) -> F_2^m via the columns."""
        if not 0 <= x < (1 << self.n):
            raise ValueError(f"vertex {x} outside F_2^{self.n}")
        out = 0
        i = 0
        while x:
            if x & 1:
                out ^= self.columns[i]
            x >>= 1
            i += 1
        return out

    @cached_property
    def projection_table(self) -> array:
        """project(x) for every x, from P[x | 2^i] = P[x] ^ column i."""
        table = array("q", [0])
        for col in self.columns:
            table.extend(map(col.__xor__, table[:]))
        return table

    def fiber(self, c: int) -> set[int]:
        """Preimage of a target vertex: the coset c + C(W), size 2^w."""
        if not 0 <= c < (1 << self.m):
            raise ValueError(f"vertex {c} outside F_2^{self.m}")
        # The first m columns form the identity, so c itself projects to c.
        return {c ^ cw for cw in self.codewords}


def certify_ball_isomorphism(
    cm: CoverMap, center: int, r: int
) -> BallIsomorphismCertificate | BallCollision:
    """Check that the projection restricted to the hypercube ball at
    center is a graph isomorphism onto the target ball.

    Returns the lexicographically first collision pair on failure.
    """
    domain_ball = sorted(ball_vertices(cm.n, cm.domain, center, r))
    images: dict[int, int] = {}
    for v in domain_ball:
        img = cm.project(v)
        if img in images:
            return BallCollision(
                center, r, images[img], v, "vertex-collision"
            )
        images[img] = v
    target_ball = ball_vertices(cm.m, cm.target, cm.project(center), r)
    if set(images) != target_ball:
        # Surjectivity cannot fail for a covering map with injective
        # restriction, but check it rather than trust it.
        missing = min(target_ball - set(images))
        raise AssertionError(
            f"projection of the ball misses target vertex {missing}"
        )
    # Edge bijectivity: adjacency inside the target ball must be
    # mirrored by adjacency of the lifted endpoints.
    edges = 0
    for u in sorted(target_ball):
        for s in cm.columns:
            v = u ^ s
            if v > u and v in target_ball:
                lifted_diff = images[u] ^ images[v]
                if lifted_diff.bit_count() != 1:
                    return BallCollision(
                        center, r, images[u], images[v], "edge-mismatch"
                    )
                edges += 1
    return BallIsomorphismCertificate(
        center, r, len(domain_ball), edges, images
    )


def ball_volume(n: int, r: int) -> int:
    """|B_n(r)|: hypercube vertices within Hamming distance r of one."""
    return sum(comb(n, k) for k in range(min(r, n) + 1))


def check_sweep_length(cm: CoverMap) -> None:
    """Refuse a sweep over the n-cube when n > MAX_SWEEP_LENGTH.  It
    needs no distance, so it can run before one is computed."""
    if cm.n > MAX_SWEEP_LENGTH:
        raise SizeGuardError(
            f"cover sweep over the {cm.n}-cube exceeds the n <= "
            f"{MAX_SWEEP_LENGTH} guard"
        )


def check_sweep_size(cm: CoverMap, radii: Iterable[int]) -> None:
    """Refuse sweeps of certify_all_centers at each of radii when they
    visit 2^n * sum |B_n(r)| > MAX_SWEEP_SIZE ball vertices."""
    radii = list(radii)
    size = (1 << cm.n) * sum(ball_volume(cm.n, r) for r in radii)
    if size > MAX_SWEEP_SIZE:
        raise SizeGuardError(
            f"cover sweep of 2^{cm.n} centers at radius {max(radii)} "
            f"visits {size} ball vertices, over the {MAX_SWEEP_SIZE} guard"
        )


def certify_all_centers(
    cm: CoverMap, r: int
) -> tuple[int, Optional[BallCollision]]:
    """certify_ball_isomorphism at centers 0, 1, ..., 2^n - 1 until one
    fails: (centers checked, its collision), or (2^n, None).

    Every center's verdict comes from the projection table on its own
    ball, through its relative images alone, so a center with the same
    relative images as the last passing one is passed without the
    check.  Only the first failing center runs the per-center check,
    which names the same counterexample the center-by-center loop does.
    """
    # The target ball around t is t ^ target, by BFS in the target graph.
    target = list(ball_vertices(cm.m, cm.target, 0, r))
    if ball_volume(cm.n, r) != len(target):
        # No hypercube ball maps onto its target ball, the one at 0
        # included.
        return _first_failure(cm, 0, r)
    # The ball at c is c ^ offsets: every y with |y| <= r.
    offsets = [
        sum(1 << i for i in bits)
        for w in range(min(r, cm.n) + 1)
        for bits in combinations(range(cm.n), w)
    ]
    # place[v ^ t] is the slot of v in the target ball around t.
    place = {v: j for j, v in enumerate(target)}
    # Each edge {u, u ^ s} of the target ball once, as two slots.
    edges = [
        (j, i) for j, u in enumerate(target) for s in cm.columns
        if (i := place.get(u ^ s, -1)) > j
    ]
    edge_a = [a for a, _ in edges]
    edge_b = [b for _, b in edges]
    table = cm.projection_table
    project = table.__getitem__
    k = len(target)
    units = frozenset(1 << i for i in range(cm.n))
    passed = None
    for c in range(1 << cm.n):
        images = map(project, map(c.__xor__, offsets))
        relative = list(map(table[c].__xor__, images))
        # The check below reads nothing of c but this list.
        if relative == passed:
            continue
        slots = map(place.get, relative)
        # The offset y of each slot that c ^ y projects to; as many
        # offsets as slots, so all k slots are filled exactly when the
        # projection is injective and onto the target ball.
        inverse = dict(zip(slots, offsets))
        if len(inverse) != k or None in inverse:
            return _first_failure(cm, c, r)
        lifts = map(xor, map(inverse.__getitem__, edge_a),
                    map(inverse.__getitem__, edge_b))
        if not units.issuperset(lifts):
            return _first_failure(cm, c, r)
        passed = relative
    return 1 << cm.n, None


def _first_failure(
    cm: CoverMap, center: int, r: int
) -> tuple[int, BallCollision]:
    cert = certify_ball_isomorphism(cm, center, r)
    if not isinstance(cert, BallCollision):
        raise AssertionError(
            f"the sweep fails center {center} at radius {r}, "
            "the per-center check passes it"
        )
    return center + 1, cert


def lift_ball_word(
    cm: CoverMap, c: BitVector, center: int, r: int
) -> BitVector:
    """The unique preimage of a ball-supported word under the ball
    isomorphism; projecting it back gives c pointwise."""
    if c.length != 1 << cm.m:
        raise ValueError("word does not live in the cover target")
    if r > cm.safe_radius:
        raise RadiusTooLargeError(
            f"radius {r} exceeds floor((d-2)/2) = {cm.safe_radius}"
        )
    # center is a target vertex; it is its own canonical fiber point
    # because the identity columns come first.
    cert = certify_ball_isomorphism(cm, center, r)
    if isinstance(cert, BallCollision):
        raise RadiusTooLargeError(
            f"ball at {center} is not isomorphic at radius {r}"
        )
    support = c.support()
    outside = [v for v in support if v not in cert.lift]
    if outside:
        raise SupportEscapesBallError(
            f"support vertex {outside[0]} escapes the radius-{r} ball"
        )
    return BitVector.from_support(1 << cm.n, [cert.lift[v] for v in support])


def sphere_orthogonality_profile(
    m: int, S: GeneratorSet, c: BitVector
) -> list[int]:
    """All centers x whose radius-1 sphere meets c an odd number of
    times; empty iff c is orthogonal to every adjacency row."""
    return [x for x in range(1 << m) if c.dot(sphere(m, S, x))]


def decompose_as_sphere_sum(
    m: int, c: BitVector, center: int, r: int
) -> Optional[set[int]]:
    """Decompose a hypercube codeword supported in a ball as a XOR of
    radius-1 spheres contained in that ball.

    Candidate sphere centers are restricted to the radius r-1 ball so
    every sphere stays inside; returns None when the restricted system
    is inconsistent (in particular when c is not a codeword).
    """
    if m % 2:
        raise ValueError("the hypercube construction needs even dimension")
    if c.length != 1 << m:
        raise ValueError(f"word does not live in F_2^{m}")
    if not r < m:
        raise ValueError("radius must be smaller than the dimension")
    outer, candidates, spheres = _sphere_system(m, center, r)
    outside = [v for v in c.support() if v not in outer]
    if outside:
        raise SupportEscapesBallError(
            f"support vertex {outside[0]} escapes the radius-{r} ball"
        )
    x = solve_preimage(spheres, c)
    return None if x is None else {candidates[i] for i in x.support()}


@lru_cache(maxsize=16)
def _sphere_system(
    m: int, center: int, r: int
) -> tuple[frozenset[int], tuple[int, ...], BitMatrix]:
    """The radius-r ball around center, the centers of the spheres
    inside it (the radius r-1 ball, sorted) and the matrix whose columns
    are those spheres, which keeps their column basis; shared by every
    word decomposed in that ball."""
    S = GeneratorSet.canonical(m)
    outer = frozenset(ball_vertices(m, S, center, r))
    candidates = tuple(sorted(ball_vertices(m, S, center, max(r - 1, 0))))
    # Column j holds the sphere around candidate j: rows t_j ^ s, s in S.
    t = np.array(candidates)[:, None]
    spheres = BitMatrix.from_nonzero(
        1 << m, t.size, t ^ np.array(S.elements), np.arange(t.size)[:, None]
    )
    return outer, candidates, spheres
