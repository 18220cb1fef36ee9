"""Hypercube covering maps of Cayley graphs over F_2^m.

The projection sends a hypercube vertex x in F_2^(m+w) to the XOR of
the parity-check columns selected by x, so e_i maps to e_i for i <= m
and e_(m+j) maps to W_j.  Fibers are cosets of the classical code.
The map is injective on balls of radius r with 2r < d, and a graph
isomorphism on them, induced edges included, when 2r + 1 < d, that is
up to floor((d-2)/2); we certify this computationally rather than
assume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .cayley import GeneratorSet, ball, sphere
from .gf2 import BitVector, int_echelon, int_reduce
from .smallcode import ClassicalCode, enumerate_codewords, min_distance


class SupportEscapesBallError(ValueError):
    """The word's support is not contained in the stated ball."""


class RadiusTooLargeError(ValueError):
    """The requested radius exceeds the certified isomorphism range."""


@dataclass(frozen=True)
class BallIsomorphismCertificate:
    """Witness that the projection is a graph isomorphism on a ball."""

    center: int
    radius: int
    ball_size: int
    edge_count: int


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
        self._domain = GeneratorSet.canonical(self.n)
        self._target = GeneratorSet(self.m, self.columns)

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

    def domain_generators(self) -> GeneratorSet:
        return self._domain

    def target_generators(self) -> GeneratorSet:
        return self._target

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
    dom = cm.domain_generators()
    domain_ball = ball(cm.n, dom, center, r).support()
    images: dict[int, int] = {}
    for v in domain_ball:
        img = cm.project(v)
        if img in images:
            return BallCollision(
                center, r, images[img], v, "vertex-collision"
            )
        images[img] = v
    target_ball = set(
        ball(cm.m, cm.target_generators(), cm.project(center), r).support()
    )
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
    return BallIsomorphismCertificate(center, r, len(domain_ball), edges)


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
    target_ball = set(
        ball(cm.m, cm.target_generators(), center, r).support()
    )
    outside = [v for v in c.support() if v not in target_ball]
    if outside:
        raise SupportEscapesBallError(
            f"support vertex {outside[0]} escapes the radius-{r} ball"
        )
    cert = certify_ball_isomorphism(cm, center, r)
    if isinstance(cert, BallCollision):
        raise RadiusTooLargeError(
            f"ball at {center} is not isomorphic at radius {r}"
        )
    dom = cm.domain_generators()
    inverse = {
        cm.project(v): v for v in ball(cm.n, dom, center, r).support()
    }
    return BitVector.from_support(
        1 << cm.n, [inverse[v] for v in c.support()]
    )


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
    outer, candidates, basis = _sphere_system(m, center, r)
    outside = [v for v in c.support() if v not in outer]
    if outside:
        raise SupportEscapesBallError(
            f"support vertex {outside[0]} escapes the radius-{r} ball"
        )
    residual, mask = int_reduce(basis, c.to_int())
    if residual:
        return None
    return {t for i, t in enumerate(candidates) if mask >> i & 1}


@lru_cache(maxsize=16)
def _sphere_system(
    m: int, center: int, r: int
) -> tuple[frozenset[int], tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The radius-r ball around center, the centers of the spheres
    inside it (the radius r-1 ball, sorted) and the echelon basis of
    those spheres; shared by every word decomposed in that ball."""
    S = GeneratorSet.canonical(m)
    outer = frozenset(ball(m, S, center, r).support())
    candidates = tuple(ball(m, S, center, max(r - 1, 0)).support())
    basis = int_echelon(sphere(m, S, t).to_int() for t in candidates)
    return outer, candidates, tuple(basis)
