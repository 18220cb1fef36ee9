"""CSS codes from self-orthogonal Cayley adjacency matrices.

A single self-orthogonal matrix H (H . H^T = 0) defines a CSS code of
length N = 2^m with K = N - 2 rank(H); the distance is the minimum
weight over ker H minus the row space.  Distance strategies: exact
enumeration within a budget, witness-verified upper bounds, and the
proven arithmetic lower bound ceil(d n^2 / 640).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import gf2
from .cayley import (
    BigWord,
    GeneratorSet,
    adjacency_matrix,
    ball,
    check_self_orthogonal_combinatorial,
    halved_matrix,
    is_bipartite,
    split_classes,
)
from .gf2 import BitMatrix, BitVector


class SelfOrthogonalityError(ValueError):
    """The generator set does not give a self-orthogonal matrix."""

    def __init__(self, reason: str):
        super().__init__(f"matrix is not self-orthogonal: {reason}")


class InapplicableBoundError(ValueError):
    """The theorem hypothesis (classical distance >= 9) is violated."""


class WordClass(enum.Enum):
    NOT_IN_DUAL = "not-in-dual"
    STABILIZER = "stabilizer"
    LOGICAL = "logical"


@dataclass(frozen=True)
class CssCode:
    """A CSS code with cached rank and kernel basis.

    The stabilizer matrix satisfies H . H^T = 0, so its row space sits
    inside its kernel and K = N - 2 rank.

    When every generator has odd weight the Cayley graph is bipartite,
    and up to a permutation of coordinates H is [[0, U], [U, 0]] with U
    the symmetric block ``halved``, a quarter of H's size.  Then
    rank H = 2 rank U, and a word lies in ker H or in the row space of
    H exactly when its even-class and odd-class parts both do for U;
    ``rank`` and ``classify_word`` eliminate U instead of H.  The
    kernel basis and the exact distance stay on H.
    """

    matrix: BitMatrix
    m: Optional[int] = None
    generators: Optional[GeneratorSet] = None

    @property
    def N(self) -> int:
        return self.matrix.cols

    @cached_property
    def halved(self) -> Optional[BitMatrix]:
        """The block U of a bipartite code, held with its echelon for
        the code's lifetime; None when some generator has even weight or
        the code has no generator set."""
        if self.generators is None or not is_bipartite(self.generators):
            return None
        return halved_matrix(self.m, self.generators)

    @property
    def rank(self) -> int:
        if self.halved is None:
            return gf2.rank(self.matrix)
        return 2 * gf2.rank(self.halved)

    @property
    def K(self) -> int:
        return self.N - 2 * self.rank

    @cached_property
    def kernel(self) -> tuple[BitVector, ...]:
        return tuple(gf2.kernel_basis(self.matrix))

    @property
    def is_trivial(self) -> bool:
        """Self-dual case: kernel equals row space, no logical words."""
        return self.K == 0


def build_css(m: int, S: GeneratorSet) -> CssCode:
    """CSS code of the Cayley graph of F_2^m with generators S.

    Requires the pair-count self-orthogonality condition.  With distinct
    generators s + t and t + s pair up, so only g = 0, which counts the
    |S| pairs (s, s), can have an odd count: the condition fails exactly
    for an odd number of generators.
    """
    if not check_self_orthogonal_combinatorial(m, S.elements):
        raise SelfOrthogonalityError("odd size")
    return CssCode(adjacency_matrix(m, S), m=m, generators=S)


def css_from_matrix(H: BitMatrix) -> CssCode:
    """CSS code from an explicit self-orthogonal square matrix."""
    if not gf2.is_self_orthogonal(H):
        raise SelfOrthogonalityError("H . H^T != 0")
    return CssCode(H)


@dataclass(frozen=True)
class DistanceReport:
    """Distance information with its provenance.

    method is "exact" or "witness-upper"; the self-dual case carries
    trivial=True instead of a number.
    """

    method: str
    value: Optional[int] = None
    upper: Optional[int] = None
    witness: Optional[BitVector] = None
    trivial: bool = False
    rejected_reason: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.rejected_reason is None and not self.trivial


def distance_exact(
    code: CssCode, budget: int = gf2.DEFAULT_ENUMERATION_BUDGET
) -> DistanceReport:
    """Exact distance by enumeration of the kernel: a table of partial
    combinations and a Gray code over the rest (see
    ``gf2.min_weight_in_span_minus_subspace``).

    Reports the trivial outcome when kernel equals row space (the
    self-dual hypercube case); raises DimensionBudgetError when the
    kernel dimension exceeds the budget, so callers can fall back to
    bounds.
    """
    if code.is_trivial:
        return DistanceReport(method="exact", trivial=True)
    dim = code.N - code.rank
    if dim > budget:
        raise gf2.DimensionBudgetError(dim, budget)
    rows = [code.matrix.row(i) for i in range(code.matrix.rows)]
    weight, witness = gf2.min_weight_in_span_minus_subspace(
        list(code.kernel), rows, budget
    )
    return DistanceReport(method="exact", value=weight, witness=witness)


def distance_witness_upper(code: CssCode, w: BigWord | BitVector) -> DistanceReport:
    """Validate an externally supplied logical word as an upper bound."""
    vec = w.bits if isinstance(w, BigWord) else w
    cls = classify_word(code, vec)
    if cls is WordClass.NOT_IN_DUAL:
        return DistanceReport(
            method="witness-upper",
            rejected_reason="witness is not in the kernel",
        )
    if cls is WordClass.STABILIZER:
        return DistanceReport(
            method="witness-upper",
            rejected_reason="witness lies in the row space",
        )
    return DistanceReport(
        method="witness-upper", upper=vec.weight, witness=vec
    )


def distance_lower_bound_theorem(n: int, d: int) -> int:
    """The proven lower bound ceil(d n^2 / 640) for classical distance
    d >= 9 and classical length n."""
    if d < 9:
        raise InapplicableBoundError(
            f"theorem requires classical distance >= 9, got {d}"
        )
    return math.ceil(d * n * n / 640)


def classify_word(code: CssCode, w: BigWord | BitVector) -> WordClass:
    """Three-way classification by the two membership tests, on both
    class parts against U for a bipartite code (see CssCode)."""
    vec = w.bits if isinstance(w, BigWord) else w
    if vec.length != code.N:
        raise ValueError(f"word length {vec.length} != code length {code.N}")
    if code.halved is None:
        H, parts = code.matrix, (vec,)
    else:
        H, parts = code.halved, split_classes(vec)
    if any(not H.mul_vector(p).is_zero() for p in parts):
        return WordClass.NOT_IN_DUAL
    if all(gf2.in_row_space(H, p) for p in parts):
        return WordClass.STABILIZER
    return WordClass.LOGICAL


@dataclass(frozen=True)
class BallWeightReport:
    """Per-center margins for the local-weight lower bound.

    The bound |w intersect B(x, 4)| >= ceil(n^2/32) is only asserted by
    the theory for minimum-weight logical words of codes whose
    classical distance is at least 9; otherwise the run is purely
    informational.
    """

    threshold: int
    margins: dict[int, int]

    @property
    def ok(self) -> bool:
        return all(m >= 0 for m in self.margins.values())


def ball_weight_check(
    code: CssCode, w: BigWord, n_classical: int
) -> BallWeightReport:
    """Check |w intersect B(x, 4)| >= ceil(n^2/32) at every x in the
    support of w, using the code's own Cayley graph.

    Translations are graph automorphisms, B(x, 4) = x + B(0, 4), so one
    BFS from 0 serves every center: v lies in B(x, 4) iff x + v does
    in B(0, 4)."""
    if code.m is None or code.generators is None:
        raise ValueError("ball weights need a graph-backed CSS code")
    threshold = math.ceil(n_classical * n_classical / 32)
    near = set(ball(code.m, code.generators, 0, 4).vertices())
    support = w.vertices()
    margins = {
        x: sum(x ^ v in near for v in support) - threshold for x in support
    }
    return BallWeightReport(threshold, margins)
