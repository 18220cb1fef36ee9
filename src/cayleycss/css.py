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

import numpy as np

from . import gf2
from .cayley import (
    GeneratorSet,
    adjacency_matrix,
    ball_vertices,
    check_self_orthogonal_combinatorial,
    class_vertices,
    halved_matrix,
    is_bipartite,
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


@dataclass(frozen=True, eq=False)
class CssCode:
    """A CSS code of length N held as a direct sum of blocks.

    Block (B, pos) is the CSS code of the check matrix B, with
    B . B^T = 0, placed on the coordinates ``pos`` of the code (None:
    all N of them); the positions of the blocks partition the
    coordinates.  So rank and kernel are the sums of the blocks', and a
    word lies in the kernel or the row space exactly when each block's
    part does.  Elimination caches live on the block matrices.

    ``build_css`` gives a bipartite Cayley code, every generator of odd
    weight, the blocks (U, evens) and (U, odds), with U the halved block
    and evens, odds the weight-parity classes.  Up to a permutation of
    coordinates its adjacency matrix M is [[0, U], [U^T, 0]]: the rows
    of odd vertices read U^T on the even class, and that is U because
    U = U^T (see ``cayley.halved_matrix``).  M itself is never built.
    Every other code is the single block (H, None).
    """

    N: int
    blocks: tuple[tuple[BitMatrix, Optional[np.ndarray]], ...]
    m: Optional[int] = None
    generators: Optional[GeneratorSet] = None

    @property
    def rank(self) -> int:
        return sum(gf2.rank(B) for B, _ in self.blocks)

    @property
    def K(self) -> int:
        return self.N - 2 * self.rank

    def _lift(self, v: BitVector, pos: Optional[np.ndarray]) -> BitVector:
        """A word of a block, placed on the code's coordinates."""
        return v if pos is None else BitVector.from_support(
            self.N, pos[v.support()]
        )

    @property
    def rows(self) -> list[BitVector]:
        """The rows of every block, placed on the code's coordinates:
        the rows of the code's check matrix, in some order."""
        return [
            self._lift(B.row(i), pos)
            for B, pos in self.blocks for i in range(B.rows)
        ]

    @cached_property
    def kernel(self) -> tuple[BitVector, ...]:
        return tuple(
            self._lift(v, pos)
            for B, pos in self.blocks for v in gf2.kernel_basis(B)
        )

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
    if is_bipartite(S):
        U = halved_matrix(m, S)
        blocks = tuple((U, pos) for pos in class_vertices(m))
    else:
        blocks = ((adjacency_matrix(m, S), None),)
    return CssCode(1 << m, blocks, m=m, generators=S)


def css_from_matrix(H: BitMatrix) -> CssCode:
    """CSS code from an explicit self-orthogonal square matrix."""
    if not gf2.is_self_orthogonal(H):
        raise SelfOrthogonalityError("H . H^T != 0")
    return CssCode(H.cols, ((H, None),))


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
    weight, witness = gf2.min_weight_in_span_minus_subspace(
        list(code.kernel), code.rows, budget
    )
    return DistanceReport(method="exact", value=weight, witness=witness)


def distance_witness_upper(code: CssCode, w: BitVector) -> DistanceReport:
    """Validate an externally supplied logical word as an upper bound."""
    cls = classify_word(code, w)
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
    return DistanceReport(method="witness-upper", upper=w.weight, witness=w)


def distance_lower_bound_theorem(n: int, d: int) -> int:
    """The proven lower bound ceil(d n^2 / 640) for classical distance
    d >= 9 and classical length n."""
    if d < 9:
        raise InapplicableBoundError(
            f"theorem requires classical distance >= 9, got {d}"
        )
    return math.ceil(d * n * n / 640)


def classify_word(code: CssCode, w: BitVector) -> WordClass:
    """Three-way classification by the two membership tests, run on
    each block's part of the word (see CssCode)."""
    if w.length != code.N:
        raise ValueError(f"word length {w.length} != code length {code.N}")
    parts = [(B, w if pos is None else w.take(pos))
             for B, pos in code.blocks]
    if any(not B.mul_vector(p).is_zero() for B, p in parts):
        return WordClass.NOT_IN_DUAL
    if all(gf2.in_row_space(B, p) for B, p in parts):
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
    code: CssCode, w: BitVector, n_classical: int
) -> BallWeightReport:
    """Check |w intersect B(x, 4)| >= ceil(n^2/32) at every x in the
    support of w, using the code's own Cayley graph.

    Translations are graph automorphisms, B(x, 4) = x + B(0, 4), so one
    BFS from 0 serves every center: v lies in B(x, 4) iff x + v does
    in B(0, 4)."""
    if code.m is None or code.generators is None:
        raise ValueError("ball weights need a graph-backed CSS code")
    threshold = math.ceil(n_classical * n_classical / 32)
    near = ball_vertices(code.m, code.generators, 0, 4)
    support = w.support()
    margins = {
        x: sum(x ^ v in near for v in support) - threshold for x in support
    }
    return BallWeightReport(threshold, margins)
