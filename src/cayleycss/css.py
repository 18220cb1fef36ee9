"""CSS codes from self-orthogonal Cayley adjacency matrices.

A single self-orthogonal matrix H (H . H^T = 0) defines a CSS code of
length N = 2^m with K = N - 2 rank(H); the distance is the minimum
weight over ker H minus the row space.  A code is a direct sum of such
blocks, so its distance is the least of theirs.  Distance strategies:
exact enumeration per block within a budget on its kernel dimension,
upper bounds from logical words (``distance`` chooses between these two
and labels the result), and the proven arithmetic lower bound
ceil(d n^2 / 640), whose ball-weight premise is a fact about the graph.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
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

    A code is its length and its blocks, nothing more: checks on the
    Cayley graph itself, such as ``ball_weight_check``, take m and S.
    """

    N: int
    blocks: tuple[tuple[BitMatrix, Optional[np.ndarray]], ...]

    @property
    def rank(self) -> int:
        return sum(gf2.rank(B) for B, _ in self.blocks)

    @property
    def K(self) -> int:
        return self.N - 2 * self.rank

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
    return CssCode(1 << m, blocks)


def css_from_matrix(H: BitMatrix) -> CssCode:
    """CSS code from an explicit self-orthogonal square matrix."""
    if not gf2.is_self_orthogonal(H):
        raise SelfOrthogonalityError("H . H^T != 0")
    return CssCode(H.cols, ((H, None),))


@dataclass(frozen=True)
class DistanceReport:
    """A distance and its ``method``: ``exact`` from ``distance_exact``,
    trivial=True instead of a number in the self-dual case, or
    ``witness-upper`` from ``distance``, a certified logical word."""

    value: Optional[int] = None
    witness: Optional[BitVector] = None
    trivial: bool = False
    method: str = "exact"
    claimed: Optional[int] = None

    def as_dict(self) -> dict:
        if self.trivial:
            return {"method": self.method, "trivial": True}
        if self.method == "exact":
            return {"method": self.method, "value": self.value,
                    "witness_support": self.witness.support()}
        return {"method": self.method, "upper": self.value,
                "claimed": self.claimed,
                "label": "paper-claimed, witness-upper-bound-verified"}


def distance(code: CssCode, budget: int = gf2.DEFAULT_ENUMERATION_BUDGET,
             witness: Optional[BitVector] = None,
             claimed: Optional[int] = None) -> DistanceReport:
    """``distance_exact``, or past the budget the caller's ``witness``
    and ``claimed`` D as ``witness-upper``; without one, it raises."""
    try:
        return distance_exact(code, budget)
    except gf2.DimensionBudgetError:
        if witness is None:
            raise
    return DistanceReport(witness.weight, witness, method="witness-upper",
                          claimed=claimed)


def distance_exact(
    code: CssCode, budget: int = gf2.DEFAULT_ENUMERATION_BUDGET
) -> DistanceReport:
    """Exact distance, searched block by block: each block's kernel
    minus its row space goes to ``gf2.min_weight_in_span_minus_subspace``.

    A logical word of the direct sum has a logical part in some block,
    no heavier than the word, so each lightest one lies in one block.
    Blocks with 2 rank = cols have no logical word and are skipped.
    Weight ties go to the least lifted witness: each block's positions
    increase, so lifting keeps the order the engine breaks ties by.  A
    matrix that several blocks share, as the bipartite U is, is searched
    once and its witness lifted through each block's positions.

    Reports the trivial outcome when kernel equals row space (the
    self-dual hypercube case).  Before any search, raises
    DimensionBudgetError when a searched block's kernel dimension,
    cols - rank, exceeds the budget, so callers can fall back to bounds.
    """
    if code.is_trivial:
        return DistanceReport(trivial=True)
    searched = [(B, pos) for B, pos in code.blocks
                if 2 * gf2.rank(B) < B.cols]
    dim = max(B.cols - gf2.rank(B) for B, _ in searched)
    if dim > budget:
        raise gf2.DimensionBudgetError(dim, budget)
    found = []
    searches = {}  # id(B): the one search of a matrix blocks share
    for B, pos in searched:
        if id(B) not in searches:
            searches[id(B)] = gf2.min_weight_in_span_minus_subspace(
                gf2.column_basis(B)[1], gf2.row_basis(B), B.cols, budget
            )
        weight, witness = searches[id(B)]
        if pos is not None:
            witness = BitVector.from_support(code.N, pos[witness.support()])
        found.append((weight, witness.to_int()))
    weight, value = min(found)
    return DistanceReport(weight, BitVector.from_int(code.N, value))


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
    m: int, S: GeneratorSet, w: BitVector, n_classical: int
) -> BallWeightReport:
    """Check |w intersect B(x, 4)| >= ceil(n^2/32) at every x in the
    support of w, in the Cayley graph of F_2^m with generators S.

    Translations are graph automorphisms, B(x, 4) = x + B(0, 4), so one
    BFS from 0 serves every center: v lies in B(x, 4) iff x + v does
    in B(0, 4)."""
    if S.m != m or w.length != 1 << m:
        raise ValueError("the word and the generators must live on F_2^m")
    threshold = math.ceil(n_classical * n_classical / 32)
    near = ball_vertices(m, S, 0, 4)
    support = w.support()
    margins = {
        x: sum(x ^ v in near for v in support) - threshold for x in support
    }
    return BallWeightReport(threshold, margins)
