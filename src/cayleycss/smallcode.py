"""Classical codes of length m + w with parity check [I_m | P(W)].

The columns of the parity-check matrix are the canonical basis of
F_2^m followed by the extra generators W, in the given order.  These
codes drive the hypercube covering maps, so the column order is fixed
and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .gf2 import DimensionBudgetError, gray_span
from .cayley import format_small_word

#: Codeword walks refuse dimensions above this.  A pure-Python walk takes
#: 0.01 s at dimension 15, the most a CLI path reaches (the cover sweep's
#: n <= 20 is checked first), and 3.7 s at this cap (2-core Xeon).
MAX_ENUMERATION_DIMENSION = 24


class InvalidGeneratorError(ValueError):
    """W contains a duplicate, zero, or canonical-basis element."""


@dataclass(frozen=True)
class ClassicalCode:
    """The code with parity-check matrix [I_m | P(W)]: length m + len(W)
    and dimension len(W)."""

    m: int
    W: tuple[int, ...]

    @property
    def length(self) -> int:
        return self.m + len(self.W)

    def codeword_basis(self) -> list[int]:
        """Basis of the codeword space as integers, one per W element."""
        return [w | (1 << (self.m + j)) for j, w in enumerate(self.W)]


def build_parity_check(m: int, W: tuple[int, ...] | list[int]) -> ClassicalCode:
    """Assemble the code record for generators W over F_2^m.

    W must be nonempty, nonzero, distinct and disjoint from the
    canonical basis.
    """
    W = tuple(W)
    if not W:
        raise InvalidGeneratorError("W must be nonempty")
    basis = {1 << i for i in range(m)}
    seen = set()
    for w in W:
        if not 0 < w < (1 << m):
            raise InvalidGeneratorError(
                f"generator {w} is zero or outside F_2^{m}"
            )
        if w in basis:
            raise InvalidGeneratorError(
                f"generator {format_small_word(w, m)} is a canonical basis "
                "element"
            )
        if w in seen:
            raise InvalidGeneratorError(
                f"duplicate generator {format_small_word(w, m)}"
            )
        seen.add(w)
    return ClassicalCode(m, W)


def _walk(code: ClassicalCode) -> Iterator[int]:
    """The codewords, zero first, in Gray-code order; guarded."""
    basis = code.codeword_basis()
    if len(basis) > MAX_ENUMERATION_DIMENSION:
        raise DimensionBudgetError(len(basis), MAX_ENUMERATION_DIMENSION)
    return gray_span(basis)


def enumerate_codewords(code: ClassicalCode) -> list[int]:
    """All 2^dim codewords as integers, in Gray-code order over the
    fixed basis (deterministic)."""
    return list(_walk(code))


@lru_cache(maxsize=64)
def min_distance(code: ClassicalCode) -> int | None:
    """Minimum weight over nonzero codewords, by the same walk.

    Returns None when the code has no nonzero codeword (dimension 0);
    never a sentinel integer.  Cached, so that the CLI's sweep guard and
    the suite that sweeps share one walk.
    """
    words = _walk(code)
    next(words)  # the zero word
    return min(map(int.bit_count, words), default=None)
