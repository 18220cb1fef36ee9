"""Cayley graphs over F_2^m and products of cyclic groups.

Vertices of F_2^m are encoded as unsigned integers with coordinate x_i
at bit position i-1 (so e_i corresponds to 2^(i-1)).  A subset of the
vertex set is a plain BitVector of length 2^m whose position p stands
for the vertex with integer value p; "big word" names this convention,
and ``sphere`` and ``ball`` return such vectors.  Under this indexing the
coordinate added when passing from F_2^n to F_2^(n+1) is the most
significant bit, which makes the block recursion of the repetition
family hold literally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .gf2 import BitMatrix, BitVector

#: Largest group dimension for which we materialize 2^m x 2^m matrices
#: (m = 16 means a 512 MB bit matrix).
MAX_MATERIALIZED_DIMENSION = 16


class SizeGuardError(ValueError):
    """The requested object would exceed the memory guard."""


def parse_small_word(text: str) -> int:
    """Parse a bitstring "x1 x2 ... xm" read left to right."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"invalid bitstring {text!r}")
    return sum(1 << i for i, ch in enumerate(text) if ch == "1")


def format_small_word(value: int, m: int) -> str:
    return format(value, f"0{m}b")[::-1]


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered family of distinct nonzero elements of F_2^m."""

    m: int
    elements: tuple[int, ...]

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("group dimension must be positive")
        seen = set()
        for s in self.elements:
            if not 0 < s < (1 << self.m):
                raise ValueError(
                    f"generator {s} is zero or outside F_2^{self.m}"
                )
            if s in seen:
                raise ValueError(f"duplicate generator {s}")
            seen.add(s)

    @classmethod
    def from_strings(cls, m: int, texts: Iterable[str]) -> "GeneratorSet":
        """Parse bitstrings of exactly m characters, x1 first."""
        texts = tuple(texts)
        for t in texts:
            if len(t) != m:
                raise ValueError(
                    f"generator {t!r} has length {len(t)}, not m = {m}"
                )
        return cls(m, tuple(parse_small_word(t) for t in texts))

    @classmethod
    def canonical(cls, n: int) -> "GeneratorSet":
        """The canonical basis e_1, ..., e_n (hypercube generators)."""
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def canonical_with_all_ones(cls, n: int) -> "GeneratorSet":
        """The basis plus the all-ones word (repetition-code family)."""
        return cls(n, tuple(1 << i for i in range(n)) + ((1 << n) - 1,))

    @classmethod
    def named(cls, name: str) -> "GeneratorSet":
        """Resolve "Sn" / "Sn'" shorthand, e.g. "S3'" or "S4"."""
        base = name.rstrip("'")
        if not base.startswith("S") or not base[1:].isdigit():
            raise ValueError(f"unrecognized generator-set name {name!r}")
        n = int(base[1:])
        if name.endswith("'"):
            return cls.canonical_with_all_ones(n)
        return cls.canonical(n)

    def as_strings(self) -> list[str]:
        return [format_small_word(s, self.m) for s in self.elements]


def sphere(m: int, S: GeneratorSet, x: int) -> BitVector:
    """The radius-1 sphere around x: the set {x + s : s in S}."""
    if S.m != m:
        raise ValueError("generator set does not live in F_2^m")
    if not 0 <= x < (1 << m):
        raise ValueError(f"vertex {x} outside F_2^{m}")
    return BitVector.from_support(1 << m, [x ^ s for s in S.elements])


def ball(m: int, S: GeneratorSet, x: int, r: int) -> BitVector:
    """BFS closure of {x} to graph distance <= r."""
    return BitVector.from_support(1 << m, ball_vertices(m, S, x, r))


def ball_vertices(m: int, S: GeneratorSet, x: int, r: int) -> set[int]:
    """The vertices of ``ball`` as a set."""
    if S.m != m:
        raise ValueError("generator set does not live in F_2^m")
    if not 0 <= x < (1 << m):
        raise ValueError(f"vertex {x} outside F_2^{m}")
    seen = {x}
    frontier = [x]
    for _ in range(r):
        nxt = []
        for v in frontier:
            for s in S.elements:
                u = v ^ s
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
        if not frontier:
            break
    return seen


def adjacency_matrix(m: int, S: GeneratorSet) -> BitMatrix:
    """The 2^m x 2^m adjacency matrix; row p is sphere(p, 1).

    Every call builds a new matrix.  Its elimination caches live on it,
    so a caller that needs M more than once passes this one object on.
    """
    if S.m != m:
        raise ValueError("generator set does not live in F_2^m")
    _guard_dimension(m)
    return _build_adjacency(m, S)


def _guard_dimension(m: int) -> None:
    if m > MAX_MATERIALIZED_DIMENSION:
        raise SizeGuardError(
            f"2^{m} x 2^{m} matrix exceeds the m <= "
            f"{MAX_MATERIALIZED_DIMENSION} guard"
        )


def _build_adjacency(m: int, S: GeneratorSet) -> BitMatrix:
    p = np.arange(1 << m)[:, None]
    s = np.array(S.elements, dtype=np.int64)
    # Sorted rows keep the coordinates as the matrix's nonzero().
    return BitMatrix.from_nonzero(1 << m, 1 << m, p, np.sort(p ^ s, axis=1))


def check_self_orthogonal_combinatorial(m: int, sets) -> np.ndarray:
    """Pair-count test on a batch of equal-size sets ``(..., k)`` of
    elements of F_2^m: the adjacency matrix is self-orthogonal iff every
    g has an even number of ordered representations g = s + t with
    (s, t) in S x S.  One verdict per set; a single set is the batch of
    shape ().

    Set b counts into bins b * 2^m + g, so one parity ``bincount``
    serves the whole batch.  Holds B * 2^m counts, refused above
    m = MAX_MATERIALIZED_DIMENSION.
    """
    _guard_dimension(m)
    sets = np.asarray(sets, dtype=np.int64)
    flat = sets.reshape(math.prod(sets.shape[:-1]), sets.shape[-1])
    if flat.size and not (0 <= flat.min() and flat.max() < 1 << m):
        raise ValueError(f"an element lies outside F_2^{m}")
    pairs = (flat[:, :, None] ^ flat[:, None, :]).reshape(len(flat), -1)
    bins = pairs + (np.arange(len(flat)) << m)[:, None]
    odd = np.bincount(bins.ravel(), minlength=len(flat) << m) & 1
    nonzero = odd.reshape(len(flat), 1 << m).any(axis=1)
    return ~nonzero.reshape(sets.shape[:-1])[()]


# -- group algebra over products of cyclic groups ----------------------

MAX_GROUP_ORDER = 1 << 16


@dataclass(frozen=True)
class CyclicProductGroup:
    """Z/n1 x ... x Z/nk with elements indexed in mixed radix.

    The first modulus is least significant, so (2,)*m reproduces the
    small-word indexing of F_2^m.
    """

    moduli: tuple[int, ...]

    def __post_init__(self):
        if not self.moduli or any(n <= 0 for n in self.moduli):
            raise ValueError("moduli must be positive")

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @classmethod
    @lru_cache(maxsize=None)
    def binary(cls, m: int) -> "CyclicProductGroup":
        # One instance per m, so its radix array is computed once.
        return cls((2,) * m)

    @cached_property
    def _radix(self) -> np.ndarray:
        return np.cumprod((1,) + self.moduli[:-1], dtype=np.int64)

    def index(self, coords, axis: int = -1) -> np.ndarray:
        """Index of each coordinate row, reduced mod n_i; the coordinates
        run along ``axis``, the last by default.  Each coordinate is
        reduced with its own scalar modulus, so coordinate-major input
        (``axis=0``) is read in contiguous slices."""
        coords = np.moveaxis(np.asarray(coords, dtype=np.int64), axis, 0)
        if coords.shape[0] != len(self.moduli):
            raise ValueError(f"expected {len(self.moduli)} coordinates")
        out = np.zeros(coords.shape[1:], dtype=np.int64)
        for c, n, r in zip(coords, self.moduli, self._radix.tolist()):
            # For n a power of two, c & (n - 1) is c mod n, negatives too.
            out += (c & n - 1 if n & n - 1 == 0 else c % n) * r
        return out[()]

    def coords(self, idx) -> np.ndarray:
        """The reduced coordinate row of each index; inverts ``index``."""
        idx = np.asarray(idx, dtype=np.int64)[..., None]
        return idx // self._radix % self.moduli


def algebra_nilpotency_check(
    group: CyclicProductGroup, generators
) -> np.ndarray:
    """Self-orthogonality via the group algebra: pi_S . pi_S-hat = 0.

    ``generators`` holds coordinate rows, shape ``(..., k, r)`` for a
    batch of k-term sets (a flat list of terms is one set); the result
    has the batch shape.  pi_S is the sum of the terms reduced mod 2, so
    a repeated term cancels.  Reduction mod 2 is a ring map from Z[G]
    to F_2[G], and the product is bilinear, so (sum_s x^s)(sum_t x^-t)
    in Z[G] reduces to pi_S . pi_S-hat: the parities of the k^2 raw
    differences c_s - c_t, reduced mod n_i, are its coefficients, with
    no cancellation step.  Set b counts into bins b * |G| + g, so one
    ``index`` and one parity ``bincount`` serve the whole batch.
    Agrees with the adjacency matrix condition M . M^T = 0 whenever the
    matrix is materializable.
    """
    if group.order > MAX_GROUP_ORDER:
        raise SizeGuardError(
            f"group order {group.order} exceeds {MAX_GROUP_ORDER}"
        )
    rows = np.asarray(generators, dtype=np.int64)
    if rows.ndim < 2:
        rows = rows.reshape(-1, len(group.moduli))
    batch = rows.shape[:-2]
    rows = rows.reshape(math.prod(batch), *rows.shape[-2:])
    # Coordinate-major, batch innermost: one contiguous (k, B) slice per
    # coordinate, so every elementwise pass runs along the batch.
    major = np.ascontiguousarray(rows.transpose(2, 1, 0))
    diffs = group.index(major[:, :, None, :] - major[:, None, :, :], axis=0)
    bins = diffs + np.arange(len(rows)) * group.order
    odd = np.bincount(bins.ravel(), minlength=len(rows) * group.order) & 1
    nonzero = odd.reshape(len(rows), group.order).any(axis=1)
    return ~nonzero.reshape(batch)[()]


def algebra_nilpotency_check_f2(m: int, sets) -> np.ndarray:
    """The group-algebra test on F_2^m for a batch of sets ``(..., k)``
    of small words, passed as bit coordinates in (Z/2)^m."""
    bits = np.asarray(sets, dtype=np.int64)[..., None] >> np.arange(m) & 1
    return algebra_nilpotency_check(CyclicProductGroup.binary(m), bits)


# -- bipartite structure ----------------------------------------------


def is_bipartite(S: GeneratorSet) -> bool:
    """Whether every generator has odd weight, so that each edge joins
    an even-weight vertex to an odd-weight one."""
    return all(s.bit_count() % 2 for s in S.elements)


def class_vertices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The even-weight and the odd-weight vertices of F_2^m, each in
    increasing order.  2k and 2k + 1 differ in weight parity, so entry k
    of either lies in {2k, 2k + 1}: v >> 1 indexes v in its class."""
    v = np.arange(1 << m)
    odd = np.bitwise_count(v) % 2 == 1
    return v[~odd], v[odd]


def halved_matrix(m: int, S: GeneratorSet) -> BitMatrix:
    """The biadjacency block U of a bipartite Cayley graph.

    Rows are indexed by even-weight vertices, columns by odd-weight
    vertices, both in increasing integer order.  Row i is the even
    vertex e_i and column i the odd vertex e_i + 1, so U is symmetric:
    e_i + (e_j + 1) = e_j + (e_i + 1).  Built afresh on every call, as
    ``adjacency_matrix`` is.
    """
    if S.m != m:
        raise ValueError("generator set does not live in F_2^m")
    if not is_bipartite(S):
        raise ValueError("graph is not bipartite by weight parity")
    return _build_halved(m, S)


def _build_halved(m: int, S: GeneratorSet) -> BitMatrix:
    evens = class_vertices(m)[0][:, None]
    s = np.array(S.elements, dtype=np.int64)
    half = 1 << (m - 1)
    cols = np.sort((evens ^ s) >> 1, axis=1)
    return BitMatrix.from_nonzero(half, half, evens >> 1, cols)
