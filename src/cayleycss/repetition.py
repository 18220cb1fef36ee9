"""The repetition-code tower: basis-plus-all-ones generators over F_2^n.

For odd n the Cayley graph of F_2^n with generators e_1, ..., e_n and
the all-ones word yields a CSS code with parameters
[[2^n, 2^((n+1)/2), 2^((n-1)/2)]].  This module builds the matrices
recursively, characterizes and constructs kernels recursively, reduces
kernel words to normal forms modulo the row space, and produces
minimum-weight logical witnesses, so the whole parameter claim is
machine-checked at desk scale.

Index p of a length-2^(n+2) word splits as p = q + 2^n b1 + 2^(n+1) b2
with (b2, b1) = (0,0), (0,1), (1,0), (1,1) selecting the four blocks in
order; the reversal matrix J acts as p -> 2^n - 1 - p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .cayley import (
    GeneratorSet,
    SizeGuardError,
    adjacency_matrix,
    halved_matrix,
)
from .css import CssCode, build_css
from .gf2 import BitMatrix, BitVector

#: Recursive block assembly guard (2^11 x 2^11 dense intermediates).
MAX_RECURSIVE_DIMENSION = 11

#: Largest n for which a witness (a 2^n-bit word) is built.  On a 2-core
#: Xeon ``witness --n 23`` takes 0.4-0.5 s at 50 MB peak RSS and n = 25
#: (guard raised) 1.0 s at 107 MB; the word's dense transients grow 4x
#: per step of two, so memory should set a higher guard.
MAX_WITNESS_DIMENSION = 23


def parameters(n: int) -> tuple[int, int, int]:
    """The paper's [[N, K, D]] = [[2^n, 2^((n+1)/2), 2^((n-1)/2)]] of
    the level-n tower."""
    if n % 2 == 0 or n < 3:
        raise ValueError(f"the tower is defined for odd n >= 3, got {n}")
    return 1 << n, 1 << ((n + 1) // 2), 1 << ((n - 1) // 2)


def generators(n: int) -> GeneratorSet:
    return GeneratorSet.canonical_with_all_ones(n)


def matrix(n: int) -> BitMatrix:
    """The adjacency matrix for basis-plus-all-ones generators, shared
    with every other caller asking for the same (n, S)."""
    return adjacency_matrix(n, generators(n))


def halved(n: int) -> BitMatrix:
    """The halved block U of the level-n tower (every generator has odd
    weight), shared as ``matrix`` is."""
    return halved_matrix(n, generators(n))


def reversal(v: BitVector) -> BitVector:
    """J . v: index reversal p -> len-1-p (translation by all-ones)."""
    return v.reversed()


def reversal_matrix(size: int) -> BitMatrix:
    i = np.arange(size)
    return BitMatrix.from_nonzero(size, size, i, size - 1 - i)


def build_recursive(n: int) -> BitMatrix:
    """Assemble the level-n matrix from level n-1 blocks:
    [[M + J, I + J], [I + J, M + J]].  Equals the direct construction
    bit-exactly."""
    if n < 4:
        raise ValueError("recursion starts at n = 4 from the n = 3 base")
    if n > MAX_RECURSIVE_DIMENSION:
        raise SizeGuardError(
            f"recursive build capped at n <= {MAX_RECURSIVE_DIMENSION}"
        )
    half = 1 << (n - 1)
    prev = matrix(n - 1).to_dense()
    J = np.fliplr(np.eye(half, dtype=np.uint8))
    I = np.eye(half, dtype=np.uint8)
    top = np.hstack([(prev + J) % 2, (I + J) % 2])
    bottom = np.hstack([(I + J) % 2, (prev + J) % 2])
    return BitMatrix.from_dense(np.vstack([top, bottom]))


def conjugation_check(n: int) -> bool:
    """J M J = M, and both the kernel and the row space are stable
    under J (checked on basis elements)."""
    if n % 2 == 0:
        raise ValueError("the identity is stated for odd n")
    M = matrix(n)
    rr, cc = M.nonzero()
    N = M.rows
    if BitMatrix.from_nonzero(N, N, N - 1 - rr, N - 1 - cc) != M:
        return False
    for v in gf2.kernel_basis(M):
        if not M.mul_vector(reversal(v)).is_zero():
            return False
    for i in range(M.rows):
        if not gf2.in_row_space(M, reversal(M.row(i))):
            return False
    return True


@dataclass(frozen=True)
class QuadSplit:
    """The four length-2^n blocks of a length-2^(n+2) word."""

    parts: tuple[BitVector, BitVector, BitVector, BitVector]

    @classmethod
    def split(cls, v: BitVector) -> "QuadSplit":
        quarter = v.length // 4
        if quarter * 4 != v.length:
            raise ValueError("length is not divisible by four")
        return cls(tuple(
            v.slice(i * quarter, (i + 1) * quarter) for i in range(4)
        ))

    def join(self) -> BitVector:
        return BitVector.concat(self.parts)


@dataclass(frozen=True)
class KernelCheck:
    """Per-condition outcome of the block kernel characterization."""

    conditions: tuple[bool, bool, bool, bool]
    d1: BitVector
    d2: BitVector

    @property
    def in_kernel(self) -> bool:
        return all(self.conditions)


def kernel_characterize(n: int, quad: QuadSplit) -> KernelCheck:
    """Evaluate the four block conditions equivalent to membership of
    the assembled word in the level-(n+2) kernel:

      c4 = c1 + d1 and c3 = c2 + d2 with d1, d2 in the level-n kernel,
      M c1 = d2 + J d1 and M c2 = d1 + J d2.
    """
    c1, c2, c3, c4 = quad.parts
    if c1.length != 1 << n:
        raise ValueError(
            f"block length {c1.length} does not match level n = {n}"
        )
    M = matrix(n)
    d1 = c4 ^ c1
    d2 = c3 ^ c2
    conds = (
        M.mul_vector(d1).is_zero(),
        M.mul_vector(d2).is_zero(),
        M.mul_vector(c1) == d2 ^ reversal(d1),
        M.mul_vector(c2) == d1 ^ reversal(d2),
    )
    return KernelCheck(conds, d1, d2)


def kernel_basis_recursive(n: int) -> list[BitVector]:
    """A basis of the level-(n+2) kernel built from level n.

    Pairs (d1, d2) of level-n kernel words with d1 + J d2 in the row
    space are completed to four-block kernel words through the fixed
    linear section of the matrix map; adding the two obvious embeddings
    of the level-n kernel gives 2 dim ker + 2^n independent words, and
    both the count and the independence are verified.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError("the tower is defined for odd n >= 3")
    M = matrix(n)
    ker = gf2.kernel_basis(M)
    K = len(ker)
    ech = gf2._echelon(M)
    # Left kernel of the residual map (d1, d2) -> d1 + J d2 mod im.
    residual_rows = []
    for v in ker:
        residual_rows.append(BitVector(v.length, ech.reduce(v.words)))
    for v in ker:
        residual_rows.append(
            BitVector(v.length, ech.reduce(reversal(v).words))
        )
    A = BitMatrix.from_rows(residual_rows)
    pair_coeffs = gf2.kernel_basis(A.transpose())
    if len(pair_coeffs) != 1 << n:
        raise AssertionError(
            f"quotient map nullity {len(pair_coeffs)} != 2^{n}"
        )
    basis: list[BitVector] = []
    zero = BitVector.zeros(1 << n)
    for coeff in pair_coeffs:
        d1 = zero
        d2 = zero
        for i in coeff.support():
            if i < K:
                d1 = d1 ^ ker[i]
            else:
                d2 = d2 ^ ker[i - K]
        c1 = gf2.solve_preimage(M, d2 ^ reversal(d1))
        c2 = gf2.solve_preimage(M, d1 ^ reversal(d2))
        if c1 is None or c2 is None:
            raise AssertionError("kernel pair is not liftable")
        basis.append(
            QuadSplit((c1, c2, c2 ^ d2, c1 ^ d1)).join()
        )
    for s in ker:
        basis.append(QuadSplit((s, zero, zero, s)).join())
        basis.append(QuadSplit((zero, s, s, zero)).join())
    big = matrix(n + 2)
    for v in basis:
        if not big.mul_vector(v).is_zero():
            raise AssertionError("constructed word escapes the kernel")
    if gf2.rank(BitMatrix.from_rows(basis)) != len(basis):
        raise AssertionError("constructed kernel words are dependent")
    return basis


def image_element(
    n: int, a1: BitVector, a2: BitVector, a3: BitVector, a4: BitVector
) -> BitVector:
    """A row-space element of level n+2 from four free blocks:
    the four-block parametrization of the image under the recursion."""
    M = matrix(n)
    if any(a.length != 1 << n for a in (a1, a2, a3, a4)):
        raise ValueError("blocks must have length 2^n")
    u = reversal(a1 ^ a4)
    v = reversal(a2 ^ a3)
    cross14 = a1 ^ a4
    cross23 = a2 ^ a3
    return QuadSplit((
        M.mul_vector(a1) ^ u ^ cross23,
        M.mul_vector(a2) ^ v ^ cross14,
        M.mul_vector(a3) ^ v ^ cross14,
        M.mul_vector(a4) ^ u ^ cross23,
    )).join()


@dataclass(frozen=True)
class NormalForm:
    """A kernel word reduced modulo the row space."""

    quad: QuadSplit
    reduced: bool  # True when brought to the (c1, 0, 0, c1) shape


def representative_normal_form(n_total: int, c: BitVector) -> NormalForm:
    """Normal form of a level-n_total kernel word modulo the row space.

    When the block differences d1, d2 are themselves row-space
    elements, two explicit image corrections bring the word to the
    shape (c1, 0, 0, c1); otherwise the word is returned unchanged
    (its d1, d2 are genuine logical words).
    """
    n = n_total - 2
    if n % 2 == 0 or n < 3:
        raise ValueError("normal forms are defined for odd n_total >= 5")
    big = matrix(n_total)
    if not big.mul_vector(c).is_zero():
        raise ValueError("input word is not in the kernel")
    quad = QuadSplit.split(c)
    check = kernel_characterize(n, quad)
    M = matrix(n)
    if not gf2.in_row_space(M, check.d1):
        return NormalForm(quad, reduced=False)
    b1 = gf2.solve_preimage(M, check.d1)
    b2 = gf2.solve_preimage(M, check.d2)
    if b1 is None or b2 is None:
        raise AssertionError("row-space membership without a preimage")
    u = b2 ^ reversal(b1)
    first = QuadSplit((
        u, reversal(u), reversal(u) ^ check.d2, u ^ check.d1
    )).join()
    work = QuadSplit.split(c ^ first)
    # Now the four blocks read (c1, c2, c2, c1); kill the second pair.
    second = QuadSplit((
        reversal(work.parts[1]), work.parts[1],
        work.parts[1], reversal(work.parts[1]),
    )).join()
    final = QuadSplit.split(c ^ first ^ second)
    if not (final.parts[1].is_zero() and final.parts[2].is_zero()):
        raise AssertionError("reduction did not clear the middle blocks")
    if not gf2.in_row_space(big, c ^ final.join()):
        raise AssertionError("normal form differs by a non-image word")
    return NormalForm(final, reduced=True)


def min_weight_witness(n: int) -> BitVector:
    """A logical word of weight 2^((n-1)/2), built recursively.

    The base is the fixed weight-2 word at vertex positions 2 and 4;
    each step places (0, 0, J w, w) so the block kernel conditions hold
    with d1 = w and d2 = J w.  The word returned is proved logical by
    ``certify_logical``, without a matrix.
    """
    expected = parameters(n)[2]  # refuses even n and n < 3
    if n > MAX_WITNESS_DIMENSION:
        raise SizeGuardError(
            f"witness size guard: n = {n} exceeds {MAX_WITNESS_DIMENSION}"
        )
    w = BitVector.from_support(8, (2, 4))
    for _ in range((n - 3) // 2):
        zero = BitVector.zeros(w.length)
        w = QuadSplit((zero, zero, reversal(w), w)).join()
    if w.weight != expected:
        raise AssertionError(f"witness weight {w.weight} != {expected}")
    certify_logical(n, w)
    return w


def cyclic_shift(n: int, v: np.ndarray) -> np.ndarray:
    """x_i -> x_(i+1 mod n) on integer vertices: it permutes the basis
    and fixes the all-ones word, so it maps ker M to itself."""
    return ((v << 1) | (v >> (n - 1))) & ((1 << n) - 1)


def certify_logical(
    n: int, w: BitVector, partner=("cyclic-shift", cyclic_shift)
) -> dict:
    """Prove w logical in the level-n tower with no matrix, or raise
    AssertionError: w and its partner z, the image of w under the named
    vertex map, lie in ker M, and |w & z| is odd.  M is symmetric, so
    its row space is orthogonal to ker M and misses w.

    M v = 0 iff every vertex is hit an even number of times by x + s, x
    in supp v and s in S; ``from_support`` forms those parities in one
    pass, as a position listed twice cancels."""
    name, vertex_map = partner

    def in_kernel(x: np.ndarray) -> bool:
        hits = (x[:, None] ^ np.array(generators(n).elements)).ravel()
        return BitVector.from_support(1 << n, hits).is_zero()

    x = np.array(w.support(), dtype=np.int64)
    z = BitVector.from_support(w.length, vertex_map(n, x))
    cert = {
        "in_kernel": in_kernel(x),
        "partner": name,
        "partner_in_kernel": in_kernel(vertex_map(n, x)),
        "overlap": (w.weight + z.weight - (w ^ z).weight) // 2,
    }
    if not (cert["in_kernel"] and cert["partner_in_kernel"]
            and cert["overlap"] % 2):
        raise AssertionError(f"word not certified logical: {cert}")
    return cert


def build_code(n: int) -> CssCode:
    """The CSS code of the level-n tower matrix (n odd)."""
    if n % 2 == 0:
        raise ValueError("the generator count n + 1 must be even")
    return build_css(n, generators(n))
