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
    MAX_MATERIALIZED_DIMENSION,
    GeneratorSet,
    SizeGuardError,
    adjacency_matrix,
    halved_matrix,
)
from .css import CssCode, build_css
from .gf2 import BitMatrix, BitVector

#: Largest n at which the recursion suite checks the block assembly.
#: ``build_recursive`` is guarded at m <= 16, so this is no memory
#: guard: it fixes the suite's check names; raising it adds n >= 12.
MAX_RECURSIVE_DIMENSION = 11

#: Largest n for which a witness (a 2^n-bit word) is built.  On a 2-core
#: Xeon ``witness --n 23`` takes 0.3-0.4 s at 34 MB peak RSS and n = 25
#: (guard raised) 0.4 s at 42 MB; the 2^n-bit words of the certificate
#: grow 4x per step of two, so memory should set a higher guard.
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
    """The adjacency matrix for basis-plus-all-ones generators, built
    afresh on every call; the per-word helpers below take it as an
    argument, so a caller builds and eliminates each level once."""
    return adjacency_matrix(n, generators(n))


def halved(n: int) -> BitMatrix:
    """The halved block U of the level-n tower (every generator has odd
    weight), built afresh on every call as ``matrix`` is."""
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
    if n > MAX_MATERIALIZED_DIMENSION:
        raise SizeGuardError(
            f"recursive build capped at n <= {MAX_MATERIALIZED_DIMENSION}"
        )
    half = 1 << (n - 1)
    i = np.arange(half)
    J = i * half + (half - 1 - i)
    # The coordinates of M + J and of I + J, XORed as row-major keys.
    (a, b), (c, d) = (
        np.divmod(np.setxor1d(rr * half + cc, J, assume_unique=True), half)
        for rr, cc in (matrix(n - 1).nonzero(), (i, i))
    )
    return BitMatrix.from_nonzero(
        2 * half, 2 * half,
        np.concatenate([a, c, c + half, a + half]),
        np.concatenate([b, d + half, d, b + half]),
    )


def conjugation_check(n: int) -> bool:
    """J M J = M, and both the kernel and the row space are stable
    under J (checked on basis elements)."""
    if n % 2 == 0:
        raise ValueError("the identity is stated for odd n")
    M = matrix(n)
    rr, cc = M.nonzero()
    N = M.rows
    return (
        BitMatrix.from_nonzero(N, N, N - 1 - rr, N - 1 - cc) == M
        and all(M.mul_vector(reversal(v)).is_zero()
                for v in gf2.kernel_basis(M))
        and all(gf2.in_row_space(M, reversal(M.row(i))) for i in range(N))
    )


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


def kernel_characterize(M: BitMatrix, quad: QuadSplit) -> KernelCheck:
    """Evaluate the four block conditions equivalent to membership of
    the assembled word in the level-(n+2) kernel, M the level-n matrix:

      c4 = c1 + d1 and c3 = c2 + d2 with d1, d2 in the level-n kernel,
      M c1 = d2 + J d1 and M c2 = d1 + J d2.
    """
    c1, c2, c3, c4 = quad.parts
    if c1.length != M.cols:
        raise ValueError(
            f"block length {c1.length} does not match M's {M.cols} columns"
        )
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
    # Pair coefficients: the dependencies of ker and J ker on top of M's
    # row basis, whose masks are 0, so only theirs remain.
    pair_coeffs = []
    gf2.int_echelon(
        (v.to_int() for v in ker + [reversal(v) for v in ker]),
        pair_coeffs, dict(gf2.row_basis(M)),
    )
    if len(pair_coeffs) != 1 << n:
        raise AssertionError(
            f"quotient map nullity {len(pair_coeffs)} != 2^{n}"
        )
    basis: list[BitVector] = []
    zero = BitVector.zeros(1 << n)
    for coeff in pair_coeffs:
        d = [0, 0]  # d1, d2: the kernel words at coeff's low, high K bits
        for k in range(2 * K):
            if coeff >> k & 1:
                d[k >= K] ^= ker[k % K].value
        d1, d2 = (BitVector.from_int(1 << n, v) for v in d)
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
    rank = len(gf2.int_echelon((v.value for v in basis), masks=False))
    if rank != len(basis):
        raise AssertionError("constructed kernel words are dependent")
    return basis


def image_element(
    M: BitMatrix, a1: BitVector, a2: BitVector, a3: BitVector, a4: BitVector
) -> BitVector:
    """A row-space element of level n+2 from four free blocks, M the
    level-n matrix: the four-block parametrization of the image under
    the recursion."""
    if any(a.length != M.cols for a in (a1, a2, a3, a4)):
        raise ValueError("blocks must have length 2^n")
    cross14, cross23 = a1 ^ a4, a2 ^ a3
    u, v = reversal(cross14), reversal(cross23)
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


def representative_normal_form(
    big: BitMatrix, M: BitMatrix, c: BitVector
) -> NormalForm:
    """Normal form of a kernel word of the level-(n+2) matrix ``big``
    modulo its row space, M the level-n matrix.

    When the block differences d1, d2 are themselves row-space
    elements, two explicit image corrections bring the word to the
    shape (c1, 0, 0, c1); otherwise the word is returned unchanged
    (its d1, d2 are genuine logical words).
    """
    n = M.cols.bit_length() - 1
    if n % 2 == 0 or n < 3 or big.cols != 4 * M.cols:
        raise ValueError("normal forms are defined for odd n_total >= 5")
    if not big.mul_vector(c).is_zero():
        raise ValueError("input word is not in the kernel")
    quad = QuadSplit.split(c)
    check = kernel_characterize(M, quad)
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
    """A logical word of weight 2^((n-1)/2); see ``certified_witness``."""
    return certified_witness(n)[0]


def certified_witness(n: int) -> tuple[BitVector, np.ndarray, dict]:
    """A logical word of weight 2^((n-1)/2), its ascending support and
    the ``certify_logical`` certificate that proves it logical.

    The base is the fixed weight-2 word at vertex positions 2 and 4;
    each step places (0, 0, J w, w) so the block kernel conditions hold
    with d1 = w and d2 = J w.  On a support x of length L that step is
    x -> (3L - 1 - x) + (3L + x) at length 4L, one pass per level.
    """
    expected = parameters(n)[2]  # refuses even n and n < 3
    if n > MAX_WITNESS_DIMENSION:
        raise SizeGuardError(
            f"witness size guard: n = {n} exceeds {MAX_WITNESS_DIMENSION}"
        )
    x = np.array([2, 4], dtype=np.int64)
    for k in range(3, n, 2):
        x = np.concatenate([(3 << k) - 1 - x[::-1], (3 << k) + x])
    w = BitVector.from_support(1 << n, x)
    if w.weight != expected:
        raise AssertionError(f"witness weight {w.weight} != {expected}")
    return w, x, certify_logical(n, w, support=x)


def cyclic_shift(n: int, v: np.ndarray) -> np.ndarray:
    """x_i -> x_(i+1 mod n) on integer vertices: it permutes the basis
    and fixes the all-ones word, so it maps ker M to itself."""
    return ((v << 1) | (v >> (n - 1))) & ((1 << n) - 1)


def certify_logical(
    n: int, w: BitVector, support: np.ndarray | None = None
) -> dict:
    """Prove w logical in the level-n tower with no matrix, or raise
    AssertionError: w and its partner z, the image of w under
    ``cyclic_shift``, lie in ker M, and |w & z| is odd.  M is symmetric,
    so its row space is orthogonal to ker M and misses w.

    M v = 0 iff every vertex is hit an even number of times by x + s, x
    in supp v and s in S; ``from_support`` forms those parities in one
    pass, as a position listed twice cancels.  ``support``, if given, is
    w's support, so w need not be unpacked."""

    def in_kernel(x: np.ndarray) -> bool:
        hits = (x[:, None] ^ np.array(generators(n).elements)).ravel()
        return BitVector.from_support(1 << n, hits).is_zero()

    x = np.array(w.support() if support is None else support, np.int64)
    shifted = cyclic_shift(n, x)
    z = BitVector.from_support(w.length, shifted)
    cert = {
        "in_kernel": in_kernel(x),
        "partner": "cyclic-shift",
        "partner_in_kernel": in_kernel(shifted),
        "overlap": (w.weight + z.weight - (w ^ z).weight) // 2,
    }
    if not (cert["in_kernel"] and cert["partner_in_kernel"]
            and cert["overlap"] % 2):
        raise AssertionError(f"word not certified logical: {cert}")
    return cert


def build_code(n: int) -> CssCode:
    """The CSS code of the level-n tower matrix; ``build_css`` refuses
    an even n, whose n + 1 generators are odd in number."""
    return build_css(n, generators(n))
