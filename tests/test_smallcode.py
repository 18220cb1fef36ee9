"""Classical codes with parity check [I_m | P(W)]."""

import itertools
import random
from functools import reduce
from operator import xor

import numpy as np
import pytest

from cayleycss.gf2 import BitMatrix, BitVector, DimensionBudgetError
from cayleycss.smallcode import (
    MAX_ENUMERATION_DIMENSION,
    InvalidGeneratorError,
    build_parity_check,
    enumerate_codewords,
    min_distance,
)


def parity_check(code) -> BitMatrix:
    """The matrix [I_m | P(W)], filled entry by entry: x_1 in row 0,
    the identity block, then one column per generator of W."""
    dense = np.zeros((code.m, code.length), dtype=np.uint8)
    for i in range(code.m):
        dense[i, i] = 1
    for j, w in enumerate(code.W):
        for i in range(code.m):
            dense[i, code.m + j] = w >> i & 1
    return BitMatrix.from_dense(dense)


def syndrome(code, x):
    """H . x^T of the word x of F_2^(m+w), as a small-word int."""
    v = BitVector.from_int(code.length, x)
    return parity_check(code).mul_vector(v).to_int()


def test_parity_check_layout():
    code = build_parity_check(5, (0b11111,))
    assert (code.m, code.W, code.length) == (5, (0b11111,), 6)
    # The codeword is the generator column followed by its own unit.
    assert code.codeword_basis() == [0b111111]
    assert syndrome(code, 0b111111) == 0
    assert syndrome(code, 0b100000) == 0b11111


def test_codewords_satisfy_the_parity_check_for_every_small_W():
    checked = 0
    for m in range(1, 5):
        for size in (1, 2):
            for W in itertools.permutations(range(1, 1 << m), size):
                if any(w & (w - 1) == 0 for w in W):
                    continue  # canonical basis elements are refused
                code = build_parity_check(m, W)
                assert code.length == m + len(W)
                words = enumerate_codewords(code)
                assert len(set(words)) == 1 << len(W), (m, W)
                assert all(syndrome(code, w) == 0 for w in words), (m, W)
                checked += 1
    assert checked > 100


def test_syndrome_and_codewords():
    code = build_parity_check(3, (0b011, 0b110))
    assert syndrome(code, 0) == 0
    assert syndrome(code, 0b000001) == 1          # e_1 has syndrome e_1
    assert syndrome(code, 0b001000) == 0b011      # first W column
    words = enumerate_codewords(code)
    assert len(words) == 4 and words[0] == 0
    for w in words:
        assert syndrome(code, w) == 0
    assert len(set(words)) == 4


def test_codeword_basis_shape():
    code = build_parity_check(4, (0b1111, 0b0111))
    basis = code.codeword_basis()
    assert basis == [0b011111, 0b100111]


def test_min_distance():
    code = build_parity_check(5, (0b11111,))
    assert min_distance(code) == 6
    code2 = build_parity_check(3, (0b011,))
    assert min_distance(code2) == 3


def syndrome_oracle_distance(code) -> int:
    """The least weight over every nonzero word of F_2^(m+w) whose
    syndrome under parity_check is zero, all 2^(m+w) words at once."""
    n = code.length
    bits = np.arange(1, 1 << n)[:, None] >> np.arange(n) & 1
    H = parity_check(code).to_dense().astype(np.int64)
    zero = ~(bits @ H.T % 2).any(axis=1)
    return int(bits[zero].sum(axis=1).min())


def fewest_basis_words(code, d) -> int:
    """The fewest codeword basis words whose XOR has weight d."""
    basis = code.codeword_basis()
    return next(k for k in range(1, len(basis) + 1)
                if any(reduce(xor, c).bit_count() == d
                       for c in itertools.combinations(basis, k)))


@pytest.mark.parametrize("w", range(1, 11))
def test_min_distance_matches_the_syndrome_oracle(w):
    # Six random codes of length m + w <= 14, and for 3 <= w <= 8 one
    # whose lightest codewords all combine three or more basis words:
    # W holds W_0 + W_1, so (W_0, W_1, W_0 + W_1) sum to a weight-3
    # codeword.
    rng = random.Random(w)
    codes = []
    while len(codes) < 6:
        m = rng.randint(4, 14 - w)
        extra = [v for v in range(1 << m) if v.bit_count() >= 2]
        codes.append(build_parity_check(m, rng.sample(extra, w)))
    while 3 <= w <= 8 and len(codes) < 7:
        m = rng.randint(6, 14 - w)
        W = rng.sample([v for v in range(1 << m) if v.bit_count() >= 3],
                       w - 1)
        try:
            code = build_parity_check(m, W + [W[0] ^ W[1]])
        except InvalidGeneratorError:
            continue
        if fewest_basis_words(code, syndrome_oracle_distance(code)) >= 3:
            codes.append(code)
    for code in codes:
        assert code.length <= 14
        d = syndrome_oracle_distance(code)
        assert min_distance.__wrapped__(code) == d
        assert min_distance(code) == d


def test_walks_refuse_dimension_25_before_any_step():
    W = [v for v in range(1 << 5) if v.bit_count() >= 2][:25]
    code = build_parity_check(5, W)
    for walk in (enumerate_codewords, min_distance.__wrapped__):
        with pytest.raises(DimensionBudgetError) as exc:
            walk(code)
        assert (exc.value.dimension, exc.value.budget) == (
            25, MAX_ENUMERATION_DIMENSION)


def test_invalid_generators():
    with pytest.raises(InvalidGeneratorError):
        build_parity_check(3, ())
    with pytest.raises(InvalidGeneratorError):
        build_parity_check(3, (0,))
    with pytest.raises(InvalidGeneratorError):
        build_parity_check(3, (8,))
    with pytest.raises(InvalidGeneratorError):
        build_parity_check(3, (1,))           # canonical basis element
    with pytest.raises(InvalidGeneratorError):
        build_parity_check(3, (3, 3))
