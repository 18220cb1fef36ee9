"""Classical codes with parity check [I_m | P(W)]."""

import pytest

from cayleycss.gf2 import BitVector
from cayleycss.smallcode import (
    InvalidGeneratorError,
    build_parity_check,
    enumerate_codewords,
    min_distance,
)


def test_parity_check_layout():
    code = build_parity_check(5, (0b11111,))
    assert code.length == 6
    dense = code.parity_check.to_dense()
    assert dense.shape == (5, 6)
    # identity block then the generator column, x_1 in row 0
    assert dense[:, :5].tolist() == [
        [1 if i == j else 0 for j in range(5)] for i in range(5)
    ]
    assert dense[:, 5].tolist() == [1, 1, 1, 1, 1]


def syndrome(code, x):
    """H . x^T of the word x of F_2^(m+w), as a small-word int."""
    v = BitVector.from_int(code.length, x)
    return code.parity_check.mul_vector(v).to_int()


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
