"""Matrix builders that set bits from coordinates, each against the dense
code it replaced: a rows x cols uint8 array filled entry by entry and
packed with ``from_dense``, or dense Gauss-Jordan for the kernel basis.
Results must be equal bit for bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from cayleycss import cayley, cli, gf2, repetition
from cayleycss.cayley import GeneratorSet, halved_matrix
from cayleycss.gf2 import BitMatrix, BitVector
from cayleycss.verify import torus_example_generators

from test_sparse_paths import matrices

# -- oracles: the dense builders ---------------------------------------------


def oracle_halved(m: int, S: GeneratorSet) -> BitMatrix:
    evens = [v for v in range(1 << m) if v.bit_count() % 2 == 0]
    odds = [v for v in range(1 << m) if v.bit_count() % 2 == 1]
    odd_index = {v: j for j, v in enumerate(odds)}
    half = 1 << (m - 1)
    dense = np.zeros((half, half), dtype=np.uint8)
    for i, v in enumerate(evens):
        for s in S.elements:
            dense[i, odd_index[v ^ s]] = 1
    return BitMatrix.from_dense(dense)


def oracle_torus(n: int) -> BitMatrix:
    # Vertex (x, y) of Z/q x Z/q sits at x + q y; steps are reduced
    # tuples, deduplicated, without the identity.
    q = 2 * n
    _, terms = torus_example_generators(n)
    steps = sorted({(a % q, b % q) for a, b in terms} - {(0, 0)})
    dense = np.zeros((q * q, q * q), dtype=np.uint8)
    for x, y in itertools.product(range(q), repeat=2):
        for a, b in steps:
            dense[x + q * y, (x + a) % q + q * ((y + b) % q)] ^= 1
    return BitMatrix.from_dense(dense)


def zeros(rows: int, cols: int) -> BitMatrix:
    return BitMatrix.from_dense(np.zeros((rows, cols), dtype=np.uint8))


def oracle_kernel_basis(M: BitMatrix) -> list[BitVector]:
    """Gauss-Jordan on the dense matrix; one vector per free column f,
    with ones at f and at the pivot of every row with a one at f."""
    dense = M.to_dense().copy()
    pivots = []
    for c in range(M.cols):
        r = len(pivots)
        hits = np.flatnonzero(dense[r:, c])
        if hits.size == 0:
            continue
        dense[[r, r + hits[0]]] = dense[[r + hits[0], r]]
        others = dense[:, c].astype(bool)
        others[r] = False
        dense[others] ^= dense[r]
        pivots.append(c)
    return [
        BitVector.from_support(
            M.cols, [f] + [c for r, c in enumerate(pivots) if dense[r, f]]
        )
        for f in sorted(set(range(M.cols)) - set(pivots))
    ]


# -- builders --------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_halved_matrix_matches_dense_builder(n):
    S = repetition.generators(n)
    assert halved_matrix(n, S) == oracle_halved(n, S)


def test_empty_generator_sets_give_zero_matrices():
    S = GeneratorSet(3, ())
    assert cayley.adjacency_matrix(3, S) == zeros(8, 8)
    assert halved_matrix(3, S) == zeros(4, 4)


def test_halved_matrix_refuses_non_bipartite_generators():
    with pytest.raises(ValueError, match="not bipartite"):
        halved_matrix(3, GeneratorSet(3, (1, 3)))


# At n = 1 the terms (n +- 1, 0) and (0, n +- 1) are the identity, which
# the builder drops; at n >= 2 no term is.
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_torus_adjacency_matches_dense_builder(n):
    assert cli.torus_adjacency(n) == oracle_torus(n)


@settings(max_examples=60, deadline=None, database=None)
@given(matrices())
def test_kernel_basis_matches_gauss_jordan(dense):
    M = BitMatrix.from_dense(dense)
    assert gf2.kernel_basis(M) == oracle_kernel_basis(M)


def test_conjugation_check_rejects_an_asymmetric_matrix(monkeypatch):
    M = repetition.matrix(5)
    dense = M.to_dense()
    dense[0, 1] ^= 1  # J M J differs from M at (N - 1, N - 2)
    monkeypatch.setattr(
        repetition, "matrix", lambda n: BitMatrix.from_dense(dense)
    )
    assert not repetition.conjugation_check(5)


# -- from_nonzero ------------------------------------------------------------


@pytest.mark.parametrize(
    "rr, cc",
    [([0, 2], [0, 0]), ([0, -1], [0, 0]), ([0], [3]), ([0], [-1])],
)
def test_from_nonzero_refuses_coordinates_outside(rr, cc):
    with pytest.raises(ValueError, match="outside"):
        BitMatrix.from_nonzero(2, 3, rr, cc)


def test_from_nonzero_broadcasts_and_sets_repeats_once():
    p = np.arange(8)[:, None]
    M = BitMatrix.from_nonzero(8, 8, p, p ^ np.array([1, 2, 4, 7, 1]))
    assert M == cayley.adjacency_matrix(3, GeneratorSet.named("S3'"))
    assert BitMatrix.from_nonzero(0, 5, [], []) == zeros(0, 5)
