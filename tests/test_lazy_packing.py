"""Property tests and guards for lazily packed matrices.

A matrix built from row-major coordinates without repeats packs its
words on first read; rank, row-space membership and the ``bin`` writer
read it in row blocks of ``gf2.BLOCK_BYTES``, packed from the
coordinates of each block.  Everything they return must equal what an
eagerly packed twin (``BitMatrix.from_dense``) returns.  The block size
is shrunk to a few rows so that block edges fall inside the matrix and
on rows with no ones.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayleycss
from cayleycss import cli, formats, gf2, repetition
from cayleycss.gf2 import BitMatrix, BitVector


def lazy_twin(dense: np.ndarray) -> tuple[BitMatrix, BitMatrix]:
    """The matrix of ``dense`` from its coordinates, still unpacked, and
    from the dense array, packed at once."""
    rows, cols = dense.shape
    M = BitMatrix.from_nonzero(rows, cols, *np.nonzero(dense))
    assert M._words is None
    return M, BitMatrix.from_dense(dense)


def random_vector(rng, length: int) -> BitVector:
    return BitVector.from_support(
        length, np.flatnonzero(rng.integers(0, 2, length))
    )


@st.composite
def blocked_matrices(draw):
    """A 0/1 array with some rows cleared, and a block of a few rows."""
    rows = draw(st.sampled_from([0, 1, 2, 5, 9, 13]))
    cols = draw(st.sampled_from([0, 63, 64, 65, 128]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.3, 0.8]))
    dense = (rng.random((rows, cols)) < density).astype(np.uint8)
    dense[rng.random(rows) < 0.3] = 0  # rows with no ones
    return dense, draw(st.integers(1, 4)), rng


@settings(max_examples=80, deadline=None, database=None)
@given(blocked_matrices())
def test_row_blocks_match_an_eager_twin(case):
    dense, block_rows, rng = case
    rows, cols = dense.shape
    block_bytes = block_rows * 8 * gf2._n_words(cols)
    with mock.patch.object(gf2, "BLOCK_BYTES", block_bytes):
        check_against_twin(dense, rng)


def check_against_twin(dense: np.ndarray, rng) -> None:
    rows, cols = dense.shape
    M, twin = lazy_twin(dense)
    assert list(gf2._int_rows(M)) == list(gf2._int_rows(twin))
    assert gf2.rank(M) == gf2.rank(twin)
    for _ in range(3):
        v = random_vector(rng, cols)
        assert gf2.in_row_space(M, v) == gf2.in_row_space(twin, v)
        v = twin.transpose().mul_vector(random_vector(rng, rows))
        assert gf2.in_row_space(M, v)
    assert formats.write_bin(M) == formats.write_bin(twin)
    assert M._words is None  # nothing above packed the whole matrix
    assert np.array_equal(M.words, twin.words)
    assert not M.words.flags.writeable and M.words is M.words
    # Once packed, the blocks are slices of the kept words.
    assert list(gf2._int_rows(M)) == list(gf2._int_rows(twin))
    assert formats.write_bin(M) == formats.write_bin(twin)


@pytest.mark.parametrize("shape", [(0, 0), (0, 64), (5, 0), (3, 65)])
def test_empty_shapes_pack_to_the_twin(shape):
    M, twin = lazy_twin(np.zeros(shape, dtype=np.uint8))
    assert gf2.rank(M) == 0 and list(gf2._int_rows(M)) == [0] * shape[0]
    assert formats.write_bin(M) == formats.write_bin(twin)
    assert M.words.shape == twin.words.shape and M == twin


# -- regression guards -----------------------------------------------------


@pytest.mark.parametrize("fmt", ["alist", "mtx", "json", "bin"])
def test_tower_exports_and_rank_pack_no_words(monkeypatch, tmp_path, fmt,
                                              capsys):
    # The text formats read the kept coordinates and bin packs one row
    # block at a time, so the exported matrix never packs its words.
    built = []
    real = formats.write_matrix

    def spy(M, *args):
        built.append(M)
        return real(M, *args)
    monkeypatch.setattr(cli.formats, "write_matrix", spy)
    out = tmp_path / f"M.{fmt}"
    assert cli.main(["build", "--family", "repetition", "--n", "9",
                     "--format", fmt, "--out", str(out)]) == 0
    (M,) = built
    assert M._words is None
    assert formats.read_matrix(fmt, str(out)) == M
    U = repetition.halved(9)
    # The code is two copies of U's, so N - K = 2 * 2 rank(U).
    assert 4 * gf2.rank(U) == 512 - repetition.parameters(9)[1]
    assert U._words is None


def test_hypercube_m16_params_peak_rss():
    # The 32768 x 32768 halved block packs to 128 MB; rank reads it in
    # row blocks, so the run stays well below that.  A wrapper process
    # reports the peak of its one child, unmixed with earlier children.
    script = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-c', 'import sys; from cayleycss"
        " import cli; sys.exit(cli.main(sys.argv[1:]))', 'params',"
        " '--family', 'hypercube', '--m', '16'], check=True,"
        " stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = Path(cayleycss.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    peak_mb = int(done.stdout) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 160, f"peak {peak_mb:.0f} MB"
