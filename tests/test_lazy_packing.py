"""Property tests and guards for matrices packed in row blocks.

A matrix holds only its coordinates; rank, row-space membership and the
``bin`` writer pack it in row blocks of ``gf2.BLOCK_BYTES``, each from
its own coordinates (``gf2._pack``), and the ``bin`` reader peels packed
words back into coordinates (``gf2._peel``).  Everything they return
must equal what the rows of the dense array give, packed byte by byte
with ``np.packbits``.  The block size is shrunk to a few rows so that
block edges fall inside the matrix and on rows with no ones, and no
pack may take more rows than one block.
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


def dense_rows(dense: np.ndarray) -> list[int]:
    """Each row of a 0/1 array as an int, bit j its column j."""
    packed = np.packbits(dense, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def dense_bin(dense: np.ndarray) -> bytes:
    """The ``bin`` blob of a 0/1 array: header, then each row's bytes."""
    header = formats._BIN_HEADER.pack(
        formats.BIN_MAGIC, formats.BIN_VERSION, 0, *dense.shape
    )
    return header + np.packbits(dense, axis=1, bitorder="little").tobytes()


def random_vector(rng, length: int) -> BitVector:
    return BitVector.from_support(
        length, np.flatnonzero(rng.integers(0, 2, length))
    )


def packing_at_most(block_rows: int):
    """A stand-in for ``gf2._pack`` that fails on more than
    ``block_rows`` rows at once."""
    real = gf2._pack

    def pack(rows, *args):
        if rows > block_rows:
            raise AssertionError(f"{rows} rows packed at once")
        return real(rows, *args)
    return pack


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
def test_row_blocks_match_the_dense_rows(case):
    dense, block_rows, rng = case
    rows, cols = dense.shape
    block_bytes = block_rows * 8 * gf2._n_words(cols)
    with mock.patch.object(gf2, "BLOCK_BYTES", block_bytes):
        check_against_dense(dense, rng, block_rows)


def check_against_dense(dense: np.ndarray, rng, block_rows: int) -> None:
    rows, cols = dense.shape
    M = BitMatrix.from_nonzero(rows, cols, *np.nonzero(dense))
    want = dense_rows(dense)
    with mock.patch.object(gf2, "_pack", packing_at_most(block_rows)):
        assert list(gf2._int_rows(M)) == want
        assert gf2.rank(M) == len(gf2.int_echelon(want, masks=False))
        for _ in range(3):
            v = random_vector(rng, cols)
            member = not gf2.int_reduce(gf2.int_echelon(want), v.to_int())[0]
            assert gf2.in_row_space(M, v) == member
            v = M.transpose().mul_vector(random_vector(rng, rows))
            assert gf2.in_row_space(M, v)
        blob = formats.write_bin(M)
        assert blob == dense_bin(dense)
        assert formats.read_bin(blob) == M
    words = gf2._pack(rows, cols, *M.nonzero())
    assert [int.from_bytes(w.tobytes(), "little") for w in words] == want
    assert BitMatrix.from_nonzero(rows, cols, *gf2._peel(words)) == M


@pytest.mark.parametrize("shape", [(0, 0), (0, 64), (5, 0), (3, 65)])
def test_empty_shapes_pack_to_the_dense_rows(shape):
    dense = np.zeros(shape, dtype=np.uint8)
    M = BitMatrix.from_dense(dense)
    assert gf2.rank(M) == 0 and list(gf2._int_rows(M)) == [0] * shape[0]
    assert formats.write_bin(M) == dense_bin(dense)
    assert formats.read_bin(dense_bin(dense)) == M
    words = gf2._pack(*shape, *M.nonzero())
    assert words.shape == (shape[0], gf2._n_words(shape[1]))
    assert not words.any()
    assert all(a.size == 0 for a in gf2._peel(words))


# -- regression guards -----------------------------------------------------


@pytest.mark.parametrize("fmt", ["alist", "mtx", "json", "bin"])
def test_tower_exports_and_rank_pack_no_words(monkeypatch, tmp_path, fmt,
                                              capsys):
    # The text formats read the kept coordinates and bin packs one row
    # block at a time, so nothing packs the exported matrix whole: at
    # 4 KiB blocks the 512-column M packs 64 rows at a time, U 128.
    monkeypatch.setattr(gf2, "BLOCK_BYTES", 1 << 12)
    monkeypatch.setattr(gf2, "_pack", packing_at_most(128))
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
    assert formats.read_matrix(fmt, str(out)) == M
    U = repetition.halved(9)
    # The code is two copies of U's, so N - K = 2 * 2 rank(U).
    assert 4 * gf2.rank(U) == 512 - repetition.parameters(9)[1]


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
