"""Matrix serialization round trips and golden outputs."""

import json
import tracemalloc

import numpy as np
import pytest

from cayleycss import formats
from cayleycss.cayley import GeneratorSet, adjacency_matrix
from cayleycss.gf2 import BitMatrix


@pytest.fixture
def tower_8x8():
    return adjacency_matrix(3, GeneratorSet.named("S3'"))


def test_alist_round_trip(tower_8x8):
    text = formats.write_alist(tower_8x8)
    assert formats.read_alist(text) == tower_8x8


def test_alist_header_and_degrees(tower_8x8):
    lines = formats.write_alist(tower_8x8).splitlines()
    assert lines[0] == "8 8"
    assert lines[1] == "4 4"
    assert lines[2].split() == ["4"] * 8
    assert lines[3].split() == ["4"] * 8
    assert len(lines) == 4 + 8 + 8


def test_alist_pads_ragged_degrees():
    M = BitMatrix.from_dense([[1, 1, 0], [0, 1, 0]])
    text = formats.write_alist(M)
    lines = text.splitlines()
    assert lines[1] == "2 2"
    # column 3 is empty: padded with zeros to the max degree
    assert lines[4 + 2] == "0 0"
    assert formats.read_alist(text) == M


def test_mtx_pattern_general(tower_8x8):
    text = formats.write_mtx(tower_8x8)
    lines = text.splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate pattern general"
    assert lines[1] == "8 8 32"
    assert formats.read_mtx(text) == tower_8x8


def test_mtx_hypercube_m2_has_8_entries():
    M = adjacency_matrix(2, GeneratorSet.canonical(2))
    assert formats.write_mtx(M).splitlines()[1] == "4 4 8"


def test_bin_header_and_round_trip(tower_8x8):
    blob = formats.write_bin(tower_8x8)
    assert blob[:4] == b"CAYM"
    assert len(blob) == 16 + 8  # header + 8 rows of 1 byte
    assert formats.read_bin(blob) == tower_8x8


def test_bin_rows_byte_aligned():
    M = BitMatrix.from_dense(np.eye(9, dtype=np.uint8))
    blob = formats.write_bin(M)
    assert len(blob) == 16 + 9 * 2
    assert formats.read_bin(blob) == M


@pytest.mark.parametrize("cols", [8192, 8190])
def test_read_bin_pads_the_words_once(cols):
    # 1024 rows of 1 KiB: the padded array is the matrix's own words, so
    # reading allocates them once (not a second copy in BitMatrix).
    rng = np.random.default_rng(cols)
    M = BitMatrix.from_dense(rng.integers(0, 2, (1024, cols), dtype=np.uint8))
    blob = formats.write_bin(M)
    tracemalloc.start()
    try:
        back = formats.read_bin(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == M and not back.words.flags.writeable
    assert peak < 1.5 * M.words.nbytes, f"peak {peak} bytes"


def test_bin_rejects_bad_magic(tower_8x8):
    blob = bytearray(formats.write_bin(tower_8x8))
    blob[0] = 0
    with pytest.raises(ValueError):
        formats.read_bin(bytes(blob))


def test_json_round_trip(tower_8x8):
    assert formats.read_json(formats.write_json(tower_8x8)) == tower_8x8


def test_file_io_round_trip(tower_8x8, tmp_path):
    for fmt in formats.FORMAT_NAMES:
        path = str(tmp_path / f"m.{fmt}")
        formats.write_matrix(tower_8x8, fmt, path)
        assert formats.read_matrix(fmt, path) == tower_8x8


@pytest.mark.parametrize("cols", [0, 63, 64, 65, 128])
def test_bin_file_equals_write_bin(cols, tmp_path):
    rng = np.random.default_rng(cols)
    M = BitMatrix.from_dense(rng.integers(0, 2, (5, cols), dtype=np.uint8))
    path = tmp_path / "m.bin"
    formats.write_matrix(M, "bin", str(path))
    assert path.read_bytes() == formats.write_bin(M)


def test_unknown_format(tower_8x8, tmp_path):
    with pytest.raises(ValueError):
        formats.write_matrix(tower_8x8, "csv", str(tmp_path / "m.csv"))


# -- malformed input: ValueError, never a wrapped index or an IndexError -----

MTX_HEAD = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n"


def alist_2x2(col1: str, row1: str = "1") -> str:
    """The 2 x 2 identity in alist, with column 1 and row 1 replaced."""
    return f"2 2\n1 1\n1 1\n1 1\n{col1}\n2\n{row1}\n2\n"


def json_2x2(support) -> str:
    return json.dumps({"rows": 2, "cols": 2, "row_support": support})


def test_malformed_input_cases_start_from_well_formed_files():
    eye = BitMatrix.identity(2)
    assert formats.read_alist(alist_2x2("1")) == eye
    mtx = MTX_HEAD.replace(" 1\n", " 2\n") + "1 1\n2 2\n"
    assert formats.read_mtx(mtx) == eye
    assert formats.read_json(json_2x2([[0], [1]])) == eye


@pytest.mark.parametrize(
    "text",
    [
        alist_2x2("0"),  # 0 is padding, so column 1 loses its entry
        alist_2x2("-1"),
        alist_2x2("3"),
        alist_2x2("1", row1="-1"),
        alist_2x2("1", row1="3"),
        alist_2x2("1")[:-4],  # the last row list is missing
    ],
    ids=["zero", "negative", "past-end", "row-negative", "row-past-end",
         "truncated"],
)
def test_alist_rejects_bad_indices(text):
    with pytest.raises(ValueError):
        formats.read_alist(text)


@pytest.mark.parametrize(
    "entry", ["0 1", "1 0", "-1 1", "1 -1", "3 1", "1 3", "1 1 1", "1"]
)
def test_mtx_rejects_bad_indices(entry):
    with pytest.raises(ValueError):
        formats.read_mtx(MTX_HEAD + entry + "\n")


@pytest.mark.parametrize(
    "support",
    [[[-1], []], [[2], []], [[0], [-3]], [[0]], [[0], [1], []], [[0.5], []]],
    ids=["negative", "past-end", "row-negative", "too-few-lists",
         "too-many-lists", "non-integer"],
)
def test_json_rejects_bad_indices_and_list_counts(support):
    with pytest.raises(ValueError):
        formats.read_json(json_2x2(support))


@pytest.mark.parametrize(
    "mangle",
    [
        lambda b: b[:10],  # truncated header
        lambda b: b[:-1],  # payload one byte short
        lambda b: b[:-1] + b"\x04",  # a set bit beyond column 2
    ],
    ids=["header", "payload", "pad-bit"],
)
def test_bin_rejects_truncation_and_pad_bits(mangle):
    blob = formats.write_bin(BitMatrix.identity(2))
    with pytest.raises(ValueError):
        formats.read_bin(mangle(blob))


def test_empty_text_is_a_value_error():
    for reader in (formats.read_alist, formats.read_mtx):
        with pytest.raises(ValueError):
            reader("")
