"""Matrix serialization: alist, Matrix Market pattern, and a compact
binary layout with a self-describing header.

The alist writer emits the full format (dimensions, max degrees, the
two degree lists, then 1-based column and row adjacency lists); the
reader round-trips it.  The binary layout packs each row to a byte
boundary, little-endian bit order, after a 16-byte header.
"""

from __future__ import annotations

import json
import struct
from itertools import chain

import numpy as np

from .gf2 import BitMatrix

#: Binary header: magic, version, reserved, rows, cols (little endian).
BIN_MAGIC = b"CAYM"
BIN_VERSION = 1
_BIN_HEADER = struct.Struct("<4sHHII")
assert _BIN_HEADER.size == 16

FORMAT_NAMES = ("alist", "mtx", "bin", "json")


def _group(keys: np.ndarray, values: np.ndarray, n: int) -> list[list[int]]:
    """Split ``values`` by ``keys`` (sorted ascending) into n lists."""
    bounds = np.searchsorted(keys, np.arange(n + 1)).tolist()
    items = values.tolist()
    return [items[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def write_alist(M: BitMatrix) -> str:
    rr, cc = M.nonzero()
    by_col = np.argsort(cc, kind="stable")  # rows stay ascending per column
    col_lists = _group(cc[by_col], rr[by_col] + 1, M.cols)
    row_lists = _group(rr, cc + 1, M.rows)
    col_deg = [len(c) for c in col_lists]
    row_deg = [len(r) for r in row_lists]
    max_col = max(col_deg, default=0)
    max_row = max(row_deg, default=0)
    lines = [
        f"{M.cols} {M.rows}",
        f"{max_col} {max_row}",
        " ".join(map(str, col_deg)),
        " ".join(map(str, row_deg)),
    ]
    # Index lists are zero-padded to the maximum degree.
    lines += [
        " ".join(map(str, c + [0] * (max_col - len(c)))) for c in col_lists
    ]
    lines += [
        " ".join(map(str, r + [0] * (max_row - len(r)))) for r in row_lists
    ]
    return "\n".join(lines) + "\n"


def read_alist(text: str) -> BitMatrix:
    # Lines are positional: an empty degree or index list is a blank line.
    lines = text.splitlines() or [""]
    cols, rows = map(int, lines[0].split())
    if len(lines) < 4 + cols + rows:
        raise ValueError("alist file ends before its last list")
    col_deg = np.array(lines[2].split(), dtype=np.int64)
    if len(col_deg) != cols or len(lines[3].split()) != rows:
        raise ValueError("degree lists do not match the dimensions")
    # Line j < cols lists column j, line cols + i lists row i; zeros pad.
    parts = [ln.split() for ln in lines[4:4 + cols + rows]]
    line = np.repeat(np.arange(cols + rows), [len(p) for p in parts])
    index = np.array(list(chain.from_iterable(parts)), dtype=np.int64)
    line, index = line[index != 0], index[index != 0] - 1
    bad = np.flatnonzero(np.bincount(line, minlength=cols)[:cols] != col_deg)
    if bad.size:
        raise ValueError(f"column {bad[0] + 1} degree mismatch")
    col = line < cols
    M = BitMatrix.from_nonzero(rows, cols, index[col], line[col])
    if BitMatrix.from_nonzero(rows, cols, line[~col] - cols, index[~col]) != M:
        raise ValueError("row lists disagree with columns")
    return M


def write_mtx(M: BitMatrix) -> str:
    rr, cc = M.nonzero()
    lines = [
        "%%MatrixMarket matrix coordinate pattern general",
        f"{M.rows} {M.cols} {len(rr)}",
    ]
    lines += [f"{i + 1} {j + 1}" for i, j in zip(rr.tolist(), cc.tolist())]
    return "\n".join(lines) + "\n"


def read_mtx(text: str) -> BitMatrix:
    lines = [
        ln for ln in text.splitlines() if ln.strip() and not ln.startswith("%")
    ] or [""]
    rows, cols, nnz = map(int, lines[0].split())
    if len(lines) - 1 != nnz:
        raise ValueError("entry count disagrees with the header")
    ij = np.zeros((0, 2), dtype=np.int64)
    if nnz:
        ij = np.loadtxt(lines[1:], dtype=np.int64, ndmin=2, comments=None)
    if ij.shape[1] != 2:
        raise ValueError("Matrix Market entries are not index pairs")
    return BitMatrix.from_nonzero(rows, cols, ij[:, 0] - 1, ij[:, 1] - 1)


def write_bin(M: BitMatrix) -> bytes:
    header = _BIN_HEADER.pack(BIN_MAGIC, BIN_VERSION, 0, M.rows, M.cols)
    stride = (M.cols + 7) // 8
    return header + M.words.view(np.uint8)[:, :stride].tobytes()


def read_bin(blob: bytes) -> BitMatrix:
    if len(blob) < _BIN_HEADER.size:
        raise ValueError("binary matrix header is truncated")
    magic, version, _, rows, cols = _BIN_HEADER.unpack_from(blob)
    if magic != BIN_MAGIC:
        raise ValueError("bad magic in binary matrix header")
    if version != BIN_VERSION:
        raise ValueError(f"unsupported binary version {version}")
    stride = (cols + 7) // 8
    body = np.frombuffer(blob, dtype=np.uint8, offset=_BIN_HEADER.size)
    if body.size != rows * stride:
        raise ValueError("binary payload length mismatch")
    body = body.reshape(rows, stride)
    if cols % 8 and (body[:, -1] >> cols % 8).any():
        raise ValueError("set bits beyond the last column")
    # Each row's bytes, zero-padded to whole 64-bit words.
    words = np.pad(body, ((0, 0), (0, -stride % 8))).view(np.uint64)
    return BitMatrix(rows, cols, words)


def write_json(M: BitMatrix) -> str:
    """Row support lists (0-based), the most greppable of the formats."""
    rr, cc = M.nonzero()
    payload = {
        "rows": M.rows,
        "cols": M.cols,
        "row_support": _group(rr, cc, M.rows),
    }
    return json.dumps(payload, indent=2) + "\n"


def read_json(text: str) -> BitMatrix:
    payload = json.loads(text)
    rows, cols = payload["rows"], payload["cols"]
    support = payload["row_support"]
    if len(support) != rows:
        raise ValueError(f"{len(support)} row_support lists for {rows} rows")
    cc = np.array(list(chain.from_iterable(support)))
    if cc.size and cc.dtype.kind != "i":
        raise ValueError("row_support holds a non-integer index")
    rr = np.repeat(np.arange(rows), [len(s) for s in support])
    return BitMatrix.from_nonzero(rows, cols, rr, cc)


def _mode(fmt: str) -> str:
    """The file mode suffix of a format; an unknown one raises ValueError."""
    if fmt not in FORMAT_NAMES:
        raise ValueError(f"unknown format {fmt!r}")
    return "b" if fmt == "bin" else ""


def write_matrix(M: BitMatrix, fmt: str, path: str) -> None:
    with open(path, "w" + _mode(fmt)) as fh:
        fh.write(globals()["write_" + fmt](M))


def read_matrix(fmt: str, path: str) -> BitMatrix:
    with open(path, "r" + _mode(fmt)) as fh:
        return globals()["read_" + fmt](fh.read())
