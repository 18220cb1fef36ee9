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
from typing import Iterator

import numpy as np

from .gf2 import BitMatrix, _peel, _row_blocks

#: Binary header: magic, version, reserved, rows, cols (little endian).
BIN_MAGIC = b"CAYM"
BIN_VERSION = 1
_BIN_HEADER = struct.Struct("<4sHHII")
assert _BIN_HEADER.size == 16

FORMAT_NAMES = ("alist", "mtx", "bin", "json")


def _render(table: np.ndarray, sep: str = " ", end: str = "\n") -> str:
    """Each row of a 2-D table of ints as one line of ``sep``-separated
    decimals ended by ``end``, in one gather from a token table; a
    negative entry pads the end of its row and renders as nothing."""
    rows, width = table.shape
    top = int(table.max(initial=0))
    scale = 10 ** np.arange(len(str(top)) - 1, -1, -1)
    if top < table.size:
        value = np.arange(top + 1)[:, None]
    else:  # few entries over a wide range: one token per entry
        value = table.reshape(-1, 1)
        slot = np.arange(table.size).reshape(rows, width)
        table = np.where(table < 0, -1, slot)
    # A token is sep and a value's digits, left-padded with zero bytes that
    # are dropped at the end; the last token, all zero, renders padding.
    tokens = np.zeros((len(value) + 1, len(scale) + 1), dtype=np.uint8)
    tokens[:-1, 0] = ord(sep)
    tokens[:-1, 1:] = np.where(
        np.maximum(value, 1) >= scale, value // scale % 10 + ord("0"), 0
    )
    line = width * tokens.shape[1]
    text = np.full((rows, line + 1), ord(end), dtype=np.uint8)
    text[:, :-1] = tokens[table].reshape(rows, line)
    if width:
        text[:, 0] = 0  # no separator before the first entry of a line
    text = text.ravel()
    return text[text != 0].tobytes().decode()


def _by_line(
    keys: np.ndarray, values: np.ndarray, n: int, pad: int
) -> tuple[np.ndarray, np.ndarray]:
    """The count of each key in 0..n-1 and a dense (n x max count) table
    whose row k holds, in order, the ``values`` keyed k (``keys`` sorted
    ascending), padded with ``pad``."""
    count = np.bincount(keys, minlength=n)
    slot = np.arange(len(keys)) - (np.cumsum(count) - count)[keys]
    table = np.full((n, count.max(initial=0)), pad, dtype=np.int64)
    table[keys, slot] = values
    return count, table


def write_alist(M: BitMatrix) -> str:
    rr, cc = M.nonzero()
    by_col = np.argsort(cc, kind="stable")  # rows stay ascending per column
    # Index lists are zero-padded to the maximum degree.
    col_deg, col_lists = _by_line(cc[by_col], rr[by_col] + 1, M.cols, 0)
    row_deg, row_lists = _by_line(rr, cc + 1, M.rows, 0)
    return "".join(map(_render, (
        np.array([[M.cols, M.rows], [col_lists.shape[1], row_lists.shape[1]]]),
        col_deg[None], row_deg[None], col_lists, row_lists,
    )))


def read_alist(text: str) -> BitMatrix:
    # Lines are positional: an empty degree or index list is a blank line.
    lines = text.splitlines() or [""]
    cols, rows = map(int, lines[0].split())
    if len(lines) < 4 + cols + rows:
        raise ValueError("alist file ends before its last list")
    col_deg, row_deg = (np.array(lines[k].split(), dtype=np.int64)
                        for k in (2, 3))
    if len(col_deg) != cols or len(row_deg) != rows:
        raise ValueError("degree lists do not match the dimensions")
    top = [int(d.max(initial=0)) for d in (col_deg, row_deg)]
    if list(map(int, lines[1].split())) != top:
        raise ValueError(f"max degree line is not {top[0]} {top[1]}")
    # Line j < cols lists column j, line cols + i lists row i; zeros pad.
    parts = [ln.split() for ln in lines[4:4 + cols + rows]]
    line = np.repeat(np.arange(cols + rows), [len(p) for p in parts])
    index = np.array(list(chain.from_iterable(parts)), dtype=np.int64)
    line, index = line[index != 0], index[index != 0] - 1
    deg = np.concatenate([col_deg, row_deg])
    bad = np.flatnonzero(np.bincount(line, minlength=cols + rows) != deg)
    if bad.size:
        raise ValueError(f"degree mismatch at the list on line {bad[0] + 5}")
    col = line < cols
    # The row lists come row-major, so M keeps them as its nonzero().
    M = BitMatrix.from_nonzero(rows, cols, line[~col] - cols, index[~col])
    if BitMatrix.from_nonzero(rows, cols, index[col], line[col]) != M:
        raise ValueError("row lists disagree with columns")
    return M


def write_mtx(M: BitMatrix) -> str:
    rr, cc = M.nonzero()
    return (
        "%%MatrixMarket matrix coordinate pattern general\n"
        f"{M.rows} {M.cols} {len(rr)}\n" + _render(np.stack([rr, cc], 1) + 1)
    )


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


def _bin_parts(M: BitMatrix) -> Iterator[bytes | np.ndarray]:
    """The ``bin`` header, then the rows packed one row block at a time,
    each row cut to its ``(cols + 7) // 8`` bytes."""
    yield _BIN_HEADER.pack(BIN_MAGIC, BIN_VERSION, 0, M.rows, M.cols)
    stride = (M.cols + 7) // 8
    for block in _row_blocks(M):
        yield np.ascontiguousarray(block.view(np.uint8)[:, :stride])


def write_bin(M: BitMatrix) -> bytes:
    return b"".join(_bin_parts(M))


def read_bin(blob: bytes) -> BitMatrix:
    """The matrix of a ``bin`` blob: its rows, padded to whole 64-bit
    words, are read into coordinates; a set bit past the last column,
    a bad header or a payload of the wrong length raises ValueError."""
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
    words = np.pad(body, ((0, 0), (0, -stride % 8))).view(np.uint64)
    return BitMatrix.from_nonzero(rows, cols, *_peel(words))


def write_json(M: BitMatrix) -> str:
    """Row support lists (0-based), the most greppable of the formats,
    laid out as ``json.dumps(payload, indent=2)`` lays them out."""
    rr, cc = M.nonzero()
    # Row "a,b;" becomes "[\n      a,\n      b\n    ]"; the empty row "[]".
    rows = (
        _render(_by_line(rr, cc, M.rows, -1)[1], sep=",", end=";")[:-1]
        .replace(",", ",\n      ")
        .replace(";", "\n    ],\n    [\n      ")
    )
    support = f"[\n    [\n      {rows}\n    ]\n  ]" if M.rows else "[]"
    return (
        f'{{\n  "rows": {M.rows},\n  "cols": {M.cols},\n  "row_support": '
        + support.replace("[\n      \n    ]", "[]") + "\n}\n"
    )


def read_json(text: str) -> BitMatrix:
    payload = json.loads(text)
    get = payload.get if isinstance(payload, dict) else {}.get
    rows, cols, support = map(get, ("rows", "cols", "row_support"))
    lists = type(support) is list and all(type(s) is list for s in support)
    if not lists or not all(type(v) is int and v >= 0 for v in (rows, cols)):
        raise ValueError("rows and cols must be counts, row_support lists")
    if len(support) != rows:
        raise ValueError(f"{len(support)} row_support lists for {rows} rows")
    cc = np.array(list(chain.from_iterable(support)))
    if cc.ndim != 1 or cc.size and cc.dtype.kind != "i":
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
        if fmt == "bin":
            fh.writelines(_bin_parts(M))
        else:
            fh.write(globals()["write_" + fmt](M))


def read_matrix(fmt: str, path: str) -> BitMatrix:
    with open(path, "r" + _mode(fmt)) as fh:
        return globals()["read_" + fmt](fh.read())
