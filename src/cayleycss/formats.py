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

import numpy as np

from .gf2 import BitMatrix, BitVector

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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    cols, rows = map(int, lines[0].split())
    col_deg = list(map(int, lines[2].split()))
    row_deg = list(map(int, lines[3].split()))
    if len(col_deg) != cols or len(row_deg) != rows:
        raise ValueError("degree lists do not match the dimensions")
    dense = np.zeros((rows, cols), dtype=np.uint8)
    for j in range(cols):
        entries = [e for e in map(int, lines[4 + j].split()) if e]
        if len(entries) != col_deg[j]:
            raise ValueError(f"column {j + 1} degree mismatch")
        for i in entries:
            dense[i - 1, j] = 1
    for i in range(rows):
        entries = [e for e in map(int, lines[4 + cols + i].split()) if e]
        if sorted(entries) != sorted(np.nonzero(dense[i, :])[0] + 1):
            raise ValueError(f"row {i + 1} list disagrees with columns")
    return BitMatrix.from_dense(dense)


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
    ]
    rows, cols, nnz = map(int, lines[0].split())
    dense = np.zeros((rows, cols), dtype=np.uint8)
    if len(lines) - 1 != nnz:
        raise ValueError("entry count disagrees with the header")
    for ln in lines[1:]:
        i, j = map(int, ln.split())
        dense[i - 1, j - 1] = 1
    return BitMatrix.from_dense(dense)


def write_bin(M: BitMatrix) -> bytes:
    header = _BIN_HEADER.pack(BIN_MAGIC, BIN_VERSION, 0, M.rows, M.cols)
    stride = (M.cols + 7) // 8
    return header + M.words.view(np.uint8)[:, :stride].tobytes()


def read_bin(blob: bytes) -> BitMatrix:
    magic, version, _, rows, cols = _BIN_HEADER.unpack_from(blob)
    if magic != BIN_MAGIC:
        raise ValueError("bad magic in binary matrix header")
    if version != BIN_VERSION:
        raise ValueError(f"unsupported binary version {version}")
    stride = (cols + 7) // 8
    body = blob[_BIN_HEADER.size:]
    if len(body) != rows * stride:
        raise ValueError("binary payload length mismatch")
    out_rows = []
    for i in range(rows):
        chunk = body[i * stride:(i + 1) * stride]
        out_rows.append(
            BitVector.from_int(cols, int.from_bytes(chunk, "little"))
        )
    return BitMatrix.from_rows(out_rows)


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
    dense = np.zeros((payload["rows"], payload["cols"]), dtype=np.uint8)
    for i, sup in enumerate(payload["row_support"]):
        dense[i, sup] = 1
    return BitMatrix.from_dense(dense)


def write_matrix(M: BitMatrix, fmt: str, path: str) -> None:
    if fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(write_bin(M))
        return
    writers = {"alist": write_alist, "mtx": write_mtx, "json": write_json}
    if fmt not in writers:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(writers[fmt](M))


def read_matrix(fmt: str, path: str) -> BitMatrix:
    if fmt == "bin":
        with open(path, "rb") as fh:
            return read_bin(fh.read())
    readers = {"alist": read_alist, "mtx": read_mtx, "json": read_json}
    if fmt not in readers:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path) as fh:
        return readers[fmt](fh.read())
