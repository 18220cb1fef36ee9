"""Independent reference for every job the benchmark runs.

Nothing here imports ``cayleycss``: the expected values come from the
paper's closed forms, from pure-Python GF(2) elimination over integer
bit rows, and from brute-force enumeration.  Each ``check_*`` function
returns None for a correct output or a one-line reason for a wrong one.

Vertex v of F_2^m is the integer v; coordinate x_i is bit i-1, and a
generator bitstring "x1 x2 ... xm" is read left to right.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np


def format_word(value: int, m: int) -> str:
    return "".join("1" if value >> i & 1 else "0" for i in range(m))


# -- GF(2) over integer bit rows ------------------------------------------


def adjacency_rows(m: int, gens) -> list[int]:
    """Row p of the Cayley adjacency as an int with bits {p ^ s}."""
    rows = []
    for p in range(1 << m):
        r = 0
        for s in gens:
            r ^= 1 << (p ^ s)
        rows.append(r)
    return rows


def echelon(rows) -> dict[int, int]:
    """Reduced basis keyed by leading bit (fully reduced, so membership
    is a single pass)."""
    basis: dict[int, int] = {}
    for r in rows:
        r = reduce(basis, r)
        if r:
            lead = r.bit_length() - 1
            for k, b in list(basis.items()):
                if b >> lead & 1:
                    basis[k] = b ^ r
            basis[lead] = r
    return basis


def reduce(basis: dict[int, int], v: int) -> int:
    for lead in sorted(basis, reverse=True):
        if v >> lead & 1:
            v ^= basis[lead]
    return v


def kernel(rows: list[int], ncols: int) -> list[int]:
    """Basis of {x : row . x = 0 for every row}, as ints."""
    basis = echelon(rows)
    pivots = set(basis)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = 1 << f
        for lead, b in basis.items():
            if b >> f & 1:
                x |= 1 << lead
        out.append(x)
    return out


def pair_count_ok(gens) -> bool:
    """Every g has an even number of ordered representations s + t with
    s, t in S, and |S| is even: the self-orthogonality condition."""
    if len(gens) % 2:
        return False
    counts: dict[int, int] = {}
    for s in gens:
        for t in gens:
            counts[s ^ t] = counts.get(s ^ t, 0) + 1
    return all(c % 2 == 0 for c in counts.values())


def _span(basis: list[int]) -> np.ndarray:
    words = np.zeros(1, dtype=np.uint64)
    for b in basis:
        words = np.concatenate([words, words ^ np.uint64(b)])
    return words


def css_distance(m: int, gens) -> dict:
    """Rank, K and exhaustive D of the CSS code of Cayley(F_2^m, S).

    Every word of ker H minus row(H) is a sum c + r with c a nonzero
    combination of a complement basis and r in the row space; all of
    them are enumerated (NumPy only does the popcounts)."""
    n = 1 << m
    rows = adjacency_rows(m, gens)
    row_basis = echelon(rows)
    rank = len(row_basis)
    ker = kernel(rows, n)
    ker_basis = echelon(ker)
    if any(reduce(ker_basis, r) for r in row_basis.values()):
        raise ValueError("row space is not inside the kernel")
    quotient = dict(row_basis)
    comp = []
    for v in ker:
        residual = reduce(quotient, v)
        if residual:
            comp.append(residual)
            quotient = echelon(list(quotient.values()) + [residual])
    result = {"N": n, "rank": rank, "K": n - 2 * rank,
              "kernel_dim": len(ker), "D": None,
              "row_basis": row_basis, "kernel_basis": ker_basis}
    if not comp:
        return result
    cosets = _span(comp)[1:]
    row_span = _span(list(row_basis.values()))
    best = n + 1
    chunk = max(1, (1 << 22) // row_span.size)
    for i in range(0, cosets.size, chunk):
        words = cosets[i:i + chunk, None] ^ row_span[None, :]
        best = min(best, int(np.bitwise_count(words).min()))
    result["D"] = best
    return result


def classical_distance(m: int, W) -> int:
    """Minimum weight of the code with parity check [I_m | W]."""
    basis = [w | (1 << (m + j)) for j, w in enumerate(W)]
    best = m + len(W) + 1
    for mask in range(1, 1 << len(basis)):
        v = 0
        for j, b in enumerate(basis):
            if mask >> j & 1:
                v ^= b
        best = min(best, v.bit_count())
    return best


# -- report helpers --------------------------------------------------------


def _report(stdout: str):
    try:
        return json.loads(stdout), None
    except ValueError:
        return None, "stdout is not one JSON document"


def _exit(result, want: int):
    if result.exit_code != want:
        return f"exit code {result.exit_code}, expected {want}"
    return None


def tower_closed_form(n: int) -> dict:
    N = 1 << n
    K = 1 << ((n + 1) // 2)
    return {
        "N": N, "K": K, "rank": (N - K) // 2,
        "kernel_dim": (1 << (n - 1)) + (1 << ((n - 1) // 2)),
        "D": 1 << ((n - 1) // 2),
    }


def check_tower_params(result, n: int):
    """params --family repetition --n n against the closed forms.

    D is accepted as exact or as a witness upper bound, each equal to the
    claim, so an exact engine that reaches further still passes."""
    bad = _exit(result, 0)
    if bad:
        return bad
    rep, bad = _report(result.stdout)
    if bad:
        return bad
    want = tower_closed_form(n)
    out = rep["outputs"]
    for key in ("N", "K", "rank"):
        if out.get(key) != want[key]:
            return f"{key} = {out.get(key)}, expected {want[key]}"
    if out["N"] - out["rank"] != want["kernel_dim"]:
        return "kernel dimension disagrees with 2^(n-1) + 2^((n-1)/2)"
    D = out.get("D", {})
    if D.get("method") == "exact":
        got = D.get("value")
    elif D.get("method") == "witness-upper":
        got = D.get("upper") if D.get("claimed") == want["D"] else None
    else:
        got = None
    if got != want["D"]:
        return f"D = {D}, expected {want['D']}"
    return None


def check_hypercube_params(result, m: int):
    """Even hypercubes are self-dual: K = 0 and D is trivial."""
    bad = _exit(result, 0)
    if bad:
        return bad
    rep, bad = _report(result.stdout)
    if bad:
        return bad
    out = rep["outputs"]
    N = 1 << m
    if (out.get("N"), out.get("K"), out.get("rank")) != (N, 0, N // 2):
        return f"[[N, K]] = [[{out.get('N')}, {out.get('K')}]], rank " \
               f"{out.get('rank')}; expected [[{N}, 0]], rank {N // 2}"
    if out.get("D", {}).get("trivial") is not True:
        return "self-dual code without a trivial D"
    return None


def _in_kernel(m: int, gens, support) -> bool:
    """(M v)_p = |N(p) intersect supp v| mod 2 for the symmetric M."""
    hits: dict[int, int] = {}
    for v in support:
        for s in gens:
            hits[v ^ s] = hits.get(v ^ s, 0) ^ 1
    return not any(hits.values())


def check_witness(result, n: int):
    bad = _exit(result, 0)
    if bad:
        return bad
    rep, bad = _report(result.stdout)
    if bad:
        return bad
    out = rep["outputs"]
    weight = 1 << ((n - 1) // 2)
    support = out.get("support", [])
    if out.get("weight") != weight or len(set(support)) != weight:
        return f"witness weight {out.get('weight')}, expected {weight}"
    if not all(0 <= v < 1 << n for v in support):
        return "witness support leaves the vertex set"
    if not _in_kernel(n, tower_generators(n), support):
        return "witness is not in the kernel"
    if out.get("support_bitstrings") != [format_word(v, n) for v in support]:
        return "support bitstrings disagree with the support"
    if (out.get("in_kernel"), out.get("in_row_space"),
            out.get("classification")) != (True, False, "logical"):
        return "witness is not classified as a logical word"
    return None


def tower_generators(n: int) -> list[int]:
    return [1 << i for i in range(n)] + [(1 << n) - 1]


def _ints(supports) -> list[int]:
    out = []
    for r in supports:
        if len(set(r)) != len(r):
            raise ValueError("repeated entry in a row")
        out.append(sum(1 << j for j in r))
    return out


def parse_export(fmt: str, blob: bytes) -> list[int]:
    """Rows of an exported matrix as ints, bit j set for entry (i, j)."""
    if fmt == "bin":
        magic, version, _, rows, cols = struct.unpack_from("<4sHHII", blob)
        if magic != b"CAYM" or version != 1:
            raise ValueError("bad binary header")
        stride = (cols + 7) // 8
        body = blob[16:]
        if len(body) != rows * stride:
            raise ValueError("binary payload length")
        return [
            int.from_bytes(body[i * stride:(i + 1) * stride], "little")
            for i in range(rows)
        ]
    text = blob.decode()
    if fmt == "json":
        return _ints(json.loads(text)["row_support"])
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if fmt == "mtx":
        if lines[0] != "%%MatrixMarket matrix coordinate pattern general":
            raise ValueError("bad Matrix Market banner")
        rows, cols, nnz = map(int, lines[1].split())
        if len(lines) - 2 != nnz:
            raise ValueError("entry count")
        supports = [[] for _ in range(rows)]
        for ln in lines[2:]:
            i, j = map(int, ln.split())
            supports[i - 1].append(j - 1)
        return _ints(supports)
    if fmt == "alist":
        cols, rows = map(int, lines[0].split())
        col_deg = list(map(int, lines[2].split()))
        row_deg = list(map(int, lines[3].split()))
        col_lists = [
            [e - 1 for e in map(int, lines[4 + j].split()) if e]
            for j in range(cols)
        ]
        row_lists = [
            [e - 1 for e in map(int, lines[4 + cols + i].split()) if e]
            for i in range(rows)
        ]
        if [len(c) for c in col_lists] != col_deg or \
                [len(r) for r in row_lists] != row_deg:
            raise ValueError("alist degrees disagree with the lists")
        by_cols = [[] for _ in range(rows)]
        for j, entries in enumerate(col_lists):
            for i in entries:
                by_cols[i].append(j)
        out = _ints(row_lists)
        if out != _ints(by_cols):
            raise ValueError("alist row and column lists disagree")
        return out
    raise ValueError(f"unknown format {fmt!r}")


def check_export(result, n: int, fmt: str, blob: bytes, verdicts: dict):
    """build --format fmt: the report and the file, row p = {p ^ s}.

    ``verdicts`` caches the file verdict by content, since every round
    exports the same bytes."""
    bad = _exit(result, 0)
    if bad:
        return bad
    rep, bad = _report(result.stdout)
    if bad:
        return bad
    out = rep["outputs"]
    N = 1 << n
    if (out.get("rows"), out.get("cols"), out.get("format")) != (N, N, fmt):
        return "report disagrees with the requested export"
    key = (n, fmt, hashlib.sha256(blob).hexdigest())
    if key not in verdicts:
        verdicts[key] = _export_verdict(n, fmt, blob)
    return verdicts[key]


def _export_verdict(n: int, fmt: str, blob: bytes):
    try:
        got = parse_export(fmt, blob)
    except (ValueError, IndexError, KeyError, struct.error) as exc:
        return f"unreadable {fmt} export: {exc}"
    if got != adjacency_rows(n, tower_generators(n)):
        return f"{fmt} export differs from the adjacency rows"
    return None


def check_readback(result, n: int):
    """The library job prints N, K and rank of the read-back code."""
    bad = _exit(result, 0)
    if bad:
        return bad
    rep, bad = _report(result.stdout)
    if bad:
        return bad
    want = tower_closed_form(n)
    got = {k: rep.get(k) for k in ("N", "K", "rank")}
    if got != {k: want[k] for k in ("N", "K", "rank")}:
        return f"read-back code {got}, expected {want}"
    return None


def check_distance(result, m: int, gens, ref: dict):
    """params --m m --gens ...: rank, K and exact D, and the witness is a
    logical word of that weight."""
    bad = _exit(result, 0)
    if bad:
        return bad
    rep, bad = _report(result.stdout)
    if bad:
        return bad
    out = rep["outputs"]
    for key in ("N", "K", "rank"):
        if out.get(key) != ref[key]:
            return f"{key} = {out.get(key)}, expected {ref[key]}"
    D = out.get("D", {})
    if D.get("method") != "exact" or D.get("value") != ref["D"]:
        return f"D = {D.get('value')} ({D.get('method')}), " \
               f"expected exact {ref['D']}"
    support = D.get("witness_support", [])
    if len(set(support)) != ref["D"]:
        return "witness weight differs from D"
    word = sum(1 << v for v in set(support))
    if reduce(ref["kernel_basis"], word):
        return "witness is not in the kernel"
    if not reduce(ref["row_basis"], word):
        return "witness lies in the row space"
    return None


def cover_expects_isomorphism(d: int, r: int) -> bool:
    """Vertex injectivity needs 2r < d and induced edges need
    2r + 1 < d, so the ball certificate holds iff 2r + 1 < d."""
    return 2 * r + 1 < d


def check_cover(result, m: int, W, r: int):
    n = m + len(W)
    d = classical_distance(m, W)
    iso = cover_expects_isomorphism(d, r)
    bad = _exit(result, 0 if iso else 3)
    if bad:
        return bad
    rep, bad = _report(result.stdout)
    if bad:
        return bad
    out = rep["outputs"]
    cert = out.get("certificate", {})
    if out.get("classical_distance") != d:
        return f"classical distance {out.get('classical_distance')}, " \
               f"expected {d}"
    if cert.get("radius") != r:
        return "certificate radius differs from the requested one"
    if iso:
        if cert.get("status") != "isomorphism" or \
                cert.get("centers_checked") != 1 << n:
            return f"expected isomorphism on all {1 << n} centers"
        return None
    if cert.get("status") != "collision":
        return f"expected a collision at r = {r} for d = {d}"
    ce = cert.get("counterexample", {})
    center, a, b = ce.get("center"), ce.get("first"), ce.get("second")
    if not all(isinstance(x, int) and 0 <= x < 1 << n
               for x in (center, a, b)):
        return "counterexample outside the hypercube"
    if (a ^ center).bit_count() > r or (b ^ center).bit_count() > r:
        return "counterexample leaves the ball"
    columns = [1 << i for i in range(m)] + list(W)

    def project(x):
        out = 0
        for i, c in enumerate(columns):
            if x >> i & 1:
                out ^= c
        return out

    pa, pb = project(a), project(b)
    vertex_collision = a != b and pa == pb
    edge_mismatch = (pa ^ pb) in columns and (a ^ b).bit_count() != 1
    if not (vertex_collision or edge_mismatch):
        return "counterexample is neither a collision nor an edge mismatch"
    return None


def check_verify(result):
    """verify: exit 0 and every check passes."""
    bad = _exit(result, 0)
    if bad:
        return bad
    rep, bad = _report(result.stdout)
    if bad:
        return bad
    checks = rep.get("checks", [])
    failing = [c["name"] for c in checks if c.get("status") != "pass"]
    if not checks or failing:
        return f"failing checks: {failing or 'none reported'}"
    if rep["outputs"].get("failed") != 0 or \
            rep["outputs"].get("passed") != len(checks):
        return "pass/fail counts disagree with the checks"
    return None


# -- writers for benchmark inputs ------------------------------------------


def export_tower(n: int, fmt: str) -> bytes:
    """The level-n tower matrix in one of the program's input formats,
    written here so the read-back job starts from an independent file."""
    gens = tower_generators(n)
    N = 1 << n
    rows = [sorted(p ^ s for s in gens) for p in range(N)]
    if fmt == "bin":
        stride = (N + 7) // 8
        body = b"".join(
            v.to_bytes(stride, "little") for v in adjacency_rows(n, gens)
        )
        return struct.pack("<4sHHII", b"CAYM", 1, 0, N, N) + body
    if fmt == "json":
        return json.dumps({"rows": N, "cols": N,
                           "row_support": rows}).encode()
    if fmt == "mtx":
        entries = [f"{i + 1} {j + 1}" for i, r in enumerate(rows)
                   for j in r]
        return "\n".join(
            ["%%MatrixMarket matrix coordinate pattern general",
             f"{N} {N} {len(entries)}"] + entries
        ).encode() + b"\n"
    if fmt == "alist":
        deg = n + 1
        lists = [" ".join(str(j + 1) for j in r) for r in rows]
        return "\n".join(
            [f"{N} {N}", f"{deg} {deg}", " ".join([str(deg)] * N),
             " ".join([str(deg)] * N)] + lists + lists
        ).encode() + b"\n"
    raise ValueError(f"unknown format {fmt!r}")
