"""Dense GF(2) linear algebra.

A vector is one Python int, bit ``i`` its position ``i``.  A matrix
keeps its rows packed into 64-bit words, little-endian bit order within
words: bit ``i`` of a row lives in word ``i // 64`` at position
``i % 64``.  All serialization uses this layout, and a vector's
``words`` view packs it the same way.

Elimination is one XOR basis of Python integers keyed by leading bit,
``int_echelon``.  A matrix caches two, built on first use: its rows
give ``rank`` and ``in_row_space``, its columns ``solve_preimage`` and,
as their dependencies in order, ``kernel_basis``.  Everything here is
immutable after construction; the read-only bases are safe to share
between threads.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

WORD_BITS = 64

#: Default cap on exhaustive 2^dim enumerations (~67M words).  The
#: table-driven distance walk covers 2^26 words in 0.1 s at N <= 64 and
#: 0.65 s at N = 256 (2-core Xeon), so a search at the cap ends in
#: seconds while anything that would run for days fails loudly instead.
DEFAULT_ENUMERATION_BUDGET = 26

#: Largest budget the CLI accepts.  The walk costs about 1.5 ns per word
#: at N <= 64 and about 10 ns at N = 256, growing with the number of
#: 64-bit words per vector: 2^30 words took 1.6 s at N = 64 and would
#: take about 11 s at N = 256; each further step doubles it.
MAX_ENUMERATION_BUDGET = 30


class GF2Error(Exception):
    """Base class for GF(2) linear-algebra errors."""


class DimensionBudgetError(GF2Error):
    """An exhaustive enumeration would exceed the dimension budget."""

    def __init__(self, dimension: int, budget: int):
        self.dimension = dimension
        self.budget = budget
        super().__init__(
            f"enumeration dimension {dimension} exceeds budget {budget}"
        )


class EmptyDifferenceError(GF2Error):
    """The two spans coincide, so the set difference is empty."""


def _n_words(length: int) -> int:
    return (length + WORD_BITS - 1) // WORD_BITS


#: Byte b with its eight bits in reverse order, at index b.
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class BitVector:
    """An immutable GF(2) vector of ``length`` bits held as one Python
    int ``value``.  ``words`` is a read-only packed copy, for NumPy."""

    __slots__ = ("length", "value")

    def __init__(self, length: int, words: np.ndarray):
        if words.shape != (_n_words(length),) or words.dtype != np.uint64:
            raise ValueError("payload shape/dtype mismatch")
        # tobytes reads any strides; the mask clears the padding bits.
        value = int.from_bytes(words.tobytes(), "little")
        self.length, self.value = length, value & (1 << length) - 1

    # -- constructors --------------------------------------------------

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls.from_int(length, 0)

    @classmethod
    def from_support(cls, length: int, positions: Iterable[int]) -> "BitVector":
        """The vector with ones at ``positions``; a position listed twice
        cancels, and one outside [0, length) raises ValueError."""
        if not isinstance(positions, np.ndarray):
            positions = list(positions)
        try:
            pos = np.array(positions, dtype=np.int64)
        except OverflowError:  # a Python int beyond int64
            pos = np.array([-1])
        if pos.size and (pos.min() < 0 or pos.max() >= length):
            bad = next(p for p in np.ravel(positions).tolist()
                       if not 0 <= p < length)
            raise ValueError(f"position {bad} out of range [0, {length})")
        words = np.zeros(_n_words(length), dtype=np.uint64)
        np.bitwise_xor.at(words, pos >> 6,
                          np.uint64(1) << (pos & 63).astype(np.uint64))
        return cls(length, words)

    @classmethod
    def from_int(cls, length: int, value: int) -> "BitVector":
        if value < 0 or value >> length:
            raise ValueError("integer value does not fit the stated length")
        v = object.__new__(cls)
        v.length, v.value = length, value
        return v

    @classmethod
    def _from_bits(cls, bits: np.ndarray) -> "BitVector":
        """The vector of a 0/1 array, the inverse of ``_bits``."""
        packed = np.packbits(bits, bitorder="little").tobytes()
        return cls.from_int(bits.size, int.from_bytes(packed, "little"))

    @classmethod
    def concat(cls, parts: Sequence["BitVector"]) -> "BitVector":
        value = length = 0
        for p in parts:
            value, length = value | p.value << length, length + p.length
        return cls.from_int(length, value)

    # -- queries -------------------------------------------------------

    @property
    def words(self) -> np.ndarray:
        buf = self.value.to_bytes(_n_words(self.length) * 8, "little")
        return np.frombuffer(buf, dtype=np.uint64)  # read-only

    def to_int(self) -> int:
        return self.value

    def bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise ValueError(f"index {i} out of range [0, {self.length})")
        return self.value >> i & 1

    def _bits(self) -> np.ndarray:
        """The vector as a 0/1 array of ``length`` entries."""
        buf = self.value.to_bytes((self.length + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(buf, dtype=np.uint8),
                             bitorder="little", count=self.length)

    def support(self) -> list[int]:
        return np.flatnonzero(self._bits()).tolist()

    @property
    def weight(self) -> int:
        return self.value.bit_count()

    def is_zero(self) -> bool:
        return not self.value

    def take(self, positions: np.ndarray) -> "BitVector":
        """The vector whose bit k is bit ``positions[k]`` of this one."""
        return BitVector._from_bits(self._bits()[positions])

    def slice(self, start: int, stop: int) -> "BitVector":
        if not 0 <= start <= stop <= self.length:
            raise ValueError(
                f"slice [{start}, {stop}) outside [0, {self.length})"
            )
        value = self.value >> start & (1 << (stop - start)) - 1
        return BitVector.from_int(stop - start, value)

    def reversed(self) -> "BitVector":
        """Bit reversal: position p maps to length-1-p.  The bytes and the
        bits of each byte are reversed, then the leading padding dropped."""
        nbytes = (self.length + 7) // 8
        flipped = self.value.to_bytes(nbytes, "big").translate(_REVERSED_BYTE)
        value = int.from_bytes(flipped, "little") >> 8 * nbytes - self.length
        return BitVector.from_int(self.length, value)

    # -- algebra -------------------------------------------------------

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch in XOR")
        return BitVector.from_int(self.length, self.value ^ other.value)

    def dot(self, other: "BitVector") -> int:
        if self.length != other.length:
            raise ValueError("length mismatch in dot product")
        return (self.value & other.value).bit_count() & 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVector)
            and self.length == other.length
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.length, self.value))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        if self.length <= 64:
            body = "".join(str(self.bit(i)) for i in range(self.length))
        else:
            body = f"weight={self.weight}"
        return f"BitVector({self.length}, {body})"


class BitMatrix:
    """An immutable GF(2) matrix stored as packed rows."""

    __slots__ = ("rows", "cols", "words", "_row_basis", "_col_basis",
                 "_coords")

    def __init__(self, rows: int, cols: int, words: np.ndarray):
        if words.shape != (rows, _n_words(cols)) or words.dtype != np.uint64:
            raise ValueError("payload shape/dtype mismatch")
        words = words.copy()
        if cols % WORD_BITS and words.size:  # clear the padding bits
            words[:, -1] &= np.uint64((1 << cols % WORD_BITS) - 1)
        self._hold(rows, cols, words)

    @classmethod
    def _wrap(cls, rows: int, cols: int, words: np.ndarray) -> "BitMatrix":
        """A matrix over ``words`` without a copy: the caller passes
        words that nothing else writes to, with zero padding bits."""
        M = object.__new__(cls)
        M._hold(rows, cols, words)
        return M

    def _hold(self, rows: int, cols: int, words: np.ndarray) -> None:
        """Take ``words`` read-only as the payload, with no caches yet."""
        words.setflags(write=False)
        self.rows, self.cols, self.words = rows, cols, words
        self._row_basis = self._col_basis = self._coords = None

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        i = np.arange(n)
        return cls.from_nonzero(n, n, i, i)

    @classmethod
    def from_nonzero(cls, rows: int, cols: int, rr, cc) -> "BitMatrix":
        """The rows x cols matrix with ones at the coordinates (rr, cc),
        the inverse of ``nonzero()``, which returns them when they come
        in row-major order without repeats.  The index arrays broadcast
        against each other; a repeated coordinate sets its bit once, and
        one outside the matrix raises ValueError."""
        rr = np.asarray(rr, dtype=np.int64)
        cc = np.asarray(cc, dtype=np.int64)
        if not ((0 <= rr) & (rr < rows) & (0 <= cc) & (cc < cols)).all():
            raise ValueError(f"coordinate outside the {rows} x {cols} matrix")
        words = np.zeros((rows, _n_words(cols)), dtype=np.uint64)
        flat = rr * words.shape[1] + cc // WORD_BITS
        bits = np.uint64(1) << (cc % WORD_BITS).astype(np.uint64)
        np.bitwise_or.at(words.reshape(-1), flat, bits)
        # Every column is below cols, so the padding bits stay clear.
        M = cls._wrap(rows, cols, words)
        key = (rr * cols + cc).ravel()
        if (key[1:] > key[:-1]).all():  # row-major without repeats
            rr, cc = (a.flatten() for a in np.broadcast_arrays(rr, cc))
            rr.setflags(write=False)
            cc.setflags(write=False)
            M._coords = rr, cc
        return M

    @classmethod
    def from_rows(cls, rows: Sequence[BitVector]) -> "BitMatrix":
        if not rows:
            raise ValueError("cannot build a matrix from zero rows")
        cols = rows[0].length
        if any(r.length != cols for r in rows):
            raise ValueError("rows have unequal lengths")
        nw = _n_words(cols)
        buf = b"".join(r.value.to_bytes(nw * 8, "little") for r in rows)
        words = np.frombuffer(buf, dtype=np.uint64).reshape(len(rows), nw)
        return cls._wrap(len(rows), cols, words)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        dense = np.ascontiguousarray(np.asarray(dense, dtype=np.uint8) & 1)
        rows, cols = dense.shape
        packed = np.packbits(dense, axis=1, bitorder="little")
        pad = _n_words(cols) * 8 - packed.shape[1]
        packed = np.pad(packed, ((0, 0), (0, pad)))
        return cls(rows, cols, packed.view(np.uint64))

    # -- queries -------------------------------------------------------

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.words[i])

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(
            self.words.view(np.uint8), axis=1, bitorder="little",
            count=self.cols,
        )

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the set bits in row-major order,
        equal to ``np.nonzero(self.to_dense())``, as read-only arrays:
        the coordinates ``from_nonzero`` kept, or else each nonzero word
        peels its lowest bit into its row-major slot, one bit per pass.
        """
        if self._coords is not None:
            return self._coords
        wr, wc = np.nonzero(self.words)
        w = self.words[wr, wc]
        count = np.bitwise_count(w).astype(np.int64)
        slot = np.cumsum(count) - count  # where each word's next bit goes
        base = wc * WORD_BITS
        cc = np.empty(count.sum(), dtype=np.int64)
        while w.size:
            low = w & -w
            cc[slot] = base + np.bitwise_count(low - np.uint64(1))
            w ^= low
            more = w != 0
            w, slot, base = w[more], slot[more] + 1, base[more]
        rr = np.repeat(wr, count)
        rr.setflags(write=False)
        cc.setflags(write=False)
        return rr, cc

    def transpose(self) -> "BitMatrix":
        rr, cc = self.nonzero()
        return BitMatrix.from_nonzero(self.cols, self.rows, cc, rr)

    def mul_vector(self, v: BitVector) -> BitVector:
        """M . v^T, a vector indexed by rows."""
        if v.length != self.cols:
            raise ValueError(
                f"vector length {v.length} != column count {self.cols}"
            )
        # The XOR of a row's AND words has the parity of its shared ones;
        # a zero word of v adds nothing.
        shared = np.zeros(self.rows, dtype=np.uint64)
        for k, w in enumerate(v.words):
            if w:
                shared ^= self.words[:, k] & w
        return BitVector._from_bits(np.bitwise_count(shared) & 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.words, other.words))
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _int_rows(M: BitMatrix) -> Iterator[int]:
    """M's rows as integers, converted one at a time."""
    return (int.from_bytes(w.tobytes(), "little") for w in M.words)


def row_basis(M: BitMatrix) -> Mapping[int, tuple[int, int]]:
    """The int_echelon basis of M's rows, built once and cached on M."""
    if M._row_basis is None:
        M._row_basis = MappingProxyType(int_echelon(_int_rows(M)))
    return M._row_basis


def _column_basis(M: BitMatrix) -> tuple[Mapping, tuple[int, ...]]:
    """The int_echelon basis of M's columns and the dependency masks of
    the columns it leaves out, built once and cached on M."""
    if M._col_basis is None:
        kernel: list[int] = []
        basis = int_echelon(_int_rows(M.transpose()), kernel)
        M._col_basis = MappingProxyType(basis), tuple(kernel)
    return M._col_basis


def rank(M: BitMatrix) -> int:
    """GF(2) row rank: the size of M's row basis."""
    return len(row_basis(M))


def kernel_basis(M: BitMatrix) -> list[BitVector]:
    """Basis of {v : M . v^T = 0}; has cols - rank(M) elements.

    Vector k is the dependency of the k-th column that lies in the span
    of the columns before it: that column and the columns independent of
    their predecessors that sum to it, the reduced kernel basis of
    Gauss-Jordan elimination, vector for vector."""
    return [BitVector.from_int(M.cols, k) for k in _column_basis(M)[1]]


def in_row_space(M: BitMatrix, v: BitVector) -> bool:
    """True iff v lies in the GF(2) row span of M."""
    if v.length != M.cols:
        raise ValueError(f"vector length {v.length} != column count {M.cols}")
    return not int_reduce(row_basis(M), v.to_int())[0]


def solve_preimage(M: BitMatrix, b: BitVector) -> BitVector | None:
    """Some x with M . x^T = b, or None when unsolvable.

    M's column basis keeps each column independent of those before it:
    M's pivot columns.  The mask int_reduce returns for b is then the
    one solution supported on them, so free variables are zero and
    b -> x is a fixed linear section of the matrix map.
    """
    if b.length != M.rows:
        raise ValueError(f"vector length {b.length} != row count {M.rows}")
    residual, x = int_reduce(_column_basis(M)[0], b.to_int())
    return None if residual else BitVector.from_int(M.cols, x)


#: Cost of listing one column-sharing row pair in the sparse
#: self-orthogonality test, in word operations of the dense row loop;
#: measured, see is_self_orthogonal.
PAIR_COST_IN_WORDS = 8

#: Most column-sharing pairs (sum of squared column degrees) the sparse
#: test lists: its index arrays take about 15 bytes per pair, so about
#: 250 MB at this cap.  Larger inputs take the dense row loop.
MAX_SPARSE_PAIRS = 1 << 24


def is_self_orthogonal(M: BitMatrix) -> bool:
    """True iff M . M^T = 0 over GF(2).

    Entry (i, j) of M . M^T is the parity of the number of columns rows
    i and j share.  Listing the row pairs of every column costs
    sum_c deg(c)^2 pairs, against rows^2 * words word operations for
    the dense row loop; the pairs are counted when that is the cheaper
    (at PAIR_COST_IN_WORDS words per pair) and fits MAX_SPARSE_PAIRS,
    and the row loop runs otherwise.
    """
    limit = min(
        M.rows * M.rows * M.words.shape[1] // PAIR_COST_IN_WORDS,
        MAX_SPARSE_PAIRS,
    )
    nnz = int(np.bitwise_count(M.words).sum())
    # sum_c deg(c)^2 >= nnz^2 / cols rules out dense inputs before their
    # coordinates are listed.
    if nnz * nnz <= limit * M.cols:
        rows, cols = M.nonzero()
        deg = np.bincount(cols, minlength=M.cols)
        if int(deg @ deg) <= limit:
            return _sparse_self_orthogonal(rows, cols, deg, M.rows)
    for i in range(M.rows):
        parities = (
            np.bitwise_count(M.words & M.words[i][None, :]).sum(axis=1) & 1
        )
        if parities.any():
            return False
    return True


def _sparse_self_orthogonal(
    rows: np.ndarray, cols: np.ndarray, deg: np.ndarray, n_rows: int
) -> bool:
    """M . M^T = 0 from the set-bit coordinates of M: each pair of rows
    i <= j is listed once per column they share, keyed i * n_rows + j,
    and every key must occur an even number of times."""
    r = rows[np.argsort(cols, kind="stable")]  # by column, rows ascending
    # Entry e pairs with itself and the later entries of its column;
    # pair t, the k-th of entry e, joins e with entry e + k.
    partners = np.repeat(np.cumsum(deg), deg) - np.arange(r.size)
    first_pair = np.cumsum(partners) - partners
    second = np.arange(partners.sum())
    second -= np.repeat(first_pair - np.arange(r.size), partners)
    keys = r[second]
    keys += np.repeat(r * n_rows, partners)
    _, counts = np.unique(keys, return_counts=True)
    return not (counts & 1).any()


def int_echelon(
    vectors: Iterable[int],
    dependencies: list[int] | None = None,
    basis: dict[int, tuple[int, int]] | None = None,
) -> dict[int, tuple[int, int]]:
    """Echelon basis of integers under XOR, as {leading bit length:
    (row, mask)}; bit i of mask is set when input i was XORed into the
    row.  Each input joins as its int_reduce residual, so a row's
    leading bit is a key of no earlier row.

    ``dependencies``, if given, receives the mask of every input that
    reduces to zero, in input order.  ``basis``, if given, is a basis
    to extend in place; its masks are XORed into those of the inputs.
    """
    basis = {} if basis is None else basis
    for i, v in enumerate(vectors):
        v, mask = int_reduce(basis, v, 1 << i)
        if v:
            basis[v.bit_length()] = v, mask
        elif dependencies is not None:
            dependencies.append(mask)
    return basis


def int_reduce(
    basis: Mapping[int, tuple[int, int]], v: int, mask: int = 0
) -> tuple[int, int]:
    """Residual of v against an int_echelon basis, and mask XORed with
    the masks of the rows used; v lies in the span iff it is 0.  The
    residual's leading bit picks the next row, until it picks none."""
    get = basis.get
    while v:
        row = get(v.bit_length())
        if row is None:
            break
        v ^= row[0]
        mask ^= row[1]
    return v, mask


def gray_span(basis: Sequence[int]) -> Iterator[int]:
    """All 2^k XOR combinations of the basis, zero first, in Gray-code
    order: each step XORs in one basis vector."""
    v = 0
    yield v
    for i in range(1, 1 << len(basis)):
        v ^= basis[(i & -i).bit_length() - 1]
        yield v


#: Byte cap on the distance engine's table of partial combinations
#: together with one step's XOR of it, 2^T rows of ceil(N / 64) words
#: each: T <= 16 for N <= 64, and one less per doubling of the words.
MAX_TABLE_BYTES = 1 << 20


def min_weight_in_span_minus_subspace(
    span_basis: Sequence[BitVector],
    sub_basis: Sequence[BitVector],
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[int, BitVector]:
    """Minimum Hamming weight over span(K) \\ span(I), with a witness.

    The words are the XOR combinations of a subspace basis followed by
    a complement basis.  A table holds all 2^T combinations of the first
    T of these vectors (T bounded by MAX_TABLE_BYTES), built by
    doubling, so its rows [0, 2^s) for the s subspace vectors among them
    are subspace words.  A Gray code over the other vectors XORs one
    offset into the whole table per step and takes the popcount and
    minimum in NumPy; while the offset has no complement part, the
    subspace rows are left out.  Ties on weight break towards the
    numerically least witness, which makes the result independent of
    the enumeration order.
    """
    length = span_basis[0].length if span_basis else 0
    sub_ints = [b for b, _ in int_echelon(v.to_int() for v in sub_basis)
                .values()]
    span_ints = [b for b, _ in int_echelon(v.to_int() for v in span_basis)
                 .values()]
    dim_span = len(span_ints)
    if dim_span > budget:
        raise DimensionBudgetError(dim_span, budget)
    s = len(sub_ints)
    joint = int_echelon(sub_ints + span_ints)
    if len(joint) > dim_span:
        raise ValueError("subspace basis is not contained in the span")
    # Complement basis: the rows that took in some span vector.
    comp = [b for b, mask in joint.values() if mask >> s]
    if not comp:
        raise EmptyDifferenceError("span and subspace coincide")

    nw = _n_words(length)
    vectors = [
        np.frombuffer(v.to_bytes(nw * 8, "little"), np.uint64)[:, None]
        for v in sub_ints + comp
    ]
    t = len(vectors)
    while (16 * nw) << t > MAX_TABLE_BYTES:
        t -= 1
    # Word-major, so each word of the 2^t combinations is contiguous.
    table = np.zeros((nw, 1), dtype=np.uint64)
    for v in vectors[:t]:
        table = np.hstack([table, table ^ v])
    subspace_rows = 1 << min(s, t)
    rest = vectors[t:]
    # Offsets i < 2^q have no complement part: q subspace vectors remain.
    q = max(s - t, 0)
    best_w = length + 1
    best_v = 0
    offset = np.zeros((nw, 1), dtype=np.uint64)
    for i in range(1 << len(rest)):
        if i:
            offset ^= rest[(i & -i).bit_length() - 1]
        in_subspace = i >> q == 0
        if in_subspace and subspace_rows == table.shape[1]:
            continue
        x = table ^ offset
        w = np.bitwise_count(x[0] if nw == 1 else x)
        if nw > 1:
            w = w.sum(axis=0, dtype=np.int32)
        if in_subspace:
            w[:subspace_rows] = np.iinfo(w.dtype).max
        low = int(w.min())
        if low > best_w:
            continue
        # The least value among the ties: the most significant word decides.
        ties = x[:, w == low]
        v = ties[:, np.lexsort(ties)[0]]
        value = int.from_bytes(v.tobytes(), "little")
        if low < best_w or value < best_v:
            best_w, best_v = low, value
    return best_w, BitVector.from_int(length, best_v)
