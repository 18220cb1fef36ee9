"""Named verification suites: each structural fact of the construction
is re-checked mechanically over a range of sizes.

Every suite takes the keywords ns, seed, m, W and budget, ignoring
those it does not use, and returns a list of CheckItem records; the CLI
renders them as a JSON scoreboard and the test suite asserts them
directly.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import cayley, cover, css, gf2, repetition
from .cayley import (
    CyclicProductGroup,
    GeneratorSet,
    adjacency_matrix,
    algebra_nilpotency_check,
    check_self_orthogonal_combinatorial,
)
from .gf2 import BitMatrix, BitVector
from .smallcode import build_parity_check, min_distance

SUITE_NAMES = (
    "recursion",
    "dimension",
    "distance",
    "cover",
    "local-sum",
    "conjugation",
    "bipartite",
    "algebra",
)


@dataclass
class CheckItem:
    name: str
    ok: bool
    elapsed_s: float
    detail: str = ""
    n: Optional[int] = None  # the tower size checked, if any; not reported

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.ok else "fail",
            "elapsed_s": round(self.elapsed_s, 6),
            "detail": self.detail,
        }


def _run(name: str, fn: Callable[[], tuple[bool, str]]) -> CheckItem:
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except gf2.DimensionBudgetError:
        raise  # a budget overrun ends the run (exit 4), not a failed claim
    except Exception as exc:  # a crash is a failed check, not a crash run
        return CheckItem(name, False, time.perf_counter() - start, repr(exc))
    return CheckItem(name, ok, time.perf_counter() - start, detail)


def _sized(n: int, name: str, fn) -> CheckItem:
    """``_run`` for a check of the size-n tower (see ``skipped_sizes``)."""
    item = _run(name, fn)
    item.n = n
    return item


#: The suites with checks of one tower size, each mapped to whether
#: some of those checks are at even sizes; the other suites' checks are
#: all size-free.
SIZED_SUITES = {
    "recursion": True,
    "dimension": False,
    "distance": False,
    "conjugation": False,
    "bipartite": False,
}


def skipped_sizes(
    name: str, items: Iterable[CheckItem], ns: Iterable[int]
) -> list[int]:
    """The sizes of ``ns`` at which suite ``name`` ran no check: none for
    a suite of size-free checks, and no even size for a suite that
    checks the tower's odd levels only."""
    if name not in SIZED_SUITES:
        return []
    covered = {c.n for c in items}
    return [n for n in ns
            if n not in covered and (n % 2 or SIZED_SUITES[name])]


def _odd(ns: Iterable[int]) -> list[int]:
    return [n for n in ns if n % 2 == 1]


# -- recursion ---------------------------------------------------------


def suite_recursion(ns: Iterable[int], seed: int, **_) -> list[CheckItem]:
    items = []
    for n in ns:
        if 4 <= n <= repetition.MAX_RECURSIVE_DIMENSION:
            items.append(_sized(
                n, f"recursion/block-assembly-n{n}",
                lambda n=n: (
                    repetition.build_recursive(n) == repetition.matrix(n),
                    "block assembly equals direct construction",
                ),
            ))
    for s in (2, 8, 64, 1 << 10):
        def involution(s=s):
            J = repetition.reversal_matrix(s)
            i, j = J.nonzero()
            JJ = np.zeros_like(J.words)  # row i: XOR of rows j, J[i, j] = 1
            np.bitwise_xor.at(JJ, i, J.words[j])
            ok = BitMatrix(s, s, JJ) == BitMatrix.identity(s)
            return ok, "J^2 = I" if ok else "J^2 != I"
        items.append(_run(f"recursion/reversal-involution-{s}", involution))
    for t in (5, 7):
        if t in ns:
            items.append(_sized(
                t, f"recursion/image-parametrization-n{t}",
                lambda t=t: image_parametrization(t),
            ))
            items.append(_sized(
                t, f"recursion/normal-form-n{t}",
                lambda t=t: normal_forms(t, 16, seed),
            ))
    return items


def image_parametrization(t: int) -> tuple[bool, str]:
    """The image words of the 4 * 2^(t-2) unit blocks lie in the row
    space of the level-t matrix and span all of it."""
    n = t - 2
    M = repetition.matrix(n)
    zero = BitVector.zeros(1 << n)
    words = []
    for i in range(4):
        for p in range(1 << n):
            blocks = [zero] * 4
            blocks[i] = BitVector.from_support(1 << n, [p])
            words.append(repetition.image_element(M, *blocks))
    big = repetition.matrix(t)
    outside = sum(not gf2.in_row_space(big, c) for c in words)
    got, want = gf2.rank(BitMatrix.from_rows(words)), gf2.rank(big)
    return outside == 0 and got == want, (
        f"{len(words)} unit-block image words, {outside} outside the row "
        f"space, rank {got}, expected {want}"
    )


def normal_forms(t: int, samples: int, seed: int) -> tuple[bool, str]:
    """Image words, the kernel words (s, 0, 0, s) and (0, s, s, 0), s in
    the level-(t-2) kernel, and lifted kernel words (c1, c2, c2, c1 + d1)
    whose block difference d1 is a nonzero level-(t-2) row-space word
    reduce to (c, 0, 0, c); random kernel words and the witness either
    reduce to that shape or come back unchanged."""
    rng = random.Random(seed)
    n = t - 2
    big, M = repetition.matrix(t), repetition.matrix(n)

    def random_kernel_words(A):
        kernel = [v.to_int() for v in gf2.kernel_basis(A)]
        for _ in range(samples):
            value = 0
            for v in kernel:
                if rng.random() < 0.5:
                    value ^= v
            yield BitVector.from_int(A.cols, value)

    words = [
        (repetition.image_element(M, *(
            BitVector.from_int(1 << n, rng.getrandbits(1 << n))
            for _ in range(4)
        )), True)
        for _ in range(samples)
    ]
    words += [(c, False) for c in random_kernel_words(big)]
    words.append((repetition.min_weight_witness(t), False))
    zero = BitVector.zeros(1 << n)
    for s in random_kernel_words(M):
        words.append((repetition.QuadSplit((s, zero, zero, s)).join(), True))
        words.append((repetition.QuadSplit((zero, s, s, zero)).join(), True))
    # Lifted as kernel_basis_recursive lifts (d1, d2) with d2 = 0: the
    # row-space word d1 sends representative_normal_form through a
    # nonzero preimage.
    lifted = []
    while len(lifted) < samples:
        d1 = M.mul_vector(BitVector.from_int(1 << n, rng.getrandbits(1 << n)))
        if d1.is_zero():
            continue
        c1 = gf2.solve_preimage(M, repetition.reversal(d1))
        c2 = gf2.solve_preimage(M, d1)
        lifted.append(
            (repetition.QuadSplit((c1, c2, c2, c1 ^ d1)).join(), True)
        )
    reduced = 0
    for c, must_reduce in words + lifted:
        nf = repetition.representative_normal_form(big, M, c)
        c1, c2, c3, c4 = nf.quad.parts
        if nf.reduced:
            if not (c2.is_zero() and c3.is_zero() and c1 == c4):
                return False, "a reduced word is not of the shape (c, 0, 0, c)"
            reduced += 1
        elif must_reduce:
            return False, "an image, block or lifted word was not reduced"
        elif nf.quad.join() != c:
            return False, "an unreduced word came back changed"
    return True, (
        f"{samples} image words reduced to (c, 0, 0, c); "
        f"{samples} lifted words with d1 a nonzero row-space word reduced; "
        f"{reduced - 2 * samples} of {3 * samples + 1} kernel words "
        "reduced, the rest unchanged"
    )


# -- dimension ---------------------------------------------------------


def suite_dimension(ns: Iterable[int], seed: int, **_) -> list[CheckItem]:
    items = []
    for n in _odd(ns):
        def check(n=n):
            code = repetition.build_code(n)
            dim = code.N - code.rank
            N, K, _ = repetition.parameters(n)
            want = (N + K) // 2
            return dim == want, f"dim ker = {dim}, expected {want}"
        items.append(_sized(n, f"dimension/kernel-n{n}", check))
    for n in _odd(ns):
        if 5 <= n <= 9:
            def check(n=n):
                basis = repetition.kernel_basis_recursive(n - 2)
                N, K, _ = repetition.parameters(n)
                want = (N + K) // 2
                return (
                    len(basis) == want,
                    f"recursive basis size {len(basis)}, expected {want}",
                )
            items.append(_sized(n, f"dimension/recursive-basis-n{n}", check))
    for t in (5, 7):
        if t in ns:
            items.append(_sized(
                t, f"dimension/characterize-n{t}",
                lambda t=t: kernel_characterize_agreement(t, 200, seed),
            ))
    return items


# -- distance ----------------------------------------------------------


#: Largest n at which the distance suite checks the witness and the
#: lower bound.  Neither builds a matrix, so this is no memory guard:
#: it fixes the suite's check names, and raising it adds n >= 15.
MAX_DISTANCE_CHECK_DIMENSION = 13


def suite_distance(ns: Iterable[int], budget: int, **_) -> list[CheckItem]:
    items = []
    for n in _odd(ns):
        if n <= 5:
            def check(n=n):
                claimed = repetition.parameters(n)[2]
                report = css.distance_exact(repetition.build_code(n), budget)
                return (
                    report.value == claimed,
                    f"exact D = {report.value}, expected {claimed}",
                )
            items.append(_sized(n, f"distance/exact-n{n}", check))
        elif n <= MAX_DISTANCE_CHECK_DIMENSION:
            def check(n=n):
                # min_weight_witness certifies the word logical.
                claimed = repetition.parameters(n)[2]
                upper = repetition.min_weight_witness(n).weight
                return (
                    upper == claimed,
                    f"witness upper bound {upper}, claimed {claimed}",
                )
            items.append(_sized(n, f"distance/witness-n{n}", check))
            if n >= 9:
                items.append(_sized(
                    n, f"distance/lower-bound-n{n}",
                    lambda n=n: lower_bound(n),
                ))
    return items


def lower_bound(n: int) -> tuple[bool, str]:
    """The paper's bound ceil(d l^2 / 640) from the classical code
    [I_n | 1] (length l and distance d both n + 1) lies below the
    claimed D and the witness weight, and every support vertex of the
    witness sees at least ceil(l^2 / 32) of its ones within radius 4."""
    classical = build_parity_check(n, ((1 << n) - 1,))
    length, d = classical.length, min_distance(classical)
    if length != n + 1 or d != n + 1:
        return False, f"classical length {length}, distance {d}"
    lower = css.distance_lower_bound_theorem(length, d)
    claimed = repetition.parameters(n)[2]
    w = repetition.min_weight_witness(n)
    balls = css.ball_weight_check(n, repetition.generators(n), w, length)
    return lower <= claimed <= w.weight and balls.ok, (
        f"lower bound {lower}, claimed {claimed}, witness weight "
        f"{w.weight}; least ball-weight margin "
        f"{min(balls.margins.values())} over threshold {balls.threshold}"
    )


# -- conjugation -------------------------------------------------------


def suite_conjugation(ns: Iterable[int], **_) -> list[CheckItem]:
    items = []
    for n in _odd(ns):
        if n <= 9:
            items.append(_sized(
                n, f"conjugation/n{n}",
                lambda n=n: (
                    repetition.conjugation_check(n),
                    "J M J = M with kernel and row space stable",
                ),
            ))
    return items


# -- bipartite ---------------------------------------------------------


def suite_bipartite(ns: Iterable[int], budget: int, **_) -> list[CheckItem]:
    items = []
    for n in _odd(ns):
        items.append(_sized(
            n, f"bipartite/halved-block-n{n}", lambda n=n: halved_block(n)
        ))
    for n in _odd(ns):
        if n in (3, 5):
            def check(n=n):
                code = css.css_from_matrix(repetition.halved(n))
                N, K, D = repetition.parameters(n)
                want = (N // 2, K // 2, D)
                report = css.distance_exact(code, budget)
                got = (code.N, code.K, report.value)
                return got == want, f"halved parameters {got}, expected {want}"
            items.append(_sized(n, f"bipartite/halved-params-n{n}", check))
    return items


def halved_block(n: int) -> tuple[bool, str]:
    """The tower matrix M, with M[p, q] = 1 iff p + q is a generator, is
    U from the even to the odd class and U^T back, and U = U^T: M is a
    coordinate permutation of [[0, U], [U, 0]], which the two blocks of
    a bipartite ``css.CssCode`` rest on.  Every one of U, at (i, j),
    must join e_i and o_j by a generator, and U must hold 2^(n-1) |S|
    ones, one per edge of the graph, so that it is all of M's
    even-to-odd part; then U = U^T is compared directly.  M itself is
    not built.  U . U^T = 0 is tested up to n = 9."""
    S = repetition.generators(n)
    U = repetition.halved(n)
    evens, odds = cayley.class_vertices(n)
    r, c = U.nonzero()
    is_generator = np.zeros(1 << n, dtype=bool)
    is_generator[list(S.elements)] = True
    edges = len(odds) * len(S.elements)
    if len(r) != edges or not is_generator[evens[r] ^ odds[c]].all():
        return False, "M is not the lift of U"
    if BitMatrix.from_nonzero(U.cols, U.rows, c, r) != U:
        return False, "U != U^T"
    if n > 9:
        return True, (
            "bipartite split exists; U . U^T = 0 checked at n <= 9 only"
        )
    if not gf2.is_self_orthogonal(U):
        return False, "U . U^T != 0"
    return True, "bipartite split exists and U is self-orthogonal"


# -- algebra (three-way self-orthogonality agreement) ------------------

#: Most generator sets per oracle call in the exhaustive sweeps: the
#: matrix oracle holds B * 4^m row-pair words, and larger batches raised
#: peak RSS without running faster.
ORACLE_CHUNK = 256


def _rows_self_orthogonal(rows) -> np.ndarray:
    """Independent matrix oracle: all pairs of adjacency rows share an
    even number of ones.  ``rows`` is ``(..., R, W)`` packed ``uint64``
    words (bit c of word w is column 64 w + c), one verdict per matrix
    of the batch; the AND of every row pair is XORed over its words,
    whose popcount has the parity of the shared ones.  Holds R^2 W
    words per matrix."""
    rows = np.asarray(rows, dtype=np.uint64)
    shared = np.bitwise_xor.reduce(
        rows[..., :, None, :] & rows[..., None, :, :], axis=-1
    )
    return ~(np.bitwise_count(shared) & 1).any(axis=(-2, -1))


def _adjacency_rows(m: int, sets: np.ndarray) -> np.ndarray:
    """Packed rows ``(B, 2^m, W)`` of each set's adjacency matrix: row
    p is the XOR of the unit words at p + s, so a repeated generator
    cancels."""
    p = np.arange(1 << m)[:, None]
    cols = (p ^ sets[:, None, :])[..., None]  # (B, 2^m, k, 1)
    words = np.arange(((1 << m) + 63) // 64)
    units = np.where(
        cols >> 6 == words,
        np.uint64(1) << (cols & 63).astype(np.uint64),
        np.uint64(0),
    )
    return np.bitwise_xor.reduce(units, axis=-2)


def three_way_agreement(m: int, sets) -> np.ndarray:
    """Whether the pair count, the matrix oracle and the group algebra
    agree on each of a ``(B, k)`` batch of equal-size subsets of
    F_2^m; the three share no intermediate array."""
    sets = np.asarray(sets, dtype=np.int64)
    combinatorial = check_self_orthogonal_combinatorial(m, sets)
    matrix_oracle = _rows_self_orthogonal(_adjacency_rows(m, sets))
    algebra = cayley.algebra_nilpotency_check_f2(m, sets)
    return (combinatorial == matrix_oracle) & (matrix_oracle == algebra)


def torus_example_generators(n: int) -> tuple[CyclicProductGroup, list]:
    """The two-cyclic-torus generator family with eight terms: the unit
    steps, their inverses, and the four near-half-turn steps."""
    group = CyclicProductGroup((2 * n, 2 * n))
    terms = [
        (1, 0), (0, 1), (-1, 0), (0, -1),
        (n + 1, 0), (n - 1, 0), (0, n + 1), (0, n - 1),
    ]
    return group, terms


def torus_adjacency(n: int) -> BitMatrix:
    """Adjacency matrix of the two-cyclic-torus example family: p is
    joined to p + s for each non-identity term s.  A term listed twice
    sets its entries once, since ``from_nonzero`` sets repeats once."""
    group, terms = torus_example_generators(n)
    if group.order > 1 << cayley.MAX_MATERIALIZED_DIMENSION:
        raise cayley.SizeGuardError(
            f"{group.order} x {group.order} torus matrix exceeds the "
            f"2^{cayley.MAX_MATERIALIZED_DIMENSION} vertex guard"
        )
    idxs = group.index(terms)
    steps = group.coords(idxs[idxs != 0])
    p = np.arange(group.order)[:, None]
    cols = group.index(group.coords(p) + steps)
    return BitMatrix.from_nonzero(group.order, group.order, p, cols)


def suite_algebra(
    ns: Iterable[int] = (), seed: int = 20240901, samples: int = 100, **_
) -> list[CheckItem]:
    items = []

    def exhaustive(m):
        # Every size, odd ones too: an odd-size set is never
        # self-orthogonal, so an oracle stuck at True disagrees there.
        bad = 0
        for size in range(1, 1 << m):
            combos = itertools.combinations(range(1, 1 << m), size)
            while chunk := list(itertools.islice(combos, ORACLE_CHUNK)):
                bad += int((~three_way_agreement(m, chunk)).sum())
        return bad == 0, f"{bad} disagreements"

    for m in (2, 3, 4):
        items.append(_run(f"algebra/exhaustive-m{m}", lambda m=m: exhaustive(m)))

    def sampled(m, rng):
        draws = []
        for _ in range(samples):
            size = 2 * rng.randint(1, min(8, (1 << m) // 2))
            draws.append(tuple(rng.sample(range(1, 1 << m), size)))
        bad = []
        for size in sorted({len(c) for c in draws}):
            order = [i for i, c in enumerate(draws) if len(c) == size]
            agree = three_way_agreement(m, [draws[i] for i in order])
            bad += [i for i, ok in zip(order, agree) if not ok]
        if bad:
            return False, f"disagreement at S = {draws[min(bad)]}"
        return True, f"{samples} random generator sets agree"

    rng = random.Random(seed)
    for m in (5, 6):
        items.append(_run(f"algebra/random-m{m}", lambda m=m: sampled(m, rng)))

    def torus(n):
        group, terms = torus_example_generators(n)
        if not algebra_nilpotency_check(group, terms):
            return False, "generator sum square is nonzero"
        # Cross-check against the materialized adjacency matrix.
        return (
            bool(_rows_self_orthogonal(torus_adjacency(n).words)),
            "group algebra and adjacency matrix agree",
        )

    for n in (2, 3, 4):
        items.append(_run(f"algebra/torus-n{n}", lambda n=n: torus(n)))
    return items


# -- cover -------------------------------------------------------------


def suite_cover(
    m: Optional[int] = None, W: Optional[tuple[int, ...]] = None, **_
) -> list[CheckItem]:
    """Cover checks for [I_m | W]; with neither given, the m = 5
    all-ones code, which also runs the non-liftable-word example."""
    if m is None and W is None:
        m, W = 5, ((1 << 5) - 1,)
    items = []
    code = build_parity_check(m, W)
    cm = cover.CoverMap(code)

    def fibers():
        want = 1 << len(W)
        seen = set()
        for c in range(1 << m):
            f = cm.fiber(c)
            if len(f) != want:
                return False, f"fiber of {c} has size {len(f)}"
            if any(cm.project(x) != c for x in f):
                return False, f"fiber of {c} does not project back"
            if f & seen:
                return False, "fibers are not disjoint"
            seen |= f
        return (
            len(seen) == 1 << cm.n,
            f"degree {want}, fibers partition the hypercube",
        )
    items.append(_run("cover/fibers", fibers))

    def ball_iso():
        for r in range(cm.safe_radius + 1):
            _, cert = cover.certify_all_centers(cm, r)
            if cert is not None:
                return False, f"collision at center {cert.center}, r={r}"
        return True, f"all centers isomorphic up to r = {cm.safe_radius}"
    items.append(_run("cover/ball-isomorphism", ball_iso))

    def collision():
        cert = cover.certify_ball_isomorphism(cm, 0, cm.safe_radius + 1)
        if isinstance(cert, cover.BallCollision):
            return True, f"collision pair ({cert.first}, {cert.second})"
        return False, "no collision found beyond the safe radius"
    items.append(_run("cover/collision-beyond-radius", collision))

    if m == 5 and tuple(W) == ((1 << 5) - 1,):
        items.append(_run("cover/non-liftable-word", non_lift_example))
    return items


def non_lift_example() -> tuple[bool, str]:
    """The weight-2-shell word: orthogonal to every sphere downstairs,
    yet its radius-2 lift meets a sphere three times upstairs."""
    m = 5
    code = build_parity_check(m, ((1 << m) - 1,))
    cm = cover.CoverMap(code)
    target_gens = cm.target_generators()
    c = BitVector.from_support(
        1 << m, [v for v in range(1 << m) if v.bit_count() == 2]
    )
    if cover.sphere_orthogonality_profile(m, target_gens, c):
        return False, "weight-2 shell is not in the dual code"
    lifted = cover.lift_ball_word(cm, c, 0, 2)
    probe = cayley.sphere(cm.n, cm.domain_generators(), 0b000111)
    overlap = sum(probe.bit(v) for v in lifted.support())
    return (
        overlap == 3,
        f"lift meets the weight-3-centred sphere {overlap} times",
    )


# -- local-sum ---------------------------------------------------------


def suite_local_sum(**_) -> list[CheckItem]:
    return [_run("local-sum/exhaustive-n4-r2", local_sum_exhaustive)]


def local_sum_exhaustive() -> tuple[bool, str]:
    """n = 4 hypercube, ball B(0, 2): a ball-supported word decomposes
    as an in-ball sphere sum exactly when it is a codeword."""
    m = 4
    S = GeneratorSet.canonical(m)
    M = adjacency_matrix(m, S)
    in_ball = cayley.ball_vertices(m, S, 0, 2)

    codewords_checked = 0
    span = list(gf2.gray_span([r for r, _ in gf2.row_basis(M).values()]))
    assert len(span) == 256

    for value in span:
        word = BitVector.from_int(1 << m, value)
        if any(v not in in_ball for v in word.support()):
            continue
        codewords_checked += 1
        t = cover.decompose_as_sphere_sum(m, word, 0, 2)
        if t is None:
            return False, f"codeword {value:#x} failed to decompose"
        acc = BitVector.zeros(1 << m)
        for center in t:
            acc = acc ^ cayley.sphere(m, S, center)
        if acc != word:
            return False, f"decomposition of {value:#x} does not XOR back"

    span_set = set(span)
    non_codewords_rejected = 0
    for value in gf2.gray_span([1 << v for v in sorted(in_ball)]):
        word = BitVector.from_int(1 << m, value)
        t = cover.decompose_as_sphere_sum(m, word, 0, 2)
        if (t is not None) != (value in span_set):
            return False, f"decomposability mismatch at {value:#x}"
        if value not in span_set:
            non_codewords_rejected += 1
    return True, (
        f"{codewords_checked} in-ball codewords decomposed, "
        f"{non_codewords_rejected} non-codewords rejected"
    )


# -- kernel characterization (part of the dimension story) -------------


def kernel_characterize_agreement(
    n_total: int, trials: int, seed: int
) -> tuple[bool, str]:
    """Random words of both classes: the four block conditions hold
    exactly when direct membership in the kernel does."""
    rng = random.Random(seed)
    M = repetition.matrix(n_total)
    level = repetition.matrix(n_total - 2)
    kernel = gf2.kernel_basis(M)
    length = 1 << n_total
    agree = 0
    for _ in range(trials):
        if rng.random() < 0.5:
            value = 0
            for v in kernel:
                if rng.random() < 0.5:
                    value ^= v.to_int()
        else:
            value = rng.getrandbits(length)
        vec = BitVector.from_int(length, value)
        direct = M.mul_vector(vec).is_zero()
        check = repetition.kernel_characterize(
            level, repetition.QuadSplit.split(vec)
        )
        if check.in_kernel != direct:
            return False, f"disagreement on a word of weight {vec.weight}"
        agree += 1
    return True, f"{agree} random words agree"


def run_suite(
    name: str,
    ns: Iterable[int],
    seed: int = 20240901,
    m: Optional[int] = None,
    W: Optional[tuple[int, ...]] = None,
    budget: int = gf2.DEFAULT_ENUMERATION_BUDGET,
) -> list[CheckItem]:
    """Run one named suite.  The suite function is looked up by name at
    call time, so a rebound ``suite_*`` attribute (a tracer, a test
    double) is the one that runs."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    suite = globals()["suite_" + name.replace("-", "_")]
    return suite(ns=list(ns), seed=seed, m=m, W=W, budget=budget)
