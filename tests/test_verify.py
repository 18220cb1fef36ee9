"""Suite plumbing: every named suite runs and reports well-formed items."""

import json
import random
import re

import numpy as np
import pytest

from cayleycss import cayley, cli, css, gf2, repetition, verify
from cayleycss.gf2 import BitMatrix


def test_unknown_suite():
    with pytest.raises(ValueError):
        verify.run_suite("nope", [3])


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_each_suite_passes_at_small_sizes(name):
    items = verify.run_suite(name, [3, 4, 5], seed=1)
    assert items, f"suite {name} produced no checks"
    for item in items:
        assert item.ok, f"{item.name}: {item.detail}"
        d = item.as_dict()
        assert d["status"] == "pass"
        assert d["elapsed_s"] >= 0


def test_run_suite_finds_rebound_suites(monkeypatch):
    # The benchmark tracer rebinds module attributes; dispatch must see it.
    item = verify.CheckItem("recursion/stub", True, 0.0)
    monkeypatch.setattr(verify, "suite_recursion", lambda *_, **__: [item])
    assert verify.run_suite("recursion", [3]) == [item]


def test_checks_report_failures_not_exceptions():
    # a crash inside a check is captured as a failed item
    item = verify._run("boom", lambda: 1 / 0)
    assert not item.ok
    assert "ZeroDivisionError" in item.detail


def test_three_way_agreement_helper():
    agree = verify.three_way_agreement(3, [(1, 2, 4, 7), (1, 2, 4, 6)])
    assert agree.tolist() == [True, True]
    assert verify.three_way_agreement(3, [(3, 5)]).tolist() == [True]
    assert verify.three_way_agreement(3, [(3, 5, 6)]).tolist() == [True]


@pytest.mark.parametrize("owner, oracle, set_axes", [
    (verify, "check_self_orthogonal_combinatorial", 1),
    (verify, "_rows_self_orthogonal", 2),
    (cayley, "algebra_nilpotency_check_f2", 1),
], ids=["pair-count", "matrix", "group-algebra"])
def test_exhaustive_check_fails_when_an_oracle_always_says_true(
    monkeypatch, owner, oracle, set_axes
):
    # Each oracle gives one verdict per set of its batch (its last
    # set_axes axes describe one set).  The odd-size sets are where an
    # oracle stuck at True disagrees with the other two.
    def stuck(*args):
        return np.ones(np.shape(args[-1])[:-set_axes], dtype=bool)

    monkeypatch.setattr(owner, oracle, stuck)
    items = {c.name: c for c in verify.run_suite("algebra", [])}
    item = items["algebra/exhaustive-m3"]
    assert not item.ok
    # 64 of the 127 nonempty subsets of F_2^3 minus 0 have odd size.
    assert item.detail == "64 disagreements"


def test_random_check_names_the_first_disagreement_in_draw_order(
    monkeypatch
):
    # Sets are checked grouped by size; the report still names the first
    # disagreeing set in the order the generator drew them.
    honest = verify.three_way_agreement

    def disagree_on_1(m, sets):
        return honest(m, sets) & np.array([1 not in S for S in sets])

    monkeypatch.setattr(verify, "three_way_agreement", disagree_on_1)
    items = {c.name: c for c in verify.run_suite("algebra", [], seed=1)}
    rng = random.Random(1)
    draws = []
    for _ in range(100):
        size = 2 * rng.randint(1, 8)
        draws.append(tuple(rng.sample(range(1, 32), size)))
    first = next(S for S in draws if 1 in S)
    assert len(first) > min(len(S) for S in draws if 1 in S)
    assert items["algebra/random-m5"].detail == (
        f"disagreement at S = {first}"
    )


def test_reversal_involution_checks_compute_the_product(monkeypatch):
    # A cyclic shift P is an involution only on two points; the verdicts
    # must follow the dense product P . P.
    def shift(size):
        i = np.arange(size)
        return BitMatrix.from_nonzero(size, size, i, (i + 1) % size)

    monkeypatch.setattr(repetition, "reversal_matrix", shift)
    items = verify.run_suite("recursion", [3])
    verdicts = {c.name: c.ok for c in items}
    for s in (2, 8, 64, 1024):
        # float64 matmul goes through BLAS and is exact for 0/1 entries
        # at these sizes; int64 matmul has no BLAS path.
        P = shift(s).to_dense().astype(np.float64)
        want = bool(np.array_equal(P @ P % 2, np.eye(s)))
        assert verdicts[f"recursion/reversal-involution-{s}"] == want
    assert not verdicts["recursion/reversal-involution-8"]
    assert verdicts["recursion/reversal-involution-2"]


PAPER_CHECKS = {
    "recursion/image-parametrization-n5": 5,
    "recursion/image-parametrization-n7": 7,
    "recursion/normal-form-n5": 5,
    "recursion/normal-form-n7": 7,
    "distance/lower-bound-n9": 9,
    "distance/lower-bound-n11": 11,
    "distance/lower-bound-n13": 13,
}


def paper_checks(ns):
    items = verify.run_suite("recursion", ns) + verify.run_suite("distance", ns)
    return {c.name: c for c in items if c.name in PAPER_CHECKS}


def test_paper_checks_pass_over_3_to_13():
    found = paper_checks(range(3, 14))
    assert set(found) == set(PAPER_CHECKS)
    for item in found.values():
        assert item.ok, f"{item.name}: {item.detail}"


def test_paper_checks_run_only_at_their_sizes():
    assert paper_checks([3, 4, 6, 8, 10, 12]) == {}
    found = paper_checks([5, 9])
    assert set(found) == {
        name for name, n in PAPER_CHECKS.items() if n in (5, 9)
    }


def test_image_parametrization_catches_a_dropped_cross_term(monkeypatch):
    honest = repetition.image_element

    def dropped(M, a1, a2, a3, a4):
        # The first block loses its a2 + a3 cross term.
        word = repetition.QuadSplit.split(honest(M, a1, a2, a3, a4))
        first = word.parts[0] ^ a2 ^ a3
        return repetition.QuadSplit((first, *word.parts[1:])).join()

    monkeypatch.setattr(repetition, "image_element", dropped)
    (item,) = [c for c in verify.run_suite("recursion", [5])
               if c.name == "recursion/image-parametrization-n5"]
    assert not item.ok


@pytest.mark.parametrize("check", [
    lambda: verify.image_parametrization(7),
    lambda: verify.normal_forms(7, 16, 20240901),
    lambda: verify.kernel_characterize_agreement(7, 200, 20240901),
], ids=["image-parametrization", "normal-form", "characterize"])
def test_level_checks_build_each_tower_level_once(monkeypatch, check):
    # The per-word helpers take the level matrices, so a check builds
    # (and eliminates) levels 5 and 7 once, not once per word.
    built = []
    real = cayley._build_adjacency

    def spy(m, S):
        built.append(m)
        return real(m, S)
    monkeypatch.setattr(cayley, "_build_adjacency", spy)
    ok, detail = check()
    assert ok, detail
    assert sorted(built) == [5, 7]


def test_normal_form_check_reduces_kernel_words(monkeypatch):
    # The seeded (s, 0, 0, s) and (0, s, s, 0) words run the reduction of
    # words outside the image; random kernel words rarely reach it.  The
    # lifted words, d2 = 0 and d1 a nonzero row-space word, take it
    # through a nonzero preimage of d1.
    reduce_word, solve = (repetition.representative_normal_form,
                          gf2.solve_preimage)
    rhs = []
    lifted = []

    def traced_reduce(big, M, c):
        c1, c2, c3, c4 = repetition.QuadSplit.split(c).parts
        d1, d2 = c4 ^ c1, c3 ^ c2
        rhs.clear()
        nf = reduce_word(big, M, c)
        if d2.is_zero() and not d1.is_zero() and gf2.in_row_space(M, d1):
            lifted.append((nf.reduced, d1 in rhs))
        return nf

    def traced_solve(M, b):
        rhs.append(b)
        return solve(M, b)

    monkeypatch.setattr(repetition, "representative_normal_form",
                        traced_reduce)
    monkeypatch.setattr(gf2, "solve_preimage", traced_solve)
    items = [c for c in verify.run_suite("recursion", [5, 7])
             if c.name.startswith("recursion/normal-form-")]
    assert len(items) == 2
    for item in items:
        assert item.ok, f"{item.name}: {item.detail}"
        count = int(re.search(
            r"(\d+) lifted words with d1 a nonzero row-space word reduced",
            item.detail,
        ).group(1))
        assert count == 16
        reduced, total = map(int, re.search(
            r"(\d+) of (\d+) kernel words reduced", item.detail
        ).groups())
        assert 0 < reduced <= total
    assert len(lifted) >= 2 * 16
    assert all(reduced and solved for reduced, solved in lifted)


def test_lower_bound_check_fails_above_the_witness(monkeypatch):
    weight = repetition.min_weight_witness(9).weight
    monkeypatch.setattr(
        css, "distance_lower_bound_theorem", lambda n, d: weight + 1
    )
    (item,) = [c for c in verify.run_suite("distance", [9])
               if c.name == "distance/lower-bound-n9"]
    assert not item.ok


def test_distance_checks_above_n5_build_no_matrix(monkeypatch):
    # The witness is certified and the ball weights counted on the graph
    # itself, so past the exact range no check builds M or the halved U.
    built = []
    for name in ("_build_adjacency", "_build_halved"):
        def spy(m, S, name=name, real=getattr(cayley, name)):
            built.append((name, m))
            return real(m, S)
        monkeypatch.setattr(cayley, name, spy)
    items = verify.run_suite("distance", [7, 9, 11, 13])
    assert len(items) == 7
    assert all(item.ok for item in items), [i.detail for i in items]
    assert built == []


# The check names of ``verify --suite all --n 3..13``; a check that
# silently drops out of the scoreboard fails here.
ALL_CHECKS_3_TO_13 = sorted(
    [f"algebra/exhaustive-m{m}" for m in (2, 3, 4)]
    + [f"algebra/random-m{m}" for m in (5, 6)]
    + [f"algebra/torus-n{n}" for n in (2, 3, 4)]
    + [f"bipartite/halved-block-n{n}" for n in (3, 5, 7, 9, 11, 13)]
    + [f"bipartite/halved-params-n{n}" for n in (3, 5)]
    + [f"conjugation/n{n}" for n in (3, 5, 7, 9)]
    + ["cover/ball-isomorphism", "cover/collision-beyond-radius",
       "cover/fibers", "cover/non-liftable-word"]
    + [f"dimension/characterize-n{n}" for n in (5, 7)]
    + [f"dimension/kernel-n{n}" for n in (3, 5, 7, 9, 11, 13)]
    + [f"dimension/recursive-basis-n{n}" for n in (5, 7, 9)]
    + [f"distance/exact-n{n}" for n in (3, 5)]
    + [f"distance/lower-bound-n{n}" for n in (9, 11, 13)]
    + [f"distance/witness-n{n}" for n in (7, 9, 11, 13)]
    + ["local-sum/exhaustive-n4-r2"]
    + [f"recursion/block-assembly-n{n}" for n in range(4, 12)]
    + [f"recursion/image-parametrization-n{n}" for n in (5, 7)]
    + [f"recursion/normal-form-n{n}" for n in (5, 7)]
    + [f"recursion/reversal-involution-{s}" for s in (2, 8, 64, 1024)]
)


def test_verify_all_check_names_are_pinned(monkeypatch, tmp_path):
    # Record each check without running it, so the guard stays fast.
    monkeypatch.setattr(
        verify, "_run", lambda name, fn: verify.CheckItem(name, True, 0.0)
    )
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--suite", "all", "--n", "3..13",
                     "--out", str(out)])
    assert code == 0
    names = [c["name"] for c in json.loads(out.read_text())["checks"]]
    assert len(ALL_CHECKS_3_TO_13) == 61
    assert names == ALL_CHECKS_3_TO_13


def test_sized_suites_table_matches_the_suites(monkeypatch):
    # Record each check without running it, over every size verify takes.
    monkeypatch.setattr(
        verify, "_run", lambda name, fn: verify.CheckItem(name, True, 0.0)
    )
    sized = {}
    for name in verify.SUITE_NAMES:
        covered = {c.n for c in verify.run_suite(name, range(3, 17))}
        covered.discard(None)
        if covered:
            sized[name] = any(n % 2 == 0 for n in covered)
    assert sized == verify.SIZED_SUITES


def test_size_free_suites_name_no_skipped_size():
    items = verify.run_suite("local-sum", [12, 13])
    assert verify.skipped_sizes("local-sum", items, [12, 13]) == []
    items = verify.run_suite("recursion", [12, 13])
    assert verify.skipped_sizes("recursion", items, [12, 13]) == [12, 13]


@pytest.mark.parametrize("n", [5, 11])
def test_halved_block_check_catches_a_broken_block(monkeypatch, n):
    honest = repetition.halved

    def flipped(n):
        # One entry moved off U's symmetric pattern.
        U = honest(n)
        words = U.words.copy()
        words[0, 0] ^= np.uint64(2)
        return BitMatrix(U.rows, U.cols, words)
    monkeypatch.setattr(repetition, "halved", flipped)
    ok, detail = verify.halved_block(n)
    assert not ok and detail == "M is not the lift of U"


def _toggled(U, *entries):
    dense = U.to_dense()
    for i, j in entries:
        dense[i, j] ^= 1
    return BitMatrix.from_dense(dense)


# U[0, 0] is an edge (e_0 + o_0 = 1); U[0, 3] is not (e_0 + o_3 = 7 has
# weight 3, every generator weight 1 or n).  Dropping the diagonal edge
# keeps U symmetric, so only the edge count sees it.
@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("change, entries", [
    ("edge dropped", [(0, 0)]),
    ("symmetric pair added", [(0, 3), (3, 0)]),
    ("made asymmetric by an added edge", [(0, 3)]),
])
def test_halved_block_check_refuses_a_changed_block(monkeypatch, n, change,
                                                   entries):
    broken = _toggled(repetition.halved(n), *entries)
    assert broken != repetition.halved(n)
    monkeypatch.setattr(repetition, "halved", lambda n: broken)
    ok, detail = verify.halved_block(n)
    assert not ok and detail == "M is not the lift of U", change


def test_halved_block_check_refuses_an_asymmetric_lift(monkeypatch):
    # The first two odd vertices swapped: U built on that order is still
    # every edge of the graph, but no longer equal to its transpose.
    n = 5
    evens, odds = cayley.class_vertices(n)
    odds = odds[[1, 0, *range(2, len(odds))]]
    S = np.array(repetition.generators(n).elements)
    rr, cc = np.nonzero(np.isin(evens[:, None] ^ odds[None, :], S))
    U = BitMatrix.from_nonzero(len(evens), len(odds), rr, cc)
    monkeypatch.setattr(cayley, "class_vertices", lambda m: (evens, odds))
    monkeypatch.setattr(repetition, "halved", lambda n: U)
    assert verify.halved_block(n) == (False, "U != U^T")


@pytest.mark.parametrize("n", [5, 13])
def test_halved_block_check_never_builds_the_tower_matrix(monkeypatch, n):
    def refuse(*args):
        raise AssertionError("adjacency matrix built")
    monkeypatch.setattr(repetition, "adjacency_matrix", refuse)
    monkeypatch.setattr(cayley, "adjacency_matrix", refuse)
    ok, detail = verify.halved_block(n)
    assert ok, detail
