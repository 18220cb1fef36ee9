"""Suite plumbing: every named suite runs and reports well-formed items."""

import numpy as np
import pytest

from cayleycss import repetition, verify
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
    from cayleycss.cayley import GeneratorSet

    assert verify.three_way_agreement(3, GeneratorSet(3, (1, 2, 4, 7)))
    assert verify.three_way_agreement(3, GeneratorSet(3, (3, 5)))


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
