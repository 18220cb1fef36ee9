"""Suite plumbing: every named suite runs and reports well-formed items."""

import pytest

from cayleycss import verify


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
