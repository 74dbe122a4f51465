"""The acceptance gate: every shipped criterion at full trial counts, one line each."""

import itertools
import types

import pytest

from liep import acceptance

CRITERIA = [
    (1, "coxeter-three-routes"),
    (2, "root-counts-and-top-height"),
    (3, "minimal-heights"),
    (4, "window-basis-vs-oracle"),
    (5, "boundary-sharpness"),
    (6, "exponential-calculus-laws"),
    (7, "bch-coefficients"),
    (8, "p-nilpotency-sharpness"),
    (9, "scalar-shift-lift"),
    (10, "heisenberg-spanning"),
    (11, "composite-gl-heights"),
]


@pytest.fixture(scope="module")
def results():
    by_number = {r.number: r for r in acceptance.run_all()}
    assert sorted(by_number) == [n for n, _ in CRITERIA]
    return by_number


@pytest.mark.parametrize("number,name", CRITERIA, ids=[f"{n:02d}-{name}" for n, name in CRITERIA])
def test_criterion(results, number, name):
    r = results[number]
    status = "PASS" if r.passed else "FAIL"
    print(f"{status} criterion {r.number}: {r.name} ({r.details})")
    assert r.name == name
    assert r.passed, f"criterion {number} ({name}): {r.details}"
    if r.budget_s is not None:
        assert r.elapsed_s < r.budget_s, f"criterion {number} over budget: {r.elapsed_s:.1f}s"


def test_a_crashing_criterion_fails_alone_and_the_rest_still_run(monkeypatch):
    def crash():
        raise RuntimeError("closure lost")

    monkeypatch.setattr(acceptance, "_criterion_root_counts", crash)
    results = acceptance.run_all(trials=1)
    assert [r.number for r in results] == [n for n, _ in CRITERIA]
    assert not results[1].passed and results[1].details == "raised RuntimeError: closure lost"
    assert all(r.passed for r in results if r.number != 2)


def test_a_criterion_over_its_budget_fails_with_its_time(monkeypatch):
    # every criterion takes 6 s on this clock: past the 5 s budgets of 1 and 10 only
    clock = itertools.count(0.0, 6.0)
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    results = {r.number: r for r in acceptance.run_all(trials=1)}
    for number in (1, 10):
        assert not results[number].passed
        assert results[number].details.endswith("; took 6.0s, budget 5s")
        assert results[number].elapsed_s == 6.0
    assert all(r.passed for n, r in results.items() if n not in (1, 10))
