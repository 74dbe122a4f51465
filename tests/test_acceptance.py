"""The acceptance gate: every shipped criterion at full trial counts, one line each."""

import dataclasses
import itertools
import types
from fractions import Fraction

import pytest

from liep import acceptance, alcove, bch, charp, heights, rootsys

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


def _crash():
    raise RuntimeError("closure lost")


def _crash_after_two_checks():
    yield True, "first check"
    yield True, "second check"
    raise RuntimeError("closure lost")


@pytest.mark.parametrize("crash", [_crash, _crash_after_two_checks],
                         ids=["before-the-first-check", "after-two-checks"])
def test_a_crashing_criterion_fails_alone_and_the_rest_still_run(monkeypatch, crash):
    monkeypatch.setattr(acceptance, "_criterion_root_counts", crash)
    results = acceptance.run_all(trials=1)
    assert [r.number for r in results] == [n for n, _ in CRITERIA]
    assert not results[1].passed and results[1].details == "raised RuntimeError: closure lost"
    assert all(r.passed for r in results if r.number != 2)


def _shifted(k):
    return lambda f: lambda *args: f(*args) + k


# (criterion, module, public kernel, wrong twin of it, the criterion's first failing label)
WRONG_TWINS = [
    (1, rootsys, "coxeter_via_rho", _shifted(1), "A1: routes disagree (2, 3, 2)"),
    (2, rootsys, "root_height", _shifted(1), "A1: top height 2 != h - 1 = 1"),
    (3, heights, "min_nontrivial_height", _shifted(-1), "F4: minimal height 15 != 16"),
    (4, alcove, "oracle_valid_bases", lambda f: lambda rs, phi: (),
     "A1, phi=[10/11]: constructive choice not among 0 oracle bases"),
    (5, alcove, "mu_pj_restriction",
     lambda f: lambda rs, *args: alcove.PhiHom((Fraction(0),) * rs.rank),
     "restriction gave (0, 0), want (1/3, 1/3)"),
    (6, charp, "trunc_log", lambda f: lambda u: u,
     "p=3: log(exp(x)) != x for ((0, 2, 0), (0, 2, 1), (0, 2, 1))"),
    (7, bch, "max_denominator_prime", lambda f: lambda max_deg: 7,
     "denominator prime 7 would vanish mod 7"),
    (8, charp, "nilpotent_p_power_check", lambda f: lambda m: True,
     "J_4 over F_3: p-nilpotency != (p >= n)"),
    (9, charp, "pgl_nilpotent_lift", lambda f: lambda a: a, "p=3: lift differs from A - det(A) I"),
    (10, charp, "heisenberg_module_check",
     lambda f: lambda p: dataclasses.replace(f(p), spans_full_algebra=False),
     "p=2: spans_full_algebra false"),
    (11, heights, "composite_gl_height", _shifted(1), "standard factor of dimension 1: height != 0"),
]


@pytest.mark.parametrize("number,module,kernel,twin,label", WRONG_TWINS,
                         ids=[f"{n:02d}-{kernel}" for n, _, kernel, _, _ in WRONG_TWINS])
def test_a_wrong_kernel_fails_its_criterion_alone_at_its_first_label(
        monkeypatch, number, module, kernel, twin, label):
    monkeypatch.setattr(module, kernel, twin(getattr(module, kernel)))
    results = {r.number: r for r in acceptance.run_all(trials=1)}
    assert not results[number].passed
    assert results[number].details == label
    assert all(r.passed for n, r in results.items() if n != number)


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
