"""Runnable acceptance checks, shared by the test suite and the CLI self-test.

Each criterion is a generator of (ok, label) pairs, one per check in the order
the checks run, whose last pair is (True, summary).  The driver stops at the
first failing check and reports its label, or the summary when all pass, and
wraps each criterion with timing and an optional wall-clock budget.  Random
criteria derive their generators deterministically from one seed, so a
failure reproduces from the reported seed alone.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from . import alcove, bch, charp, heights, rootsys
from .charp import FpMatrix

__all__ = [
    "CriterionResult",
    "DEFAULT_SEED",
    "run_all",
    "random_strict_upper",
    "random_invertible",
    "random_conjugate",
]

DEFAULT_SEED = 20260815

_ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)

_SMALL_RANK = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]

_Checks = Iterator[tuple[bool, str]]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed_s: float
    budget_s: float | None


def random_strict_upper(rng: random.Random, p: int, n: int) -> FpMatrix:
    rows = [[rng.randrange(p) if c > r else 0 for c in range(n)] for r in range(n)]
    return FpMatrix.from_rows(p, rows)


def random_invertible(rng: random.Random, p: int, n: int) -> FpMatrix:
    while True:
        m = FpMatrix.from_rows(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if charp.det(m) != 0:
            return m


def random_conjugate(rng: random.Random, m: FpMatrix) -> FpMatrix:
    g = random_invertible(rng, m.p, m.n)
    return g * m * charp.inverse(g)


def _criterion_coxeter() -> _Checks:
    for t, n in _ALL_TYPES:
        rs = rootsys.build(t, n)
        a = rootsys.coxeter_via_marks(rs)
        b = rootsys.coxeter_via_rho(rs)
        c = rootsys.coxeter_via_element(rs)
        yield a == b == c, f"{t}{n}: routes disagree ({a}, {b}, {c})"
    for n in range(2, 10):
        yield rootsys.coxeter_via_marks(rootsys.build("A", n - 1)) == n, f"A{n - 1}: Coxeter number != {n}"
    specific = {("F", 4): 12, ("E", 6): 12, ("E", 7): 18, ("E", 8): 30}
    for (t, n), want in specific.items():
        got = rootsys.coxeter_via_marks(rootsys.build(t, n))
        yield got == want, f"{t}{n}: Coxeter number {got} != {want}"
    yield True, f"three routes agree on {len(_ALL_TYPES)} systems; named values match"


def _classical_count(t: str, n: int) -> int:
    if t == "A":
        return n * (n + 1)
    if t in ("B", "C"):
        return 2 * n * n
    if t == "D":
        return 2 * n * (n - 1)
    return {("E", 6): 72, ("E", 7): 126, ("E", 8): 240, ("F", 4): 48, ("G", 2): 12}[(t, n)]


def _criterion_root_counts() -> _Checks:
    for t, n in _ALL_TYPES:
        rs = rootsys.build(t, n)
        want = _classical_count(t, n)
        yield len(rs.roots) == want, f"{t}{n}: {len(rs.roots)} roots != classical {want}"
        h = rootsys.coxeter_via_marks(rs)
        top = max(rootsys.root_height(rs, a) for a in rs.positive_roots)
        yield top == h - 1, f"{t}{n}: top height {top} != h - 1 = {h - 1}"
    yield True, f"closure counts and top heights match on {len(_ALL_TYPES)} systems"


def _criterion_min_heights() -> _Checks:
    named = {("F", 4): 16, ("E", 6): 16, ("E", 7): 27, ("E", 8): 58}
    for (t, n), want in named.items():
        got = heights.min_nontrivial_height(rootsys.build(t, n))
        yield got == want, f"{t}{n}: minimal height {got} != {want}"
    for n in range(1, 9):
        rs = rootsys.build("A", n)
        yield heights.min_nontrivial_height(rs) == n, f"A{n}: minimal height != {n}"
    for t, n in _ALL_TYPES:
        rs = rootsys.build(t, n)
        h = rootsys.coxeter_via_marks(rs)
        yield heights.min_nontrivial_height(rs) >= h - 1, f"{t}{n}: minimal height below h - 1"
    yield True, "named minima, A-type minima, and the h - 1 bound all hold"


def _criterion_window_basis(seed: int, trials: int) -> _Checks:
    for t, n in _SMALL_RANK:
        rs = rootsys.build(t, n)
        rng = random.Random(f"{seed}:basis:{t}{n}")
        for _ in range(trials):
            values = []
            for _ in range(n):
                den = rng.randint(1, 60)
                values.append(Fraction(rng.randrange(den), den))
            phi = alcove.PhiHom(tuple(values))
            chosen = alcove.window_basis(rs, phi)
            where = f"{t}{n}, phi=[{', '.join(map(str, values))}]"
            for a in alcove.critical_roots(rs, phi):
                yield chosen.is_positive(rs, a), f"{where}: critical {a.coords} negative"
            valid = alcove.oracle_valid_bases(rs, phi)
            yield (any(alcove.same_basis(rs, chosen, b) for b in valid),
                   f"{where}: constructive choice not among {len(valid)} oracle bases")
    yield True, (f"{len(_SMALL_RANK) * trials} random homomorphisms: "
                 "constructive basis always valid and oracle-confirmed")


def _criterion_boundary() -> _Checks:
    rs = rootsys.build("A", 2)
    phi = alcove.mu_pj_restriction(rs, (3, 3), 3, 2)
    third = Fraction(1, 3)
    yield (phi.values == (third, third),
           f"restriction gave ({', '.join(map(str, phi.values))}), want (1/3, 1/3)")
    yield third == Fraction(1, rs.coxeter_number), "1/3 is not 1/h for A2"
    yield not alcove.critical_roots(rs, phi), "boundary homomorphism has critical roots; window must be open"
    edge = {a.coords for a in alcove.boundary_roots(rs, phi)}
    yield (edge == {(1, 0), (0, 1), (-1, -1)},
           f"boundary roots {sorted(edge)} != simple roots and minus the highest root")
    for p in (3, 5, 7):
        rep = charp.weight_space_demo(p)
        want = FpMatrix.identity(p, p).scale(rep.witness_power_scalar)
        yield (not rep.witness_is_nilpotent and rep.witness ** p == want,
               f"p={p}: witness power identity failed")
    yield True, "1/h boundary is exact and non-critical; cycle witnesses verified for p in {3,5,7}"


def _criterion_calculus(seed: int, trials: int) -> _Checks:
    for p in (3, 5, 7):
        rng = random.Random(f"{seed}:calculus:{p}")
        table = charp.bch_table(p, p - 1)
        for _ in range(trials):
            n = rng.randint(1, p)
            x = random_conjugate(rng, random_strict_upper(rng, p, n))
            u = charp.trunc_exp(x)
            logu = charp.trunc_log(u)
            yield logu == x, f"p={p}: log(exp(x)) != x for {x.rows}"
            powers = [charp.t_power(u, t) for t in range(p)]
            for t in range(p):
                for s in range(p):
                    yield powers[t] * powers[s] == powers[(t + s) % p], f"p={p}: u^{t} u^{s} != u^{t + s}"
            for t in range(p):
                yield charp.trunc_exp(logu.scale(t)) == powers[t], f"p={p}: exp({t} log u) != u^{t}"
            g = random_invertible(rng, p, n)
            ginv = charp.inverse(g)
            yield charp.trunc_exp(g * x * ginv) == g * u * ginv, f"p={p}: conjugation equivariance failed"
            if n >= 2:
                a = random_strict_upper(rng, p, n)
                b = random_strict_upper(rng, p, n)
                z = charp.bch_apply(table, a, b)
                yield (charp.trunc_exp(z) == charp.trunc_exp(a) * charp.trunc_exp(b),
                       f"p={p}: exp(bch) != exp exp for {a.rows}, {b.rows}")
    yield True, f"{3 * trials} seeded instances: round trips, power laws, equivariance, group law"


def _criterion_bch_table() -> _Checks:
    terms = bch.bracket_terms(6)
    assoc = bch.associative_terms(6)
    for d in range(1, 7):
        expanded: dict = {}
        for word, coeff in terms:
            if len(word) != d:
                continue
            for aw, ac in bch.expand_bracket(word):
                v = expanded.get(aw, Fraction(0)) + coeff * ac
                if v:
                    expanded[aw] = v
                else:
                    expanded.pop(aw, None)
        yield expanded == assoc[d], f"degree {d}: bracket expansion disagrees with associative series"
    by_deg: dict[int, dict] = {}
    for word, coeff in terms:
        by_deg.setdefault(len(word), {})[word] = coeff
    yield by_deg[2] == {(0, 1): Fraction(1, 2)}, f"degree 2 is {by_deg[2]}, want (1/2) [X,Y]"
    # 1/12 [X,[X,Y]] + 1/12 [Y,[Y,X]] in left-nested form
    want3 = {(0, 1, 0): Fraction(-1, 12), (0, 1, 1): Fraction(1, 12)}
    yield by_deg[3] == want3, f"degree 3 is {by_deg[3]}, want {want3}"
    worst = bch.max_denominator_prime(6)
    yield worst < 7, f"denominator prime {worst} would vanish mod 7"
    yield True, "degrees 1..6 match the associative oracle; named low-degree terms exact"


def _criterion_p_nilpotency() -> _Checks:
    for p in (3, 5, 7):
        for n in range(1, 10):
            jordan = FpMatrix.from_rows(
                p, [[int(c == r + 1) for c in range(n)] for r in range(n)]
            )
            yield (charp.nilpotent_p_power_check(jordan) == (p >= n),
                   f"J_{n} over F_{p}: p-nilpotency != (p >= n)")
    yield True, "regular nilpotent is p-nilpotent exactly when p >= n, for n <= 9, p in {3,5,7}"


def _criterion_scalar_shift_lift(seed: int, trials: int) -> _Checks:
    for p in (3, 5):
        rng = random.Random(f"{seed}:lift:{p}")
        for _ in range(trials):
            d = rng.randrange(p)
            if rng.random() < 0.5:
                rows = [[0] * p for _ in range(p)]
                for r in range(1, p):
                    rows[r][r - 1] = 1
                rows[0][p - 1] = d
                base = FpMatrix.from_rows(p, rows)  # companion of T^p - d
            else:
                nil = random_strict_upper(rng, p, p)
                base = nil + FpMatrix.identity(p, p).scale(d)  # char poly (T - d)^p
            a = random_conjugate(rng, base)
            lifted = charp.pgl_nilpotent_lift(a)
            expected = a - FpMatrix.identity(p, p).scale(charp.det(a))
            yield lifted == expected, f"p={p}: lift differs from A - det(A) I"
            yield (lifted ** p).is_zero(), f"p={p}: lift is not nilpotent"
    yield True, f"{2 * trials} seeded matrices: scalar shift by det is nilpotent"


def _criterion_heisenberg() -> _Checks:
    for p in (2, 3, 5, 7):
        rep = charp.heisenberg_module_check(p)
        false = [f for f in ("shift_order_ok", "commutator_ok", "spans_full_algebra") if not getattr(rep, f)]
        yield not false, f"p={p}: {', '.join(false)} false"
    yield True, "pair generates the full matrix algebra for p in {2,3,5,7}"


# (d, m, height m(d-m), prime below or at the bound, prime above), all hand-checked
_GL_TUPLES = (
    (2, 1, 1, None, 2),
    (3, 1, 2, 2, 3),
    (4, 2, 4, 3, 5),
    (5, 2, 6, 5, 7),
    (6, 1, 5, 5, 7),
    (6, 3, 9, 7, 11),
    (7, 3, 12, 11, 13),
    (8, 2, 12, 11, 13),
    (9, 4, 20, 19, 23),
    (10, 5, 25, 23, 29),
)


def _criterion_gl_heights() -> _Checks:
    for d in range(1, 11):
        yield (heights.composite_gl_height((d,), (1,)) == d - 1,
               f"standard factor of dimension {d}: height != {d - 1}")
    for d, m, want, p_low, p_high in _GL_TUPLES:
        got = heights.composite_gl_height((d,), (m,))
        yield got == want, f"(d,m)=({d},{m}): height {got} != {want}"
        rs = rootsys.build("A", d - 1)
        dyn = heights.dynkin_height(rs, rootsys.fundamental_weight(rs, m)).height
        yield dyn == want, f"(d,m)=({d},{m}): wedge height {want} != A-type height {dyn}"
        yield (p_low is None or not heights.semisimplicity_bound_ok((d,), (m,), p_low),
               f"(d,m)=({d},{m}): bound wrongly passes at p={p_low}")
        yield (heights.semisimplicity_bound_ok((d,), (m,), p_high),
               f"(d,m)=({d},{m}): bound wrongly fails at p={p_high}")
    multi = heights.composite_gl_height((4, 3), (2, 1))
    yield multi == 6, f"two-factor example: {multi} != 6"
    yield True, "ten wedge tuples match m(d - m) and A-type heights; bound predicate sharp"


def run_all(seed: int = DEFAULT_SEED, trials: int | None = None) -> list[CriterionResult]:
    """Run every acceptance criterion; never raises, failures are reported.

    ``trials`` sets the random criteria 4, 6 and 9 to one count each; ``None`` keeps
    their full counts of 1000, 500 and 100.
    """
    phi_trials, calc_trials, lift_trials = (1000, 500, 100) if trials is None else (trials,) * 3
    plan = [
        (1, "coxeter-three-routes", 5.0, _criterion_coxeter),
        (2, "root-counts-and-top-height", 10.0, _criterion_root_counts),
        (3, "minimal-heights", None, _criterion_min_heights),
        (4, "window-basis-vs-oracle", 60.0, lambda: _criterion_window_basis(seed, phi_trials)),
        (5, "boundary-sharpness", None, _criterion_boundary),
        (6, "exponential-calculus-laws", 60.0, lambda: _criterion_calculus(seed, calc_trials)),
        (7, "bch-coefficients", None, _criterion_bch_table),
        (8, "p-nilpotency-sharpness", None, _criterion_p_nilpotency),
        (9, "scalar-shift-lift", None, lambda: _criterion_scalar_shift_lift(seed, lift_trials)),
        (10, "heisenberg-spanning", 5.0, _criterion_heisenberg),
        (11, "composite-gl-heights", None, _criterion_gl_heights),
    ]
    results = []
    for number, name, budget, fn in plan:
        t0 = time.perf_counter()
        try:
            for ok, details in fn():
                if not ok:
                    break
        except Exception as exc:  # a crash is a failure, not an abort
            ok, details = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if ok and budget is not None and elapsed >= budget:
            ok = False
            details += f"; took {elapsed:.1f}s, budget {budget:.0f}s"
        results.append(CriterionResult(number, name, ok, details, elapsed, budget))
    return results
