"""Runnable acceptance checks, shared by the test suite and the CLI self-test.

Each criterion is a self-contained function returning (ok, details); the
driver wraps it with timing and an optional wall-clock budget.  Random
criteria derive their generators deterministically from one seed, so a
failure reproduces from the reported seed alone.
"""

from __future__ import annotations

import random
import time
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


def _criterion_coxeter() -> tuple[bool, str]:
    for t, n in _ALL_TYPES:
        rs = rootsys.build(t, n)
        a = rootsys.coxeter_via_marks(rs)
        b = rootsys.coxeter_via_rho(rs)
        c = rootsys.coxeter_via_element(rs)
        if not a == b == c:
            return False, f"{t}{n}: routes disagree ({a}, {b}, {c})"
    for n in range(2, 10):
        if rootsys.coxeter_via_marks(rootsys.build("A", n - 1)) != n:
            return False, f"A{n - 1}: Coxeter number != {n}"
    specific = {("F", 4): 12, ("E", 6): 12, ("E", 7): 18, ("E", 8): 30}
    for (t, n), want in specific.items():
        got = rootsys.coxeter_via_marks(rootsys.build(t, n))
        if got != want:
            return False, f"{t}{n}: Coxeter number {got} != {want}"
    return True, f"three routes agree on {len(_ALL_TYPES)} systems; named values match"


def _classical_count(t: str, n: int) -> int:
    if t == "A":
        return n * (n + 1)
    if t in ("B", "C"):
        return 2 * n * n
    if t == "D":
        return 2 * n * (n - 1)
    return {("E", 6): 72, ("E", 7): 126, ("E", 8): 240, ("F", 4): 48, ("G", 2): 12}[(t, n)]


def _criterion_root_counts() -> tuple[bool, str]:
    for t, n in _ALL_TYPES:
        rs = rootsys.build(t, n)
        want = _classical_count(t, n)
        if len(rs.roots) != want:
            return False, f"{t}{n}: {len(rs.roots)} roots != classical {want}"
        h = rootsys.coxeter_via_marks(rs)
        top = max(rootsys.root_height(rs, a) for a in rs.positive_roots)
        if top != h - 1:
            return False, f"{t}{n}: top height {top} != h - 1 = {h - 1}"
    return True, f"closure counts and top heights match on {len(_ALL_TYPES)} systems"


def _criterion_min_heights() -> tuple[bool, str]:
    named = {("F", 4): 16, ("E", 6): 16, ("E", 7): 27, ("E", 8): 58}
    for (t, n), want in named.items():
        got = heights.min_nontrivial_height(rootsys.build(t, n))
        if got != want:
            return False, f"{t}{n}: minimal height {got} != {want}"
    for n in range(1, 9):
        rs = rootsys.build("A", n)
        if heights.min_nontrivial_height(rs) != n:
            return False, f"A{n}: minimal height != {n}"
    for t, n in _ALL_TYPES:
        rs = rootsys.build(t, n)
        h = rootsys.coxeter_via_marks(rs)
        if heights.min_nontrivial_height(rs) < h - 1:
            return False, f"{t}{n}: minimal height below h - 1"
    return True, "named minima, A-type minima, and the h - 1 bound all hold"


def _criterion_window_basis(seed: int, trials: int) -> tuple[bool, str]:
    total = 0
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
            for a in alcove.critical_roots(rs, phi):
                if not chosen.is_positive(rs, a):
                    return False, f"{t}{n}, phi={values}: critical {a.coords} negative"
            valid = alcove.oracle_valid_bases(rs, phi)
            if not any(alcove.same_basis(rs, chosen, b) for b in valid):
                return False, f"{t}{n}, phi={values}: constructive choice not among {len(valid)} oracle bases"
            total += 1
    return True, f"{total} random homomorphisms: constructive basis always valid and oracle-confirmed"


def _criterion_boundary() -> tuple[bool, str]:
    rs = rootsys.build("A", 2)
    phi = alcove.mu_pj_restriction(rs, (3, 3), 3, 2)
    third = Fraction(1, 3)
    if phi.values != (third, third):
        return False, f"restriction gave {phi.values}, want (1/3, 1/3)"
    if third != Fraction(1, rs.coxeter_number):
        return False, "1/3 is not 1/h for A2"
    if alcove.critical_roots(rs, phi):
        return False, "boundary homomorphism has critical roots; window must be open"
    edge = {a.coords for a in alcove.boundary_roots(rs, phi)}
    if edge != {(1, 0), (0, 1), (-1, -1)}:
        return False, f"boundary roots {sorted(edge)} != simple roots and minus the highest root"
    for p in (3, 5, 7):
        rep = charp.weight_space_demo(p)
        want = FpMatrix.identity(p, p).scale(rep.witness_power_scalar)
        if rep.witness_is_nilpotent or (rep.witness ** p) != want:
            return False, f"p={p}: witness power identity failed"
        if not rep.alpha_carries_cycle or rep.total_dim != p * p - 1:
            return False, f"p={p}: weight grading malformed"
    return True, "1/h boundary is exact and non-critical; cycle witnesses verified for p in {3,5,7}"


def _criterion_calculus(seed: int, trials: int) -> tuple[bool, str]:
    checks = 0
    for p in (3, 5, 7):
        rng = random.Random(f"{seed}:calculus:{p}")
        table = charp.bch_table(p, p - 1)
        for _ in range(trials):
            n = rng.randint(1, p)
            x = random_conjugate(rng, random_strict_upper(rng, p, n))
            u = charp.trunc_exp(x)
            logu = charp.trunc_log(u)
            if logu != x:
                return False, f"p={p}: log(exp(x)) != x for {x.rows}"
            powers = [charp.t_power(u, t) for t in range(p)]
            for t in range(p):
                for s in range(p):
                    if powers[t] * powers[s] != powers[(t + s) % p]:
                        return False, f"p={p}: u^{t} u^{s} != u^{t + s}"
            for t in range(p):
                if charp.trunc_exp(logu.scale(t)) != powers[t]:
                    return False, f"p={p}: exp({t} log u) != u^{t}"
            g = random_invertible(rng, p, n)
            ginv = charp.inverse(g)
            if charp.trunc_exp(g * x * ginv) != g * u * ginv:
                return False, f"p={p}: conjugation equivariance failed"
            if n >= 2:
                a = random_strict_upper(rng, p, n)
                b = random_strict_upper(rng, p, n)
                z = charp.bch_apply(table, a, b)
                if charp.trunc_exp(z) != charp.trunc_exp(a) * charp.trunc_exp(b):
                    return False, f"p={p}: exp(bch) != exp exp for {a.rows}, {b.rows}"
            checks += 1
    return True, f"{checks} seeded instances: round trips, power laws, equivariance, group law"


def _criterion_bch_table() -> tuple[bool, str]:
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
        if expanded != assoc[d]:
            return False, f"degree {d}: bracket expansion disagrees with associative series"
    by_deg: dict[int, dict] = {}
    for word, coeff in terms:
        by_deg.setdefault(len(word), {})[word] = coeff
    if by_deg[2] != {(0, 1): Fraction(1, 2)}:
        return False, f"degree 2 is {by_deg[2]}, want (1/2) [X,Y]"
    # 1/12 [X,[X,Y]] + 1/12 [Y,[Y,X]] in left-nested form
    want3 = {(0, 1, 0): Fraction(-1, 12), (0, 1, 1): Fraction(1, 12)}
    if by_deg[3] != want3:
        return False, f"degree 3 is {by_deg[3]}, want {want3}"
    worst = bch.max_denominator_prime(6)
    if worst >= 7:
        return False, f"denominator prime {worst} would vanish mod 7"
    return True, "degrees 1..6 match the associative oracle; named low-degree terms exact"


def _criterion_p_nilpotency() -> tuple[bool, str]:
    for p in (3, 5, 7):
        for n in range(1, 10):
            jordan = FpMatrix.from_rows(
                p, [[int(c == r + 1) for c in range(n)] for r in range(n)]
            )
            if charp.nilpotent_p_power_check(jordan) != (p >= n):
                return False, f"J_{n} over F_{p}: p-nilpotency != (p >= n)"
    return True, "regular nilpotent is p-nilpotent exactly when p >= n, for n <= 9, p in {3,5,7}"


def _criterion_scalar_shift_lift(seed: int, trials: int) -> tuple[bool, str]:
    done = 0
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
            if lifted != expected:
                return False, f"p={p}: lift differs from A - det(A) I"
            if not (lifted ** p).is_zero():
                return False, f"p={p}: lift is not nilpotent"
            done += 1
    return True, f"{done} seeded matrices: scalar shift by det is nilpotent"


def _criterion_heisenberg() -> tuple[bool, str]:
    for p in (2, 3, 5, 7):
        rep = charp.heisenberg_module_check(p)
        if not (rep.shift_order_ok and rep.commutator_ok and rep.spans_full_algebra):
            return False, f"p={p}: {rep}"
        if rep.span_dimension != p * p:
            return False, f"p={p}: span {rep.span_dimension} != {p * p}"
    return True, "pair generates the full matrix algebra for p in {2,3,5,7}"


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


def _criterion_gl_heights() -> tuple[bool, str]:
    for d in range(1, 11):
        if heights.composite_gl_height((d,), (1,)) != d - 1:
            return False, f"standard factor of dimension {d}: height != {d - 1}"
    for d, m, want, p_low, p_high in _GL_TUPLES:
        got = heights.composite_gl_height((d,), (m,))
        if got != want:
            return False, f"(d,m)=({d},{m}): height {got} != {want}"
        rs = rootsys.build("A", d - 1)
        dyn = heights.dynkin_height(rs, rootsys.fundamental_weight(rs, m)).height
        if dyn != want:
            return False, f"(d,m)=({d},{m}): wedge height {want} != A-type height {dyn}"
        if p_low is not None and heights.semisimplicity_bound_ok((d,), (m,), p_low):
            return False, f"(d,m)=({d},{m}): bound wrongly passes at p={p_low}"
        if not heights.semisimplicity_bound_ok((d,), (m,), p_high):
            return False, f"(d,m)=({d},{m}): bound wrongly fails at p={p_high}"
    multi = heights.composite_gl_height((4, 3), (2, 1))
    if multi != 6:
        return False, f"two-factor example: {multi} != 6"
    return True, "ten wedge tuples match m(d - m) and A-type heights; bound predicate sharp"


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
            ok, details = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, details = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if ok and budget is not None and elapsed >= budget:
            ok = False
            details += f"; took {elapsed:.1f}s, budget {budget:.0f}s"
        results.append(CriterionResult(number, name, ok, details, elapsed, budget))
    return results
