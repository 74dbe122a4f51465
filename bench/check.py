"""Independent checks of liep outputs.

Nothing here imports liep.  Root systems come from closed-form Cartan
matrices, marks and Coxeter numbers, with roots enumerated by root
strings (not by the package's reflection closure); matrices over Z/p use
their own list arithmetic.  Every check takes plain data (ints,
Fractions, tuples, lists, JSON text) and raises ``CheckError`` at the
first disagreement.

Conventions match the package's documented ones: the Cartan matrix is
``C[i][j] = <alpha_j, alpha_i^vee>`` (Bourbaki numbering), roots are
integer vectors over the simple roots, coweight points are their values
on the simple roots, and a word ``(i_1, ..., i_m)`` names
``s_{i_1} ... s_{i_m}`` with the rightmost letter applied first.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import lcm

__all__ = [
    "CheckError",
    "System",
    "system",
    "check_system",
    "check_weyl_query",
    "check_series",
    "check_bch",
    "check_heisenberg",
    "check_cli",
    "mat_mul",
    "mat_pow",
    "det",
    "inverse",
    "exp_series",
    "log_series",
]


class CheckError(Exception):
    """An output of the program disagrees with an independent computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------- root systems

_EXCEPTIONAL_MARKS = {
    ("E", 6): (1, 2, 2, 3, 2, 1),
    ("E", 7): (2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
    ("F", 4): (2, 3, 4, 2),
    ("G", 2): (3, 2),
}
_EXCEPTIONAL_H = {("E", 6): 12, ("E", 7): 18, ("E", 8): 30, ("F", 4): 12, ("G", 2): 6}
_EXCEPTIONAL_POSITIVE = {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}


def closed_marks(t: str, n: int) -> tuple[int, ...]:
    """Coefficients of the highest root (Bourbaki tables)."""
    if t == "A":
        return (1,) * n
    if t == "B":
        return (1,) + (2,) * (n - 1)
    if t == "C":
        return (2,) * (n - 1) + (1,)
    if t == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    return _EXCEPTIONAL_MARKS[(t, n)]


def closed_h(t: str, n: int) -> int:
    return {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2}.get(t) or _EXCEPTIONAL_H[(t, n)]


def closed_positive_count(t: str, n: int) -> int:
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}.get(t) or (
        _EXCEPTIONAL_POSITIVE[(t, n)]
    )


def cartan(t: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Bourbaki Cartan matrix from the Dynkin diagram's bonds."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    # (i, j, <alpha_j, alpha_i^vee>, <alpha_i, alpha_j^vee>), 0-based
    bonds = [(k, k + 1, -1, -1) for k in range(n - 1)]
    if t == "B":
        bonds[-1] = (n - 2, n - 1, -1, -2)  # alpha_n short
    elif t == "C":
        bonds[-1] = (n - 2, n - 1, -2, -1)  # alpha_n long
    elif t == "D":
        bonds = bonds[:-1] + [(n - 3, n - 1, -1, -1)]
    elif t == "E":
        bonds = [(0, 2, -1, -1), (1, 3, -1, -1)] + [(k, k + 1, -1, -1) for k in range(2, n - 1)]
    elif t == "F":
        bonds[1] = (1, 2, -1, -2)  # alpha_3, alpha_4 short
    elif t == "G":
        bonds = [(0, 1, -3, -1)]  # alpha_1 short
    for i, j, cij, cji in bonds:
        c[i][j], c[j][i] = cij, cji
    return tuple(tuple(r) for r in c)


def _positive_roots(c) -> tuple[tuple[int, ...], ...]:
    """Positive roots by root strings: beta + alpha_i is a root iff r - <beta, alpha_i^vee> > 0,
    where r is how far the alpha_i-string through beta reaches downwards."""
    n = len(c)
    level = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    found = set(level)
    out = list(level)
    while level:
        nxt = []
        for beta in level:
            for i in range(n):
                r = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) not in found:
                        break
                    r += 1
                if r - sum(c[i][j] * beta[j] for j in range(n)) > 0:
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if up not in found:
                        found.add(up)
                        nxt.append(up)
        out.extend(nxt)
        level = nxt
    return tuple(sorted(out, key=lambda a: (sum(a), a)))


def _opposition(t: str, n: int) -> tuple[int, ...]:
    """The diagram automorphism -w0, as a permutation of 0-based indices."""
    perm = list(range(n))
    if t == "A":
        perm.reverse()
    elif t == "D" and n % 2:
        perm[-2], perm[-1] = perm[-1], perm[-2]
    elif t == "E" and n == 6:
        perm = [5, 1, 4, 3, 2, 0]
    return tuple(perm)


class System:
    """One irreducible root system, rebuilt from closed forms."""

    def __init__(self, t: str, n: int):
        self.type, self.rank = t, n
        self.cartan = cartan(t, n)
        self.positive = _positive_roots(self.cartan)
        self.roots = self.positive + tuple(tuple(-x for x in a) for a in self.positive)
        self.marks = self.positive[-1]
        self.h = 1 + sum(self.marks)
        dual = tuple(zip(*self.cartan))
        self.two_rho = tuple(sum(col) for col in zip(*_positive_roots(dual)))
        self.opposition = _opposition(t, n)
        # off-diagonal Cartan entries of each row, so a reflection touches only neighbours
        self.links = tuple(
            tuple((j, c) for j, c in enumerate(row) if c and j != i) for i, row in enumerate(self.cartan)
        )
        expect(len(self.positive) == closed_positive_count(t, n), f"{t}{n}: own root count")
        expect(self.marks == closed_marks(t, n), f"{t}{n}: own highest root")
        expect(self.h == closed_h(t, n), f"{t}{n}: own Coxeter number")
        if t == "A":
            expect(
                self.two_rho == tuple(i * (n + 1 - i) for i in range(1, n + 1)),
                f"A{n}: own positive-coroot sum",
            )

    def reflect_root(self, v: list, i: int) -> None:
        """In place s_i (0-based) on simple-root coordinates: v_i -= sum_j C[i][j] v_j."""
        v[i] = -v[i] - sum(c * v[j] for j, c in self.links[i])

    def reflect_point(self, y: list, i: int) -> None:
        """In place s_i (0-based) on a point given by its values on the simple roots:
        y_j -= C[i][j] y_i."""
        yi = y[i]
        if yi:
            y[i] = -yi
            for j, c in self.links[i]:
                y[j] -= c * yi

    def apply_word(self, word, v) -> tuple[int, ...]:
        """s_{i_1} ... s_{i_m} applied to a root vector, rightmost letter first."""
        v = list(v)
        for i in reversed(word):
            self.reflect_root(v, i - 1)
        return tuple(v)

    def height(self, weight) -> int:
        return sum(a * b for a, b in zip(weight, self.two_rho))


@lru_cache(maxsize=None)
def system(t: str, n: int) -> System:
    return System(t, n)


def check_system(t: str, n: int, h: int, marks, positive_count: int) -> None:
    """A program's Coxeter number, marks and root count against the closed forms."""
    s = system(t, n)
    expect(h == s.h, f"{t}{n}: h = {h}, expected {s.h}")
    expect(tuple(marks) == s.marks, f"{t}{n}: marks {tuple(marks)}, expected {s.marks}")
    expect(positive_count == len(s.positive), f"{t}{n}: {positive_count} positive roots")


def _common_denominator(*vectors) -> int:
    return lcm(*(Fraction(v).denominator for vec in vectors for v in vec))


def _check_alcove(s: System, point) -> None:
    expect(all(y >= 0 for y in point), "reduced point has a negative coordinate")
    expect(sum(m * y for m, y in zip(s.marks, point)) <= 1, "reduced point violates theta <= 1")


def _check_reduction(s: System, start, reduced, weyl_word, net) -> None:
    _check_alcove(s, reduced)
    d = _common_denominator(start, reduced)  # reflections are integral, so work in d-ths
    y = [int(Fraction(v) * d) for v in start]
    for i in reversed(weyl_word):
        s.reflect_point(y, i - 1)
    expect(
        [a + b * d for a, b in zip(y, net)] == [Fraction(v) * d for v in reduced],
        "weyl_word then net_translation does not carry the start to the reduced point",
    )


def _check_windows(s: System, phi, critical, boundary=None) -> None:
    # phi(alpha) = k/d in [0, 1); the window 0 < k/d < 1/h is 0 < h k < d
    d = _common_denominator(phi)
    num = [int(Fraction(f) * d) for f in phi]
    values = {a: s.h * (sum(c * x for c, x in zip(a, num)) % d) for a in s.roots}
    own_crit = sorted(a for a, v in values.items() if 0 < v < d)
    expect(sorted(map(tuple, critical)) == own_crit, "critical roots differ from 0 < phi < 1/h")
    if boundary is not None:
        own_bnd = sorted(a for a, v in values.items() if v == d)
        expect(sorted(map(tuple, boundary)) == own_bnd, "boundary roots differ from phi = 1/h")


def _check_positive(s: System, word, roots) -> None:
    """Every root is positive for the chamber w(B_0): w^-1(alpha) >= 0."""
    vs = [list(a) for a in roots]
    for i in word:
        for v in vs:
            s.reflect_root(v, i - 1)
    for a, v in zip(roots, vs):
        expect(all(x >= 0 for x in v) or all(x <= 0 for x in v), f"{a} left the root system")
        expect(all(x >= 0 for x in v), f"window root {tuple(a)} is negative under the basis")


def _check_basis(s: System, phi, basis_word, reduced, weyl_word, pigeonhole, dominance) -> None:
    """The constructive basis: pigeonhole vertex, dominance walk and word assembly."""
    edge = Fraction(1, s.h)
    affine = (1 - sum(m * y for m, y in zip(s.marks, reduced)),) + tuple(reduced)
    idx = next(i for i, a in enumerate(affine) if a >= edge)
    expect(pigeonhole == idx, f"pigeonhole index {pigeonhole}, expected {idx}")
    z = list(reduced)
    if idx:
        z[idx - 1] -= Fraction(1, s.marks[idx - 1])
    for letter in dominance:
        low = next((i for i, v in enumerate(z) if v < 0), None)
        expect(low == letter - 1, "dominance word does not follow the lowest negative wall")
        s.reflect_point(z, low)
    expect(all(v >= 0 for v in z), "dominance word does not end at a dominant point")
    expect(
        tuple(basis_word) == tuple(reversed(weyl_word)) + tuple(dominance),
        "basis word is not the reversed reduction word followed by the dominance word",
    )


def check_weyl_query(t, n, phi, weight, q: dict) -> None:
    """One (G, phi, lambda) query: window basis report, window roots and height.

    ``q`` holds plain data: basis_word, reduced, weyl_word, net,
    pigeonhole, dominance, critical, boundary, height, via_pairing,
    via_difference, lambda_minus.
    """
    s = system(t, n)
    phi = tuple(Fraction(v) % 1 for v in phi)
    _check_reduction(s, phi, q["reduced"], q["weyl_word"], q["net"])
    _check_windows(s, phi, q["critical"], q["boundary"])
    _check_basis(s, phi, q["basis_word"], q["reduced"], q["weyl_word"],
                 q["pigeonhole"], q["dominance"])
    _check_positive(s, q["basis_word"], q["critical"])
    _check_height(s, weight, q)


def _check_height(s: System, weight, q: dict) -> None:
    own = s.height(weight)
    expect(q["height"] == own, f"height {q['height']}, expected {own}")
    expect(q["via_pairing"] == own and q["via_difference"] == own, "height routes disagree")
    low = tuple(-weight[s.opposition[i]] for i in range(s.rank))
    expect(tuple(q["lambda_minus"]) == low, f"antidominant conjugate {q['lambda_minus']}, expected {low}")


# ---------------------------------------------------------------- matrices mod p

def identity(n: int) -> list[list[int]]:
    return [[int(r == c) for c in range(n)] for r in range(n)]


def mat_mul(a, b, p: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def mat_add(a, b, p: int, k: int = 1) -> list[list[int]]:
    """a + k*b mod p."""
    return [[(x + k * y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_pow(a, e: int, p: int) -> list[list[int]]:
    """Square-and-multiply power, e >= 0."""
    out, base = identity(len(a)), [list(r) for r in a]
    while e:
        if e & 1:
            out = mat_mul(out, base, p)
        base = mat_mul(base, base, p)
        e >>= 1
    return out


def _is_zero(a) -> bool:
    return all(x == 0 for r in a for x in r)


def _powers_to_zero(x, p: int) -> list:
    """x^0, x^1, ... up to the last nonzero power; x must vanish by power n <= p."""
    n = len(x)
    powers = [identity(n)]
    while not _is_zero(powers[-1]):
        expect(len(powers) <= min(n, p), "input is not nilpotent of index <= min(n, p)")
        powers.append(mat_mul(powers[-1], x, p))
    return powers[:-1]


def exp_series(x, p: int) -> list[list[int]]:
    """exp(x) summed to the nilpotency index, where every factorial is a unit."""
    acc = [[0] * len(x) for _ in x]
    fact = 1
    for k, xk in enumerate(_powers_to_zero(x, p)):
        fact = fact * max(k, 1) % p
        acc = mat_add(acc, xk, p, pow(fact, -1, p))
    return acc


def log_series(u, p: int) -> list[list[int]]:
    """log(u) = sum (-1)^(k+1) (u - 1)^k / k, summed to the nilpotency index of u - 1."""
    y = mat_add(u, identity(len(u)), p, -1)
    acc = [[0] * len(u) for _ in u]
    for k, yk in enumerate(_powers_to_zero(y, p)):
        if k:
            acc = mat_add(acc, yk, p, (-1) ** (k + 1) * pow(k, -1, p))
    return acc


def det(a, p: int) -> int:
    m = [[x % p for x in r] for r in a]
    n, out = len(m), 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out = out * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return out % p


def inverse(a, p: int) -> list[list[int]]:
    n = len(a)
    m = [[x % p for x in r] + identity(n)[i] for i, r in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        inv = pow(m[c][c], -1, p)
        m[c] = [x * inv % p for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return [r[n:] for r in m]


def _same(a, b, what: str) -> None:
    expect([list(r) for r in a] == [list(r) for r in b], f"{what} differs from the independent value")


def check_series(p: int, x, u, log_u, t: int, u_t) -> None:
    """exp, log and t-th power of one p-nilpotent x and u = exp(x)."""
    _same(u, exp_series(x, p), "exp(x)")
    _same(log_u, log_series(u, p), "log(exp(x))")
    _same(log_u, x, "log(exp(x)) against x")
    _same(u_t, mat_pow(u, t, p), f"u^{t}")


def check_bch(p: int, x, y, z) -> None:
    """exp(z) = exp(x) exp(y) for the group law z of a strictly upper pair."""
    n = len(z)
    expect(all(z[r][c] == 0 for r in range(n) for c in range(r + 1)), "bch result is not strictly upper")
    _same(exp_series(z, p), mat_mul(exp_series(x, p), exp_series(y, p), p), "exp(bch(x, y))")


def check_heisenberg(p: int, rep: dict) -> None:
    expect(rep["p"] == p, "heisenberg report echoes another p")
    expect(rep["shift_order_ok"] is True and rep["commutator_ok"] is True, "S^p = 1 or [D, S] = S failed")
    expect(rep["span_dimension"] == p * p, f"span dimension {rep['span_dimension']}, expected {p * p}")
    expect(rep["spans_full_algebra"] is True, "pair does not span the matrix algebra")


# ---------------------------------------------------------------- command line

def _flags(argv) -> dict:
    out, i = {}, 1
    while i < len(argv):
        key = argv[i]
        if "=" in key:
            key, value = key.split("=", 1)
            i += 1
        elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            value = argv[i + 1]
            i += 2
        else:
            value = True
            i += 1
        out[key[2:]] = value
    return out


def _frac(x) -> Fraction:
    return Fraction(str(x))


def _fracs(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _sys(f: dict) -> System:
    return system(f["type"], int(f["rank"]))


def _mat(f: dict, key: str) -> list[list[int]]:
    p = int(f["p"])
    return [[x % p for x in r] for r in json.loads(f[key])]


def _cli_coxeter(f, r):
    h = _sys(f).h
    expect(r["h"] == r["via_marks"] == r["via_rho"] == r["via_element"] == h, f"coxeter: expected h = {h}")


def _cli_roots(f, r):
    s = _sys(f)
    check_system(s.type, s.rank, r["coxeter_number"], r["marks"], len(r["positive_roots"]))
    expect(r["cartan_matrix"] == [list(row) for row in s.cartan], "roots: Cartan matrix")
    expect(sorted(map(tuple, r["positive_roots"])) == sorted(s.positive), "roots: positive roots")
    expect(sorted(map(tuple, r["roots"])) == sorted(s.roots), "roots: root set")
    expect(tuple(r["highest_root"]) == s.marks and r["root_count"] == len(s.roots), "roots: highest root")


def _cli_goodprime(f, r):
    s = _sys(f)
    expect(r["good"] == (int(f["p"]) > max(s.marks)) and r["max_mark"] == max(s.marks), "goodprime")


def _cli_parabolic(f, r):
    s = _sys(f)
    subset = set(_ints(f["subset"])) if f.get("subset") else set()
    own = sorted(
        (a, d) for a in s.positive
        if (d := sum(x for i, x in enumerate(a) if i + 1 not in subset)) > 0
    )
    got = sorted((tuple(e["root"]), e["degree"]) for e in r["degrees"])
    expect(got == own, "parabolic: degrees")
    expect(r["max_degree"] == max((d for _, d in own), default=0), "parabolic: max degree")


def _cli_height(f, r):
    _check_height(_sys(f), _ints(f["weight"]), r)


def _cli_lowheight(f, r):
    s, w = _sys(f), _ints(f["weight"])
    _check_height(s, w, r["report"])
    expect(r["low_height"] == (int(f["p"]) > s.height(w)), "lowheight: comparison with p")


def _cli_minheight(f, r):
    s = _sys(f)
    expect([e["height"] for e in r["per_fundamental"]] == list(s.two_rho), "minheight: per fundamental")
    expect(r["min_height"] == min(s.two_rho) and r["coxeter_number"] == s.h, "minheight: minimum")


def _cli_glheight(f, r):
    total = sum(m * (d - m) for d, m in zip(_ints(f["dims"]), _ints(f["ms"])))
    expect(r["height"] == total, f"glheight: expected {total}")
    if "p" in f:
        expect(r["bound_ok"] == (total < int(f["p"])), "glheight: bound")


def _chamber_count(s: System, critical) -> int:
    """Chambers whose positive side holds every critical root, by enumerating W outright."""
    n = s.rank
    start = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))  # images w(alpha_j)
    seen, queue = {start}, [start]
    for w in queue:
        for i in range(n):
            # (w s_i)(alpha_j) = w(alpha_j) - C[i][j] w(alpha_i)
            nxt = tuple(
                tuple(x - s.cartan[i][j] * y for x, y in zip(w[j], w[i])) for j in range(n)
            )
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    want = set(map(tuple, critical))
    count = 0
    for w in queue:
        pos = {tuple(sum(a[j] * w[j][k] for j in range(n)) for k in range(n)) for a in s.positive}
        count += want <= pos
    return count


def _cli_basis(f, r):
    s = _sys(f)
    phi = _fracs(f["phi"])
    expect([_frac(v) for v in r["phi"]] == [v % 1 for v in phi], "basis: phi echo")
    word = r["weyl_word"]
    critical = [tuple(a) for a in r["critical_roots"]]
    _check_windows(s, [v % 1 for v in phi], critical)
    _check_positive(s, word, critical)
    images = [s.apply_word(word, tuple(int(i == j) for j in range(s.rank))) for i in range(s.rank)]
    expect([tuple(b) for b in r["basis_roots"]] == images, "basis: basis roots are not w(alpha_i)")
    _check_alcove(s, [_frac(v) for v in r["reduced_point"]])
    if f.get("oracle"):
        expect(r["oracle_member"] is True, "basis: not an oracle member")
        expect(r["oracle_count"] == _chamber_count(s, critical), "basis: oracle count")


def _cli_critical(f, r):
    s = _sys(f)
    phi = _fracs(f["phi"])
    expect(_frac(r["window"]) == Fraction(1, s.h), "critical: window")
    _check_windows(s, [v % 1 for v in phi],
                   [tuple(a) for a in r["critical_roots"]], [tuple(a) for a in r["boundary_roots"]])


def _cli_reduce(f, r):
    s = _sys(f)
    _check_reduction(s, _fracs(f["point"]), [_frac(v) for v in r["reduced_point"]],
                     r["weyl_word"], r["net_translation"])


def _cli_exp(f, r):
    _same(r["output"]["matrix"], exp_series(_mat(f, "matrix"), int(f["p"])), "exp")


def _cli_log(f, r):
    _same(r["output"]["matrix"], log_series(_mat(f, "matrix"), int(f["p"])), "log")


def _cli_tpower(f, r):
    p = int(f["p"])
    _same(r["output"]["matrix"], mat_pow(_mat(f, "matrix"), int(f["t"]) % p, p), "tpower")


def _cli_bch(f, r):
    p, degree = int(f["p"]), int(f["degree"])
    terms = {tuple(t["word"]): _frac(t["coefficient"]) for t in r["terms"]}
    known = {(0,): 1, (1,): 1, (0, 1): Fraction(1, 2), (0, 1, 0): Fraction(-1, 12),
             (0, 1, 1): Fraction(1, 12)}
    for word, c in known.items():
        if len(word) <= degree:
            expect(terms.get(word) == c, f"bch: coefficient of {word}")
    expect(all(len(w) <= degree for w in terms), "bch: term above the degree")
    for c in terms.values():
        expect(max(_prime_factors(c.denominator), default=1) < p, f"bch: denominator of {c} has a prime >= p")
    _check_bch_table(terms, degree)
    if "x" in f:
        check_bch(p, _mat(f, "x"), _mat(f, "y"), r["applied"]["z"]["matrix"])


def _prime_factors(d: int) -> set[int]:
    out, q = set(), 2
    while q * q <= d:
        while d % q == 0:
            out.add(q)
            d //= q
        q += 1
    return out | ({d} if d > 1 else set())


def _check_bch_table(terms: dict, degree: int, big: int = 1_000_003) -> None:
    """The table is a group law: evaluate it on a fixed strictly upper pair of size degree + 1
    over a large prime, where every bracket of degree > degree vanishes."""
    n = degree + 1
    x = [[(3 * r + 7 * c + 1) * int(c > r) for c in range(n)] for r in range(n)]
    y = [[(5 * r + 2 * c * c + 4) * int(c > r) for c in range(n)] for r in range(n)]
    z = [[0] * n for _ in range(n)]
    for word, coeff in terms.items():
        m = x if word[0] == 0 else y
        for letter in word[1:]:
            o = x if letter == 0 else y
            m = mat_add(mat_mul(m, o, big), mat_mul(o, m, big), big, -1)
        c = coeff.numerator * pow(coeff.denominator, -1, big) % big
        z = mat_add(z, m, big, c)
    _same(exp_series(z, big), mat_mul(exp_series(x, big), exp_series(y, big), big), "bch: table as a group law")


def _cli_cycle(f, r):
    p, w = int(f["p"]), _ints(f["t"])
    own = [[0] * p for _ in range(p)]
    for i in range(p - 1):
        own[i][i + 1] = w[i] % p
    own[p - 1][0] = w[p - 1] % p
    _same(r["matrix"]["matrix"], own, "cycle: matrix")
    scalar = 1
    for t in w:
        scalar = scalar * t % p
    expect(r["power_scalar"] == scalar and r["is_nilpotent"] is False, "cycle: power scalar")
    _same(mat_pow(own, p, p), [[scalar * int(i == j) for j in range(p)] for i in range(p)], "cycle: p-th power")


def _cli_pgl_lift(f, r):
    p, a = int(f["p"]), _mat(f, "matrix")
    d = det(a, p)
    expect(r["det"] == d, "pgl-lift: determinant")
    lift = mat_add(a, identity(p), p, -d)
    _same(r["lift"]["matrix"], lift, "pgl-lift: lift")
    expect(_is_zero(mat_pow(lift, p, p)), "pgl-lift: lift is not p-nilpotent")


def _cli_heisenberg(f, r):
    check_heisenberg(int(f["p"]), r)


def _cli_weightdemo(f, r):
    p = int(f["p"])
    dims = [[p * k, p - int(k == 0)] for k in range(p)]
    expect(r["component_dims"] == dims and r["total_dim"] == p * p - 1, "weightdemo: components")
    entries = sorted([[i, i + 1] for i in range(p - 1)] + [[p - 1, 0]])
    expect(r["alpha_weight"] == p and r["alpha_entries"] == entries, "weightdemo: weight-p entries")
    ones = [[int(j == (i + 1) % p) for j in range(p)] for i in range(p)]
    _same(r["witness"]["matrix"], ones, "weightdemo: witness")
    expect(r["alpha_carries_cycle"] is True and r["witness_power_scalar"] == 1
           and r["witness_is_nilpotent"] is False, "weightdemo: witness flags")


_CLI_CHECKS = {
    "coxeter": _cli_coxeter,
    "roots": _cli_roots,
    "goodprime": _cli_goodprime,
    "parabolic": _cli_parabolic,
    "height": _cli_height,
    "lowheight": _cli_lowheight,
    "minheight": _cli_minheight,
    "glheight": _cli_glheight,
    "basis": _cli_basis,
    "critical": _cli_critical,
    "reduce": _cli_reduce,
    "exp": _cli_exp,
    "log": _cli_log,
    "tpower": _cli_tpower,
    "bch": _cli_bch,
    "cycle": _cli_cycle,
    "pgl-lift": _cli_pgl_lift,
    "heisenberg": _cli_heisenberg,
    "weightdemo": _cli_weightdemo,
}


def check_cli(argv, code: int, stdout: str) -> None:
    """One CLI call: exit 0, stdout exactly one JSON report, fields checked per subcommand."""
    expect(code == 0, f"{argv[0]}: exit code {code}")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{argv[0]}: stdout is not one JSON object ({exc})") from None
    expect(isinstance(report, dict), f"{argv[0]}: report is not an object")
    expect(set(report) == {"subcommand", "result", "invariants", "elapsed_us"}, f"{argv[0]}: report keys")
    expect(report["subcommand"] == argv[0], f"{argv[0]}: subcommand echo")
    _CLI_CHECKS[argv[0]](_flags(argv), report["result"])
