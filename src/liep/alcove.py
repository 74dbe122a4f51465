"""Alcove reduction and window-positive chamber selection.

A homomorphism ``phi`` from the root lattice to Q/Z is stored by its
values on the simple roots.  Lifting ``phi`` to a rational point y of
the coweight space, reducing y into the closure of the fundamental
alcove (0 <= y_i, theta(y) <= 1) by the affine Weyl group, and reading
off a vertex close to y yields a choice of basis (a Weyl chamber) in
which every root with ``0 < phi(alpha) < 1/h`` is positive, where h is
the Coxeter number.  ``oracle_valid_bases`` checks the same statement by
brute force over all chambers and exists purely to cross-examine the
constructive route; the two are kept as independent code paths on
purpose.

Points of the coweight space are stored by their values on the simple
roots as well, so a point reflects by ``(s_i y)_j = y_j - C[i][j] y_i``
and a translation by the coweight lattice adds integers to the coordinates.
All arithmetic is exact: each point and phi keeps its values as integer numerators over
one common denominator N (the cached ``_RatVec._numerators``), so wall and window tests
compare integers.  Fractions and RootVecs appear only at the API edge.

The reduction walks (y, a_0 = 1 - theta(y)) on the affine Cartan rows, alpha_0 the
last node, by the affine Weyl group W_a = W x Q^vee: each phase is one ``rootsys._walk``
on the simple rows, and between phases a dominant point with theta(y) >= 3 takes one
translation by a multiple of theta^vee, so a translation may come mid-transcript, and
any other point outside the alcove takes s_0.  The reduced point is unique, since the
closed alcove is a fundamental domain for W_a; the accumulated element, and with it the
chamber, is unique only for a point on no wall, so on wall points it may differ from
the one a wall-by-wall reduction finds.  Words act on points alone, through
``rootsys.apply_letters``, and roots are read through alpha(w y) = (w^-1 alpha)(y).
A word's element is read off w(rho^vee), rho^vee = (1, ..., 1): rho^vee is
regular, so sorting w(rho^vee) back to rho^vee spells a reduced word for w, of
at most |Phi+| letters, and alpha is positive in w's chamber iff
alpha(w(rho^vee)) > 0.  ``word_matrix`` carries the identity rows through that
reduced word, L + rank * l(w) letter steps for a word of L letters, and
``BasisChoice.basis_roots`` reads w(alpha_j) off its columns.  The reduction never
replays its word: the walked point carries (rho^vee, -theta(rho^vee)) packed beside it,
so the walk ends with w_acc(rho^vee), and the transcript keeps the reduced word walked
back from it.  The recomposition (the start moved forward once) and the window check
each cost l(w) letter steps.  theta's word, spliced into ``weyl_word`` at each s_0,
comes with ``RootSystem._affine``, off the reverse search's table ``RootSystem._parents``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import ContractError
from .primes import require_int, require_prime
from .rootsys import RootSystem, RootVec, _walk, apply_letters, simple_reflection_matrix

__all__ = [
    "PhiHom",
    "CoweightPoint",
    "ReductionTranscript",
    "BasisChoice",
    "WindowReport",
    "lift",
    "reduce_to_alcove",
    "window_basis",
    "window_basis_report",
    "critical_roots",
    "boundary_roots",
    "oracle_valid_bases",
    "same_basis",
    "mu_pj_restriction",
    "word_matrix",
]

def _as_fraction(x) -> Fraction:
    """``x`` as an exact ``Fraction``: a ``Fraction`` itself is returned unchanged, a
    subclass becomes a plain one, and floats and bools are rejected."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise ValueError("floating-point input rejected; pass Fraction, int, or 'a/b' string")
    if isinstance(x, bool):
        raise ValueError(f"boolean input {x!r} rejected; pass Fraction, int, or 'a/b' string")
    return Fraction(x)


@dataclass(frozen=True)
class _RatVec:
    """Exact values on the simple roots, each passed through ``_reduce``.  The generated
    equality compares classes first, so a ``PhiHom`` never equals a ``CoweightPoint``.
    Equality, hash and ``repr`` skip the cached integer form ``_numerators``, which a
    ``dataclasses.replace`` copy derives anew."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self._reduce(_as_fraction(v)) for v in self.values))

    @staticmethod
    def _reduce(v: Fraction) -> Fraction:
        return v

    @cached_property
    def _numerators(self) -> tuple[tuple[int, ...], int]:
        """Integer numerators of the values over N, the lcm of their denominators, and N."""
        den = lcm(*(v.denominator for v in self.values))
        return tuple(v.numerator * (den // v.denominator) for v in self.values), den


class PhiHom(_RatVec):
    """Homomorphism from the root lattice to Q/Z, by values on the simple roots, in [0, 1)."""

    @staticmethod
    def _reduce(v: Fraction) -> Fraction:
        return v % 1

    @property
    def rank(self) -> int:
        return len(self.values)


class CoweightPoint(_RatVec):
    """Rational point of the coweight space, by values on the simple roots."""


@dataclass(frozen=True)
class ReductionTranscript:
    """Record of one alcove reduction.

    ``steps`` lists the applied generators in order: ``("translate", t)``
    with an integer tuple t, ``("reflect", i)`` for a simple reflection
    (1-based), or ``("affine_reflect",)`` for the reflection in the wall
    theta = 1.  A translation comes first when the point lies far outside the
    unit box, and mid-transcript, by a coroot t = -k theta^vee, when a dominant
    point has theta(y) >= 3.  ``weyl_word`` spells the accumulated linear part
    w_acc, leftmost letter applied last; on a point that lies on a wall, w_acc is
    one of several elements that reach the same reduced point.
    ``net_translation`` is the integer vector with ``reduced = w_acc . start +
    net_translation``.  ``reduced_word`` spells the same w_acc in the same
    convention as ``weyl_word``, by a reduced word of at most |Phi+| letters
    (``_reduced``).
    """

    steps: tuple[tuple, ...]
    weyl_word: tuple[int, ...]
    net_translation: tuple[int, ...]
    reduced_word: tuple[int, ...]


@dataclass(frozen=True)
class BasisChoice:
    """A Weyl chamber, i.e. a choice of basis w(B_0), named by a word for w.

    ``weyl_word = (i_1, ..., i_m)`` denotes ``w = s_{i_1} ... s_{i_m}``
    (so ``w`` applies the rightmost letter first).  The empty word is
    the reference chamber.
    """

    weyl_word: tuple[int, ...]

    def is_positive(self, rs: RootSystem, alpha: RootVec) -> bool:
        """Whether w^-1(alpha) is positive: its height is alpha(w(rho^vee)) (``_rho_dual``)."""
        if not rs.is_root(alpha):
            raise ContractError(f"{alpha.coords} is not a root")
        return sum(map(mul, alpha.coords, _rho_dual(rs, self.weyl_word))) > 0

    def basis_roots(self, rs: RootSystem) -> tuple[RootVec, ...]:
        """Images w(alpha_j) of the simple roots: the columns of ``word_matrix``."""
        return tuple(RootVec(col) for col in zip(*word_matrix(rs, self.weyl_word)))


def same_basis(rs: RootSystem, a: BasisChoice, b: BasisChoice) -> bool:
    """Whether two words name the same chamber.

    rho^vee is fixed by no element but the identity, so w = w' iff w(rho^vee) = w'(rho^vee).
    """
    return _rho_dual(rs, a.weyl_word) == _rho_dual(rs, b.weyl_word)


def lift(phi: PhiHom) -> CoweightPoint:
    """Tautological rational lift: reuse the representatives in [0, 1)."""
    return CoweightPoint(phi.values)


def word_matrix(rs: RootSystem, word: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Matrix of the word's element w on simple-root coordinates: column j is w(alpha_j).

    Right-multiplying by ``s_i`` is the point action of ``s_i`` on every row, so
    each row of the identity is carried letter by letter through a word for the same
    element of length l(w) <= |Phi+|, ``_reduced`` of the word's image of rho^vee:
    L + rank * l(w) letter steps.
    """
    word = _reduced(rs, apply_letters(rs, word, [1] * rs.rank))
    return tuple(tuple(apply_letters(rs, word, list(e))) for e in _identity(rs.rank))


def _reduced(rs: RootSystem, v: list[int]) -> tuple[int, ...]:
    """A reduced word for w, first letter first, from v = w(rho^vee), which it walks in place.

    The walk back to the dominant rho^vee spells u with u w = 1, since only the identity
    fixes the regular rho^vee, and ``w = u^-1`` is that walk reversed.  It has
    l(w) <= |Phi+| letters.
    """
    walk, _ = _walk(rs._rows, v, len(rs._index),
                    "reduced word exceeded the number of positive roots")
    return tuple(reversed(walk))


def _rho_dual(rs: RootSystem, word: tuple[int, ...]) -> list[int]:
    """w(rho^vee) by its values on the simple roots, for w = s_{i_1} ... s_{i_m}.

    ``sum_j alpha_j w(rho^vee)_j = height(w^-1 alpha)``, so alpha is positive in w's chamber
    iff that sum is positive.
    """
    return apply_letters(rs, reversed(word), [1] * rs.rank)


def reduce_to_alcove(rs: RootSystem, point: CoweightPoint) -> tuple[CoweightPoint, ReductionTranscript]:
    """Move a point into the closed fundamental alcove, recording each generator.

    Points far outside the unit box are first translated by an integer vector of the
    coweight lattice.  The alcove is the dominant chamber of the affine Weyl group
    W_a = W x Q^vee, and the point (y, a_0 = 1 - theta(y)) moves on the rows of
    ``rs._affine``.  Each phase is one ``_walk`` on the simple rows alone, which reflects
    in the lowest violated wall ``y_i = 0`` until y is dominant, at most |Phi+| steps,
    and moves a_0 along.  Then a_0 >= 0 ends the reduction; theta(y) >= 3 takes one
    ``("translate", t)`` step by the coroot t = -k theta^vee, k = floor(theta(y) / 2),
    which lowers theta(y) by 2k and crosses many walls at once; and otherwise the walk
    reflects once in ``theta(y) = 1``.  So a translation may come mid-transcript.
    Reflections and translations each lower the number of separating affine walls,
    so the transcript past the box translation stays within ``_reflection_bound`` steps;
    running past it means an arithmetic bug.  The closed alcove is a fundamental domain
    for W_a, so the reduced point does not depend on the path; the element w_acc, and so
    the chamber, is unique only when the point lies on no wall.

    The rows act linearly on (y, a_0), and on r = (rho^vee, -theta(rho^vee)) =
    (1, ..., 1, 1 - h), where s_0 acts as s_theta: each letter keeps r at
    (u rho^vee, -theta(u rho^vee)) for some u in W, whose entries are heights of roots,
    so |r_j| <= h - 1.  A translation has no linear part and leaves r alone.  The walk
    runs on z = 2h (y, a_0) + r with ``low = 1 - h``, takes the reflections that y
    alone would take, and ends with r = (w_acc(rho^vee), ...), decoded as
    (z + h) mod 2h - h.  ``_reduced`` walks w_acc(rho^vee) back to a reduced word; the
    recomposition check moves the start forward once through it, l(w_acc) <= |Phi+|
    letter steps, and asks that it differ from the reduced point by a coweight.
    ``weyl_word`` splices theta's word from ``rs._affine`` in at each ``s_0``.
    """
    rs._check_rank(len(point.values))
    n, h = rs.rank, rs.coxeter_number
    lines, theta_dual, theta_word = rs._affine
    simple, s0 = lines[:n], lines[n]

    start, den = point._numerators
    values = list(start)
    box: list[tuple] = []  # the box translation, not counted against the bound
    steps: list[tuple] = []

    if any(v < -den or v >= 2 * den for v in values):
        shift = tuple(-(v // den) for v in values)
        values = [v + s * den for v, s in zip(values, shift)]
        box.append(("translate", shift))

    cap = _reflection_bound(rs, values, den)
    overrun = f"alcove reduction exceeded its bound of {cap} steps"
    # 2h (y, a_0) + (rho^vee, -theta(rho^vee)): the walk moves w_acc(rho^vee) along
    m = 2 * h
    z = [m * v + 1 for v in values] + [m * (den - sum(map(mul, rs.marks, values))) + 1 - h]
    letters: list[int] = []  # w_acc's letters, first applied first
    reflect = [("reflect", i) for i in range(n + 1)]  # one shared step per letter
    while True:
        walk, _ = _walk(simple, z, cap - len(steps), overrun, 1 - h)
        letters += walk
        steps += map(reflect.__getitem__, walk)
        if z[n] >= 1 - h:  # a_0 >= 0
            break
        if len(steps) == cap:
            raise ContractError(overrun)
        theta = den - (z[n] - (z[n] + h) % m + h) // m  # den theta(y)
        if theta >= 3 * den:
            # the alpha_0 row is -theta^vee on y and 2 on a_0, so k of it moves y by -k theta^vee
            k = theta // (2 * den)
            steps.append(("translate", tuple(-k * c for c in theta_dual)))
            q = k * m * den
        else:
            steps.append(("affine_reflect",))
            letters += theta_word  # the linear part of s_0, a palindrome
            q = -z[n]
        for j, c in s0:
            z[j] += c * q
    rho = [(x + h) % m - h for x in z[:n]]
    values = [(x - r) // m for x, r in zip(z, rho)]

    _assert_in_alcove(rs, values, den)

    short = _reduced(rs, rho)
    net = []
    for v, w in zip(values, apply_letters(rs, short, list(start))):
        d, r = divmod(v - w, den)
        if r:
            raise ContractError("reduction transcript does not recompose to the result")
        net.append(d)

    reduced = CoweightPoint(tuple(Fraction(v, den) for v in values))
    transcript = ReductionTranscript(tuple(box + steps), tuple(reversed(letters)), tuple(net),
                                     tuple(reversed(short)))
    return reduced, transcript


def _reflection_bound(rs: RootSystem, values: list[int], den: int) -> int:
    """A bound on the steps, reflections and translations, that carry the point
    ``values / den`` into the alcove.

    Let N(y) count the affine walls ``alpha = j`` (alpha > 0, j an integer) that strictly
    separate y from the alcove: alpha has ceil(d) of them, d the distance of alpha(y) from
    [0, 1].  Each reflection is in a wall of the alcove that strictly separates y from it,
    so it lowers N by exactly one.  A translation lowers N too.  It is taken at a dominant y
    with x = theta(y) >= 3, by t = -k theta^vee with k = floor(x / 2) >= 1, and moves each
    alpha(y) by -k <alpha, theta^vee>, where <alpha, theta^vee> is 0, 1, or 2 for theta alone.

    * A root with 0 keeps its walls.
    * theta goes from x to x - 2k in [0, 2): from ceil(x) - 1 >= 2k - 1 >= 1 walls to none
      if x - 2k <= 1, and from at least 2k + 1 walls to one otherwise.
    * The roots with 1 pair off as alpha and theta - alpha, with values a, b >= 0 and
      a + b = x >= 2k.  If a, b >= k, each moves towards [0, 1] and keeps at most its
      walls.  Otherwise a < k < b, say, so ceil(b) >= k + 1, and the pair goes from
      max(ceil(a) - 1, 0) + ceil(b) - 1 walls to ceil(k - a) + ceil(b) - k - 1, which is no
      more, since ceil(k - a) = k - floor(a).

    So there are at most N(y) steps.  A positive root has coefficients at most the marks,
    so ``|alpha(y)| <= S = sum_j m_j |y_j|`` and at most ``floor(S) + 1`` of its walls
    separate; the bound allows one more per root.
    """
    reach = sum(m * abs(v) for m, v in zip(rs.marks, values)) // den
    return len(rs._index) * (reach + 2)


def _affine_numerators(rs: RootSystem, values: Sequence[int], den: int) -> list[int]:
    """den * (a_0, ..., a_rank) with a_0 = 1 - theta(y), a_i = y_i; marks-weighted sum is 1."""
    return [den - sum(map(mul, rs.marks, values)), *values]


def _assert_in_alcove(rs: RootSystem, values: list[int], den: int) -> None:
    if any(v < 0 for v in values):
        raise ContractError("reduced point left the dominant cone")
    coords = _affine_numerators(rs, values, den)
    if coords[0] < 0:
        raise ContractError("reduced point violates theta(y) <= 1")
    if max(coords) * rs.coxeter_number < den:
        raise ContractError("affine coordinates all below 1/h; pigeonhole is broken")


@dataclass(frozen=True)
class WindowReport:
    """Everything the constructive basis selection produced along the way."""

    basis: BasisChoice
    pigeonhole_index: int
    reduced_point: CoweightPoint
    transcript: ReductionTranscript
    dominance_word: tuple[int, ...]
    critical_roots: tuple[RootVec, ...]
    """The window roots, ``critical_roots(rs, phi)``, each checked positive under ``basis``."""

    @cached_property
    def short_basis(self) -> BasisChoice:
        """The same chamber as ``basis``, by a word of at most |Phi+| + len(dominance) letters."""
        return BasisChoice(tuple(reversed(self.transcript.reduced_word)) + self.dominance_word)


def window_basis_report(rs: RootSystem, phi: PhiHom) -> WindowReport:
    """Select a basis making every root in the open window (0, 1/h) positive.

    The point ``lift(phi)`` is reduced to the fundamental alcove; some
    affine coordinate of the result is at least 1/h.  Index 0 is
    preferred, otherwise the smallest such index i >= 1 is taken and the
    point is re-centred at the corresponding alcove vertex and made
    dominant by simple reflections (lowest violated index first).  The
    accumulated Weyl data is transported back through the reduction.
    """
    reduced, transcript = reduce_to_alcove(rs, lift(phi))

    values, den = reduced._numerators
    h = rs.coxeter_number
    idx = next(i for i, a in enumerate(_affine_numerators(rs, values, den)) if a * h >= den)

    dominance: tuple[int, ...] = ()
    if idx > 0:
        # the vertex sits at 1/m on coordinate idx, so scale the denominator by m
        m = rs.marks[idx - 1]
        z = [v * m for v in values]
        z[idx - 1] -= den
        walk, _ = _walk(rs._rows, z, len(rs._index),
                        "dominance loop exceeded the number of positive roots")
        dominance = tuple(walk)

    basis = BasisChoice(tuple(reversed(transcript.weyl_word)) + dominance)
    report = WindowReport(basis, idx, reduced, transcript, dominance, critical_roots(rs, phi))
    dual = _rho_dual(rs, report.short_basis.weyl_word)
    for alpha in report.critical_roots:
        if sum(map(mul, alpha.coords, dual)) <= 0:
            raise ContractError(
                f"selected basis leaves window root {alpha.coords} negative; "
                "this indicates an arithmetic bug"
            )
    return report


def window_basis(rs: RootSystem, phi: PhiHom) -> BasisChoice:
    """The basis choice alone; see ``window_basis_report``."""
    return window_basis_report(rs, phi).basis


def _window(rs: RootSystem, phi: PhiHom, edge: bool) -> tuple[RootVec, ...]:
    """The roots alpha with lo <= v <= hi for v = h N phi(alpha) mod h N, in the order of
    ``rs.roots``: (lo, hi) = (1, N - 1) for the open window, (N, N) for its ``edge``.

    phi(alpha) = (sum_i alpha_i k_i mod N) / N, and each positive root's v is its parent's
    plus k h k_i, mod h N, for root = parent + k alpha_i (``rs._parents``): one addition per
    root.  -alpha has value h N - v, or 0 when v = 0, which neither range holds, so it is a
    hit when h N - hi <= v <= h N - lo.  The two signs are tested apart: at h = 2 the ranges
    meet, and A1 at phi = 1/2 has both alpha and -alpha on the edge.  Phi+'s hits come
    first, then Phi-'s, each in Phi+'s order, and only the negatives returned are formed.
    """
    rs._check_rank(phi.rank)
    k, den = phi._numerators
    h = rs.coxeter_number
    hk, hden = [h * x for x in k], h * den
    lo, hi = (den, den) if edge else (1, den - 1)
    neg_lo, neg_hi = hden - hi, hden - lo
    values: list[int] = []
    pos, neg = [], []  # the hits of each sign
    for alpha, (parent, i, step) in zip(rs.positive_roots, rs._parents):
        v = ((values[parent] if parent >= 0 else 0) + step * hk[i]) % hden
        values.append(v)
        if lo <= v <= hi:
            pos.append(alpha)
        if neg_lo <= v <= neg_hi:
            neg.append(-alpha)
    return tuple(pos + neg)


def critical_roots(rs: RootSystem, phi: PhiHom) -> tuple[RootVec, ...]:
    """Roots whose phi-value lies strictly inside the window (0, 1/h): one pass over Phi+."""
    return _window(rs, phi, edge=False)


def boundary_roots(rs: RootSystem, phi: PhiHom) -> tuple[RootVec, ...]:
    """Roots whose phi-value equals 1/h exactly (near misses of the window)."""
    return _window(rs, phi, edge=True)


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def _matmul(a, b) -> tuple[tuple[int, ...], ...]:
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


@lru_cache(maxsize=None)
def _chambers(rs: RootSystem) -> tuple[tuple[tuple[int, ...], frozenset], ...]:
    """Breadth-first enumeration of the Weyl group: (shortlex-minimal word, positive roots),
    each chamber listed as the search pops its matrix w, with positive roots w(Phi+).

    The one module-level cache keyed by a system, kept apart from ``RootSystem``'s cached
    properties as the oracle is a separate code path; it only sees rank <= 3."""
    n = rs.rank
    ident = _identity(n)
    gens = [simple_reflection_matrix(rs, i) for i in range(1, n + 1)]
    seen = {ident}
    queue = deque([(ident, ())])
    chambers = []
    while queue:
        mat, word = queue.popleft()
        pos = frozenset(
            tuple(sum(mat[r][c] * a.coords[c] for c in range(n)) for r in range(n))
            for a in rs.positive_roots
        )
        chambers.append((word, pos))
        for i in range(1, n + 1):
            nxt = _matmul(mat, gens[i - 1])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (i,)))
    return tuple(chambers)


def oracle_valid_bases(rs: RootSystem, phi: PhiHom) -> tuple[BasisChoice, ...]:
    """Every chamber whose positive side contains all window roots, by brute force.

    Deliberately independent of the constructive selection: the Weyl
    group is enumerated outright, so this is restricted to rank <= 3.
    """
    if rs.rank > 3:
        raise ValueError("chamber enumeration is restricted to rank <= 3")
    critical = {a.coords for a in critical_roots(rs, phi)}
    return tuple(BasisChoice(word) for word, positives in _chambers(rs) if critical <= positives)


def mu_pj_restriction(rs: RootSystem, cochar: tuple[int, ...], p: int, j: int) -> PhiHom:
    """The homomorphism ``alpha -> <alpha, cochar> / p^j`` into Q/Z.

    ``cochar`` gives an integer cocharacter in simple-coroot coordinates;
    the pairing against a simple root is ``sum_k C[k][i] cochar_k``, read off
    the sparse column i of the Cartan matrix.
    """
    require_prime(p)
    require_int(j, "j")
    if j < 1:
        raise ValueError("j must be at least 1")
    rs._check_int_coords(cochar)
    den = p**j
    return PhiHom(tuple(Fraction(sum(c * cochar[k] for k, c in col), den) for col in rs._cols))
