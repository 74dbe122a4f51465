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
(every coordinate moves, unlike the reflection of a root vector), and a
translation by the coweight lattice adds integers to the coordinates.
All arithmetic is exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import ContractError
from .primes import is_prime
from .rootsys import RootSystem, RootVec, simple_reflection_matrix

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
    "apply_word_to_root",
    "word_matrix",
]

_REDUCTION_CAP = 10_000


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise ValueError("floating-point input rejected; pass Fraction, int, or 'a/b' string")
    return Fraction(x)


@dataclass(frozen=True)
class PhiHom:
    """Homomorphism from the root lattice to Q/Z, by values on the simple roots.

    Values are reduced into [0, 1) on construction.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(_as_fraction(v) % 1 for v in self.values)
        object.__setattr__(self, "values", vals)

    @property
    def rank(self) -> int:
        return len(self.values)

    def value_of(self, alpha: RootVec) -> Fraction:
        """phi(alpha) as the representative in [0, 1)."""
        return sum(
            (m * v for m, v in zip(alpha.coords, self.values, strict=True)),
            Fraction(0),
        ) % 1

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


@dataclass(frozen=True)
class CoweightPoint:
    """Rational point of the coweight space, by values on the simple roots."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(_as_fraction(v) for v in self.values))

    def value_of(self, alpha: RootVec) -> Fraction:
        return sum(
            (m * v for m, v in zip(alpha.coords, self.values, strict=True)),
            Fraction(0),
        )


@dataclass(frozen=True)
class ReductionTranscript:
    """Record of one alcove reduction.

    ``steps`` lists the applied generators in order: ``("translate", t)``
    with an integer tuple t, ``("reflect", i)`` for a simple reflection
    (1-based), or ``("affine_reflect",)`` for the reflection in the wall
    theta = 1.  ``weyl_word`` spells the accumulated linear part w_acc,
    leftmost letter applied last, and ``net_translation`` is the integer
    vector with ``reduced = w_acc . start + net_translation``.
    """

    steps: tuple[tuple, ...]
    weyl_word: tuple[int, ...]
    net_translation: tuple[int, ...]


@dataclass(frozen=True)
class BasisChoice:
    """A Weyl chamber, i.e. a choice of basis w(B_0), named by a word for w.

    ``weyl_word = (i_1, ..., i_m)`` denotes ``w = s_{i_1} ... s_{i_m}``
    (so ``w`` applies the rightmost letter first).  The empty word is
    the reference chamber.
    """

    weyl_word: tuple[int, ...]

    def to_reference(self, rs: RootSystem, alpha: RootVec) -> RootVec:
        """Coordinates of ``alpha`` relative to the reference chamber: w^-1(alpha)."""
        v = alpha
        for i in self.weyl_word:
            v = rs.reflect(v, i)
        return v

    def is_positive(self, rs: RootSystem, alpha: RootVec) -> bool:
        if not rs.is_root(alpha):
            raise ContractError(f"{alpha.coords} is not a root")
        return all(c >= 0 for c in self.to_reference(rs, alpha).coords)

    def basis_roots(self, rs: RootSystem) -> tuple[RootVec, ...]:
        """Images of the simple roots under w."""
        out = []
        for i in range(1, rs.rank + 1):
            v = rs.simple_root(i)
            for j in reversed(self.weyl_word):
                v = rs.reflect(v, j)
            out.append(v)
        return tuple(out)


def same_basis(rs: RootSystem, a: BasisChoice, b: BasisChoice) -> bool:
    """Whether two words name the same chamber."""
    return frozenset(r.coords for r in a.basis_roots(rs)) == frozenset(
        r.coords for r in b.basis_roots(rs)
    )


def lift(phi: PhiHom) -> CoweightPoint:
    """Tautological rational lift: reuse the representatives in [0, 1)."""
    return CoweightPoint(phi.values)


def apply_word_to_root(rs: RootSystem, word: Iterable[int], alpha: RootVec) -> RootVec:
    """Apply ``s_{i_1} ... s_{i_m}`` to a root (rightmost letter first)."""
    v = alpha
    for i in reversed(tuple(word)):
        v = rs.reflect(v, i)
    return v


def word_matrix(rs: RootSystem, word: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Matrix of the word's element on simple-root coordinates."""
    n = rs.rank
    m = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
    for i in tuple(word):
        m = _matmul(m, simple_reflection_matrix(rs, i))
    return m


def _matmul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _check_rank(rs: RootSystem, n: int) -> None:
    if n != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates for {rs.type_label}{rs.rank}, got {n}")


@lru_cache(maxsize=None)
def _theta_pairing_vector(rs: RootSystem) -> tuple[int, ...]:
    """``t_j = <alpha_j, theta^vee>``; the translation part of the affine wall."""
    c = rs.coroot(rs.highest_root)
    return tuple(
        sum(rs.cartan[k][j] * c[k] for k in range(rs.rank)) for j in range(rs.rank)
    )


@lru_cache(maxsize=None)
def _reflection_word(rs: RootSystem, alpha: RootVec) -> tuple[int, ...]:
    """A word for the reflection in a positive root, via s_b = s_i s_{s_i(b)} s_i."""
    if sum(alpha.coords) == 1:
        return (alpha.coords.index(1) + 1,)
    for i in range(1, rs.rank + 1):
        if rs.pairing(alpha, i) > 0 and alpha != rs.simple_root(i):
            inner = _reflection_word(rs, rs.reflect(alpha, i))
            return (i,) + inner + (i,)
    raise ContractError(f"{alpha.coords} is not a positive root")


def _reflect_point(rs: RootSystem, values: list[Fraction], i: int) -> None:
    """In-place simple reflection of a coweight point, 1-based index."""
    yi = values[i - 1]
    if yi == 0:
        return
    row = rs.cartan[i - 1]
    for j in range(rs.rank):
        values[j] -= row[j] * yi


def reduce_to_alcove(rs: RootSystem, point: CoweightPoint) -> tuple[CoweightPoint, ReductionTranscript]:
    """Move a point into the closed fundamental alcove, recording each generator.

    Points far outside the unit box are first translated by an integer
    vector of the coweight lattice; after that only reflections in the
    walls ``y_i = 0`` and ``theta(y) = 1`` are applied, always at the
    lowest violated simple wall first.  Each reflection strictly lowers
    the number of separating affine walls, so the loop terminates; the
    iteration cap only guards against arithmetic bugs.
    """
    _check_rank(rs, len(point.values))
    n = rs.rank
    marks = rs.marks
    tvec = _theta_pairing_vector(rs)
    theta_word = _reflection_word(rs, rs.highest_root)

    values = list(point.values)
    steps: list[tuple] = []
    word: tuple[int, ...] = ()

    if any(v < -1 or v >= 2 for v in values):
        shift = tuple(-(v.__floor__()) for v in values)
        values = [v + s for v, s in zip(values, shift)]
        steps.append(("translate", shift))

    for _ in range(_REDUCTION_CAP):
        neg = next((i for i in range(n) if values[i] < 0), None)
        if neg is not None:
            _reflect_point(rs, values, neg + 1)
            steps.append(("reflect", neg + 1))
            word = (neg + 1,) + word
            continue
        excess = sum(m * v for m, v in zip(marks, values)) - 1
        if excess > 0:
            for j in range(n):
                values[j] -= tvec[j] * excess
            steps.append(("affine_reflect",))
            word = theta_word + word
            continue
        break
    else:
        raise ContractError(f"alcove reduction exceeded {_REDUCTION_CAP} steps")

    reduced = CoweightPoint(tuple(values))
    _assert_in_alcove(rs, reduced)

    # net integer translation: reduced - w_acc(start) must lie in the coweight lattice
    inv = word_matrix(rs, tuple(reversed(word)))  # matrix of w_acc^{-1}
    moved = [
        sum(inv[k][j] * point.values[k] for k in range(n)) for j in range(n)
    ]
    net = []
    for rj, mj in zip(reduced.values, moved):
        d = rj - mj
        if d.denominator != 1:
            raise ContractError("reduction transcript does not recompose to the result")
        net.append(int(d))

    return reduced, ReductionTranscript(tuple(steps), word, tuple(net))


def _assert_in_alcove(rs: RootSystem, y: CoweightPoint) -> None:
    if any(v < 0 for v in y.values):
        raise ContractError("reduced point left the dominant cone")
    a0 = 1 - sum(m * v for m, v in zip(rs.marks, y.values))
    if a0 < 0:
        raise ContractError("reduced point violates theta(y) <= 1")
    coords = (a0,) + tuple(y.values)
    if max(coords) < Fraction(1, rs.coxeter_number):
        raise ContractError("affine coordinates all below 1/h; pigeonhole is broken")


def _affine_coordinates(rs: RootSystem, y: CoweightPoint) -> tuple[Fraction, ...]:
    """(a_0, ..., a_rank) with a_0 = 1 - theta(y) and a_i = y_i; marks-weighted sum is 1."""
    a0 = 1 - sum(m * v for m, v in zip(rs.marks, y.values))
    return (a0,) + tuple(y.values)


@dataclass(frozen=True)
class WindowReport:
    """Everything the constructive basis selection produced along the way."""

    basis: BasisChoice
    pigeonhole_index: int
    reduced_point: CoweightPoint
    transcript: ReductionTranscript
    dominance_word: tuple[int, ...]


def window_basis_report(rs: RootSystem, phi: PhiHom) -> WindowReport:
    """Select a basis making every root in the open window (0, 1/h) positive.

    The point ``lift(phi)`` is reduced to the fundamental alcove; some
    affine coordinate of the result is at least 1/h.  Index 0 is
    preferred, otherwise the smallest such index i >= 1 is taken and the
    point is re-centred at the corresponding alcove vertex and made
    dominant by simple reflections (lowest violated index first).  The
    accumulated Weyl data is transported back through the reduction.
    """
    _check_rank(rs, phi.rank)
    y0 = lift(phi)
    reduced, transcript = reduce_to_alcove(rs, y0)

    h = rs.coxeter_number
    window = Fraction(1, h)
    coords = _affine_coordinates(rs, reduced)
    if coords[0] >= window:
        idx = 0
    else:
        idx = next(i for i in range(1, rs.rank + 1) if coords[i] >= window)

    dominance: list[int] = []
    if idx > 0:
        z = list(reduced.values)
        z[idx - 1] -= Fraction(1, rs.marks[idx - 1])
        for _ in range(_REDUCTION_CAP):
            neg = next((i for i in range(rs.rank) if z[i] < 0), None)
            if neg is None:
                break
            _reflect_point(rs, z, neg + 1)
            dominance.append(neg + 1)
        else:
            raise ContractError(f"dominance loop exceeded {_REDUCTION_CAP} steps")

    basis = BasisChoice(tuple(reversed(transcript.weyl_word)) + tuple(dominance))
    for alpha in critical_roots(rs, phi):
        if not basis.is_positive(rs, alpha):
            raise ContractError(
                f"selected basis leaves window root {alpha.coords} negative; "
                "this indicates an arithmetic bug"
            )
    return WindowReport(basis, idx, reduced, transcript, tuple(dominance))


def window_basis(rs: RootSystem, phi: PhiHom) -> BasisChoice:
    """The basis choice alone; see ``window_basis_report``."""
    return window_basis_report(rs, phi).basis


def critical_roots(rs: RootSystem, phi: PhiHom) -> tuple[RootVec, ...]:
    """Roots whose phi-value lies strictly inside the window (0, 1/h)."""
    _check_rank(rs, phi.rank)
    window = Fraction(1, rs.coxeter_number)
    return tuple(a for a in rs.roots if 0 < phi.value_of(a) < window)


def boundary_roots(rs: RootSystem, phi: PhiHom) -> tuple[RootVec, ...]:
    """Roots whose phi-value equals 1/h exactly (near misses of the window)."""
    _check_rank(rs, phi.rank)
    edge = Fraction(1, rs.coxeter_number)
    return tuple(a for a in rs.roots if phi.value_of(a) == edge)


class _Chamber(NamedTuple):
    word: tuple[int, ...]
    positives: frozenset


@lru_cache(maxsize=None)
def _chambers(rs: RootSystem) -> tuple[_Chamber, ...]:
    """Breadth-first enumeration of the Weyl group with shortlex-minimal words."""
    n = rs.rank
    ident = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
    gens = [simple_reflection_matrix(rs, i) for i in range(1, n + 1)]
    seen = {ident: ()}
    queue = [(ident, ())]
    out = []
    while queue:
        mat, word = queue.pop(0)
        out.append((mat, word))
        for i in range(1, n + 1):
            nxt = _matmul(mat, gens[i - 1])
            if nxt not in seen:
                seen[nxt] = word + (i,)
                queue.append((nxt, word + (i,)))
    chambers = []
    for mat, word in out:
        pos = frozenset(
            tuple(sum(mat[r][c] * a.coords[c] for c in range(n)) for r in range(n))
            for a in rs.positive_roots
        )
        chambers.append(_Chamber(word, pos))
    return tuple(chambers)


def oracle_valid_bases(rs: RootSystem, phi: PhiHom) -> tuple[BasisChoice, ...]:
    """Every chamber whose positive side contains all window roots, by brute force.

    Deliberately independent of the constructive selection: the Weyl
    group is enumerated outright, so this is restricted to rank <= 3.
    """
    if rs.rank > 3:
        raise ValueError("chamber enumeration is restricted to rank <= 3")
    _check_rank(rs, phi.rank)
    critical = {a.coords for a in critical_roots(rs, phi)}
    out = []
    for chamber in _chambers(rs):
        if critical <= chamber.positives:
            out.append(BasisChoice(chamber.word))
    return tuple(out)


def mu_pj_restriction(rs: RootSystem, cochar: tuple[int, ...], p: int, j: int) -> PhiHom:
    """The homomorphism ``alpha -> <alpha, cochar> / p^j`` into Q/Z.

    ``cochar`` gives an integer cocharacter in simple-coroot coordinates;
    the pairing against a simple root is ``sum_k C[k][i] cochar_k``.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if j < 1:
        raise ValueError("j must be at least 1")
    _check_rank(rs, len(cochar))
    den = p**j
    vals = tuple(
        Fraction(sum(rs.cartan[k][i] * int(cochar[k]) for k in range(rs.rank)), den)
        for i in range(rs.rank)
    )
    return PhiHom(vals)
