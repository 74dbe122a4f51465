"""Irreducible root systems of types A through G, built from Cartan data.

The Cartan matrix is read from each Dynkin diagram's list of bonds (``_DIAGRAMS``),
the same table that decides which ranks exist.

The positive roots are enumerated by reverse search, each made once from its parent by a
height-raising simple reflection, and are all that ``build`` stores, as tuples.  Only a
path that hands roots to a caller wraps them, in ``RootSystem.positive_roots`` on first
read; only ``liep roots``, self-test criterion 2 and a direct read derive the negative
roots (``RootSystem.roots``), and the window roots negate only their hits.  No root table
is hard-coded anywhere, and the classical root counts appear only as test oracles.
``build`` checks at run time only what that construction does not guarantee: a unique
highest root and |Phi| = rank * h.  Simple roots are numbered 1..rank following Bourbaki.

Conventions used throughout the package:

* The Cartan matrix is ``C[i][j] = <alpha_j, alpha_i^vee>`` (0-based
  internally, 1-based in the public API), so every diagonal entry is 2
  and the simple reflection acts on a root ``v`` written in simple-root
  coordinates by ``s_i(v) = v - <v, alpha_i^vee> e_i``.
* ``RootVec`` holds integer coordinates over the simple roots;
  ``WeightVec`` holds integer coordinates over the fundamental weights.
  No floating point is used anywhere, and C is never inverted.
* No coroot is carried through the search: theta^vee, the highest coroot
  (``RootSystem._dominant_coroots``) and 2 rho^vee (``RootSystem._two_rho_coroot``,
  checked once, where it is walked, to pair to 2 with every simple root) are walks on
  the Cartan rows.  They and the affine rows (``RootSystem._affine``) are cached
  properties, computed once per instance and freed with it.
* A word acts through ``apply_letters`` alone, one simple reflection at a
  time, on a coweight point held as a plain integer list of its values on
  the simple roots; roots are read through ``alpha(w y) = (w^-1 alpha)(y)``,
  and words are never multiplied out into matrices on a hot path.
* Every walk to the dominant end of a Weyl orbit is ``_walk``: on the simple affine rows
  for each phase of the alcove reduction, on the Cartan rows for a coweight point
  (reduced words, vertex re-centring, coroots), on the columns for a negated weight
  (heights' descent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

from .errors import ContractError
from .primes import is_int, require_int, require_prime

__all__ = [
    "RootVec",
    "WeightVec",
    "RootSystem",
    "ParabolicDegrees",
    "build",
    "coxeter_via_marks",
    "coxeter_via_rho",
    "coxeter_via_element",
    "root_height",
    "is_good_prime",
    "parabolic_degrees",
    "fundamental_weight",
    "simple_reflection_matrix",
    "apply_letters",
]

@dataclass(frozen=True)
class _IntVec:
    """Integer coordinate vector: ``coords`` is stored as a tuple and the
    arithmetic returns the caller's subclass.  The generated equality
    compares classes first, so a ``RootVec`` never equals a ``WeightVec``."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(self.coords))

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coords))

    def __add__(self, other):
        return type(self)(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other):
        return type(self)(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))


class RootVec(_IntVec):
    """Integer coordinate vector over the simple roots."""


class WeightVec(_IntVec):
    """Integer coordinate vector over the fundamental weights."""

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)


@dataclass(frozen=True)
class RootSystem:
    """Immutable catalog of one irreducible root system.

    ``_index``, the one store of Phi+, maps each root's coordinates to its position by
    height; ``positive_roots`` wraps its keys in ``RootVec``s and ``roots`` appends their
    negatives in the same order, each on first read.  ``build`` is the constructor.
    ``_rows[i]`` and ``_cols[i]`` list the nonzero entries ``(j, C[i][j])`` and
    ``(k, C[k][i])`` of row and column i of the Cartan matrix; ``_build`` describes
    ``_parents``.  Type and rank alone compare and hash; each derived fact is a cached
    property of the instance, so a ``dataclasses.replace`` copy starts with none.
    """

    type_label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...] = field(compare=False)
    marks: tuple[int, ...] = field(compare=False)
    coxeter_number: int = field(compare=False)
    _index: dict = field(compare=False, repr=False)
    _rows: tuple = field(compare=False, repr=False)
    _cols: tuple = field(compare=False, repr=False)
    _parents: tuple = field(compare=False, repr=False)

    def __repr__(self) -> str:  # the full field dump is unreadable
        return f"RootSystem({self.type_label}{self.rank}, {2 * len(self._index)} roots)"

    @cached_property
    def positive_roots(self) -> tuple[RootVec, ...]:
        return tuple(map(RootVec, self._index))

    @cached_property
    def roots(self) -> tuple[RootVec, ...]:
        return self.positive_roots + tuple(-a for a in self.positive_roots)

    @cached_property
    def _dominant_coroots(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """The dominant coroots by height, each as (coordinates over the simple coroots,
        values on the simple roots): theta^vee, then the highest coroot unless they are one.

        ``_walk`` on the rows carries row i of C, alpha_i^vee's values, to the dominant end of
        its W-orbit, e_i + steps.  Each of the one or two coroot orbits (one per root length)
        has one dominant element (Bourbaki, Lie Groups and Lie Algebras, VI 1.8).
        """
        found = set()
        for i, row in enumerate(self.cartan):
            z = list(row)
            _, steps = _walk(self._rows, z, len(self._index),
                             "coroot walk exceeded the number of positive roots")
            steps[i] += 1
            found.add((tuple(steps), tuple(z)))
        return tuple(sorted(found, key=lambda cz: sum(cz[0])))

    @cached_property
    def _two_rho_coroot(self) -> tuple[int, ...]:
        """2 rho^vee, the sum of the positive coroots, over the simple coroots.

        ``_walk`` on the rows from -rho^vee = (-1, ..., -1) ends at w_0(-rho^vee) = rho^vee in
        |Phi+| = l(w_0) reflections (Humphreys 1990, 1.8), so its steps are 2 rho^vee.  It moves
        z by C^T steps, so z_j ends at -1 + <alpha_j, 2 rho^vee>: the end (1, ..., 1) says that
        every simple root pairs to 2 with 2 rho^vee.  Anything else is an arithmetic bug.
        """
        npos, z, message = len(self._index), [-1] * self.rank, "walk from -rho^vee did not reach rho^vee"
        letters, steps = _walk(self._rows, z, npos, message)
        if len(letters) != npos or z != [1] * self.rank:
            raise ContractError(message)
        return tuple(steps)

    @cached_property
    def _affine(self) -> tuple[tuple, tuple[int, ...], tuple[int, ...]]:
        """The extended Cartan matrix's rows, alpha_0 = 1 - theta as node ``rank``, theta^vee's
        values on the simple roots, and a word for s_theta, the linear part of s_0.
        s_i moves a_0 by <theta, alpha_i^vee> y_i and s_0 moves y_j by <alpha_j, theta^vee> a_0
        (Kac, Infinite-Dimensional Lie Algebras, 6.1).  s_b = s_i s_{s_i(b)} s_i for the
        parent s_i(b) that ``_parents`` records for b, so theta's word, spelled by following
        the parents from b = theta down to a simple root, is a palindrome.
        """
        n, marks = self.rank, self.marks
        rows = []
        for row in self._rows:
            k = sum(c * marks[j] for j, c in row)
            rows.append(row + ((n, -k),) if k else row)
        tvec = self._dominant_coroots[0][1]
        rows.append(tuple((j, -t) for j, t in enumerate(tvec) if t) + ((n, 2),))
        up, (parent, i, _) = [], self._parents[-1]  # theta is the last positive root
        while parent >= 0:
            up.append(i + 1)
            parent, i, _ = self._parents[parent]
        theta_word = (*up, i + 1, *reversed(up))
        return tuple(rows), tvec, theta_word

    @property
    def highest_root(self) -> RootVec:
        return RootVec(self.marks)

    def is_root(self, v: RootVec) -> bool:
        self._check_int_coords(v.coords)
        return v.coords in self._index or tuple(-c for c in v.coords) in self._index

    def reflect(self, v: RootVec, i: int) -> RootVec:
        """Apply the simple reflection ``s_i`` (1-based) to a root vector: ``v_i -= <v, alpha_i^vee>``."""
        self._check_int_coords(v.coords)
        self._check_simple_index(i)
        coords = list(v.coords)
        coords[i - 1] -= sum(c * coords[j] for j, c in self._rows[i - 1])
        return RootVec(tuple(coords))

    def _check_rank(self, n: int) -> None:
        if n != self.rank:
            raise ValueError(f"expected {self.rank} coordinates for {self.type_label}{self.rank}, got {n}")

    def _check_int_coords(self, coords: tuple) -> None:
        """The integer gate of a root, weight or cocharacter argument: ``rank`` ints."""
        self._check_rank(len(coords))
        for c in coords:
            require_int(c, "coordinate")

    def _check_simple_index(self, i: int) -> None:
        if not is_int(i) or not 1 <= i <= self.rank:
            raise ValueError(f"{i!r} is not a simple-root index in 1..{self.rank}")


def _chain(n: int, start: int = 0) -> list[tuple[int, int, int, int]]:
    """The simple chain's bonds from node ``start`` to node n - 1."""
    return [(k, k + 1, -1, -1) for k in range(start, n - 1)]


# Each type's lowest and highest rank (None: unbounded) and its Dynkin diagram at rank n,
# as bonds (i, j, C[i][j], C[j][i]), 0-based, so C[i][j] = <alpha_{j+1}, alpha_{i+1}^vee>.
_DIAGRAMS = {
    "A": (1, None, _chain),
    # alpha_n is the short root: <alpha_{n-1}, alpha_n^vee> = -2
    "B": (2, None, lambda n: _chain(n)[:-1] + [(n - 2, n - 1, -1, -2)]),
    # alpha_n is the long root: <alpha_n, alpha_{n-1}^vee> = -2
    "C": (2, None, lambda n: _chain(n)[:-1] + [(n - 2, n - 1, -2, -1)]),
    # D3 = A3 is deliberately rejected rather than aliased
    "D": (4, None, lambda n: _chain(n)[:-1] + [(n - 3, n - 1, -1, -1)]),
    "E": (6, 8, lambda n: [(0, 2, -1, -1), (1, 3, -1, -1)] + _chain(n, 2)),
    # alpha_3 and alpha_4 are short
    "F": (4, 4, lambda n: [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]),
    "G": (2, 2, lambda n: [(0, 1, -3, -1)]),  # alpha_1 short, alpha_2 long
}


def _bonds(type_label: str, rank: int) -> list[tuple[int, int, int, int]]:
    """The bond list of ``_DIAGRAMS`` at ``rank``, or a descriptive rejection of any type
    and rank that the table does not cover: the one gate of a system."""
    diagram = _DIAGRAMS.get(type_label) if isinstance(type_label, str) else None
    if diagram is None or not is_int(rank) or not diagram[0] <= rank <= (diagram[1] or rank):
        raise ValueError(
            f"no irreducible system of type {type_label!r} and rank {rank}: "
            "valid are A(n>=1), B(n>=2), C(n>=2), D(n>=4), E(6..8), F4, G2"
        )
    return diagram[2](rank)


def _cartan_matrix(type_label: str, rank: int) -> list[list[int]]:
    """Bourbaki Cartan matrix, read from the bond list of ``_bonds``."""
    bonds = _bonds(type_label, rank)
    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, cij, cji in bonds:
        C[i][j], C[j][i] = cij, cji
    return C


def _reverse_search(cols: tuple) -> tuple[list[tuple[int, ...]], list[tuple[int, int, int]]]:
    """Phi+ in (height, coordinates) order and its ``(parent, i, k)`` links, by reverse search
    (Avis and Fukuda, Discrete Appl. Math. 65 (1996) 21-46).

    A non-simple root b has one parent, s_i(b) = b - k alpha_i at the lowest i with
    k = <b, alpha_i^vee> > 0, a positive root of lower height (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 10.2).  So a root m makes the child m + k alpha_i for
    each i with <m, alpha_i^vee> = -k < 0 and keeps it only if i is its lowest positive
    pairing: each root is made once and no set of seen roots is kept.  A child carries its
    link and its nonzero pairings, the parent's plus k times column i (``cols[i]``), into
    the bucket of its height; a complete layer forms its coordinates and is sorted.
    """
    n = len(cols)
    roots, links = [], []
    layers = {1: [(-1, i, 1, dict(cols[i])) for i in range(n)]}
    height = 1
    while layers:
        layer = []
        for parent, i, k, pairings in layers.pop(height):
            m = list(roots[parent]) if parent >= 0 else [0] * n
            m[i] += k
            layer.append((tuple(m), (parent, i, k), pairings))
        layer.sort(key=lambda entry: entry[0])
        for position, (m, link, pairings) in enumerate(layer, len(roots)):
            roots.append(m)
            links.append(link)
            for i, x in pairings.items():
                if x < 0:
                    child = dict(pairings)
                    for j, c in cols[i]:
                        child[j] = child.get(j, 0) - x * c
                    if min(j for j, y in child.items() if y > 0) == i:
                        child = {j: y for j, y in child.items() if y}
                        layers.setdefault(height - x, []).append((position, i, -x, child))
        height += 1
    return roots, links


def build(type_label: str, rank: int) -> RootSystem:
    """Construct the irreducible root system of the given type and rank, once per pair.

    Raises ``ValueError`` for a type/rank pair that does not name an irreducible system,
    including D3 (request A3), a non-string type and a bool, float or list rank.  The
    gate runs before the cache, which would hash ``[3]`` into a ``TypeError`` and file
    ``True`` under rank 1.
    """
    _bonds(type_label, rank)
    return _build(type_label, rank)


@lru_cache(maxsize=None)
def _build(type_label: str, rank: int) -> RootSystem:
    """``build``'s cached body, for a pair that passed the gate.

    ``_reverse_search`` builds Phi+ alone, from the sparse Cartan columns, in (height,
    coordinates) order, and ``_index`` stores it once, as its keys, with no ``RootVec``; Phi-
    is its negation.  So no generated vector mixes signs (each step only raises one coordinate
    of a nonnegative vector) and the root set is closed under negation; neither is checked.
    What the construction does not guarantee is checked at run time: the highest root theta,
    the last root of Phi+, is unique, which holds iff the root before it is lower, and |Phi| =
    2 |Phi+| = rank * h (Humphreys 1990, 3.18), which catches a search that lost or gained
    roots.  The zero vector is never generated, since the search starts from the simple roots.

    ``_parents`` holds the search's ``(parent, i, k)`` per positive root, in ``_index`` order:
    root = positive_roots[parent] + k alpha_i at root's lowest positive pairing
    k = <root, alpha_i^vee>, the parent earlier, and ``(-1, i, 1)`` for the simple root alpha_i.
    """
    C = _cartan_matrix(type_label, rank)
    rows = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in C)
    cols = tuple(tuple((j, x) for j, x in enumerate(col) if x) for col in zip(*C))
    positives, parents = _reverse_search(cols)

    theta = positives[-1]
    h = 1 + sum(theta)
    if len(positives) > 1 and sum(positives[-2]) == h - 1:
        raise ContractError("highest root is not unique; system is not irreducible")
    if 2 * len(positives) != rank * h:
        raise ContractError(f"closure generated {2 * len(positives)} roots, not rank * h = {rank * h}")

    index = {m: k for k, m in enumerate(positives)}
    return RootSystem(
        type_label=type_label, rank=rank, cartan=tuple(tuple(row) for row in C), marks=theta,
        coxeter_number=h, _index=index, _rows=rows, _cols=cols, _parents=tuple(parents),
    )


build.cache_clear = _build.cache_clear  # the public name keeps the cache's reset


def coxeter_via_marks(rs: RootSystem) -> int:
    """Coxeter number as one plus the sum of the highest root's coordinates."""
    return 1 + sum(rs.marks)


def coxeter_via_rho(rs: RootSystem) -> int:
    """Coxeter number as ``<rho, beta^vee> + 1`` for the highest coroot ``beta^vee``.

    The highest coroot (the highest root of the dual system) is the last of
    ``_dominant_coroots``, a walk on the Cartan rows that never reads Phi+, and
    ``rho`` pairs with a coroot by summing its coordinates over the simple coroots.
    """
    return 1 + sum(rs._dominant_coroots[-1][0])


def coxeter_via_element(rs: RootSystem) -> int:
    """Order of the Coxeter element ``c = s_1 s_2 ... s_rank``.

    c, applied as the letters rank..1 by ``apply_letters``, walks rho^vee = (1, ..., 1)
    until it returns.  Only the identity fixes the regular rho^vee, so c^k = 1 exactly
    when c^k fixes it, and one orbit gives the order (Humphreys 1990, 3.16-3.19); neither
    marks nor rho are read.  The order is at most |Phi|, so a longer orbit is a bug.
    """
    letters = range(rs.rank, 0, -1)
    start = [1] * rs.rank
    v = list(start)
    for order in range(1, 2 * len(rs._index) + 1):
        if apply_letters(rs, letters, v) == start:
            return order
    raise ContractError("Coxeter element orbit exceeds |Phi|; arithmetic is broken")


def _walk(lines: tuple, z: list[int], cap: int, message: str,
          low: int = 0) -> tuple[list[int], list[int]]:
    """Reflect ``z`` in place at its lowest coordinate below ``low`` until none is left.

    ``lines[i]`` lists the nonzero ``(j, c)``, sorted by j, of the reflection at i, which
    moves ``z_j -= c z_i``: ``rs._rows`` for a coweight point (``c = C[i][j]``), ``rs._cols``
    for a weight (``c = C[j][i]``), or the simple rows of ``rs._affine``, which move
    the a_0 slot past the last line as well.  Returns the 1-based letters, first applied
    first, and ``steps``, where ``steps[i]`` sums ``-z_i`` over the reflections at i.
    Each reflection leaves one fewer positive root negative on the first ``len(lines)``
    coordinates, so the walk ends within |Phi+| steps (Humphreys, Reflection Groups and
    Coxeter Groups, 1990, 1.2); past ``cap`` steps it raises ``ContractError(message)``.  Coordinates below ``lines[i][0][0]`` did not move and
    were not below ``low``, so the scan resumes there.

    ``low`` is 0 but for a packed vector ``z = M x + r``, integral x, whose r stays within
    ``|r_j| <= -low < M / 2`` all along: the lines act linearly, so they carry x and r
    together, and ``z_i >= low`` exactly when ``x_i >= 0``.  The walk then takes x's
    reflections in x's order (``alcove.reduce_to_alcove``), and ``steps``, which sums
    the packed ``-z_i``, carries no meaning.
    """
    n = len(lines)
    letters: list[int] = []
    steps = [0] * n
    i = 0
    while True:
        while i < n and z[i] >= low:
            i += 1
        if i == n:
            return letters, steps
        if len(letters) == cap:
            raise ContractError(message)
        x = z[i]
        for j, c in lines[i]:
            z[j] -= c * x
        letters.append(i + 1)
        steps[i] -= x
        i = lines[i][0][0]


def simple_reflection_matrix(rs: RootSystem, i: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of ``s_i`` on simple-root coordinates (columns are images of e_j)."""
    rs._check_simple_index(i)
    n = rs.rank
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for c in range(n):
        rows[i - 1][c] -= rs.cartan[i - 1][c]
    return tuple(tuple(r) for r in rows)


def apply_letters(rs: RootSystem, letters: Iterable[int], vec: list) -> list:
    """Apply ``s_i`` for each 1-based letter in turn (first letter first) to ``vec``, in place.

    ``vec`` is a point of the coweight space by its values on the simple roots, and
    ``s_i`` moves it by ``y_j -= C[i][j] y_i``.  A letter reads only row i of the sparse
    Cartan matrix, so it costs O(degree) at any rank.  Returns ``vec``.  Each letter
    passes the one integer rule: an int in 1..rank goes straight on, and anything else,
    a bool included, goes to ``_check_simple_index``.
    """
    n, rows = rs.rank, rs._rows
    for i in letters:
        if type(i) is not int or not 0 < i <= n:
            rs._check_simple_index(i)
        x = vec[i - 1]
        if x:
            for j, c in rows[i - 1]:
                vec[j] -= c * x
    return vec


def root_height(rs: RootSystem, alpha: RootVec) -> int:
    """Sum of the simple-root coordinates of a root (negative for negative roots)."""
    if not rs.is_root(alpha):
        raise ContractError(f"{alpha.coords} is not a root of {rs.type_label}{rs.rank}")
    return sum(alpha.coords)


def is_good_prime(rs: RootSystem, p: int) -> bool:
    """Whether ``p`` exceeds every coordinate of the highest root."""
    require_prime(p)
    return p > max(rs.marks)


class ParabolicDegrees(NamedTuple):
    degrees: dict[RootVec, int]
    max_degree: int


def parabolic_degrees(rs: RootSystem, subset: Iterable[int]) -> ParabolicDegrees:
    """Grading degrees of positive roots outside the parabolic attached to ``subset``.

    ``subset`` lists 1-based simple indices J.  Each positive root not
    supported on J gets the sum of its coordinates at indices outside J.
    The maximal degree over the empty map is 0.
    """
    subset = tuple(subset)
    for i in subset:
        if not is_int(i) or not 1 <= i <= rs.rank:
            raise ValueError(f"subset entry {i!r} is not a simple index in 1..{rs.rank}")
    J = set(subset)
    outside = [i for i in range(rs.rank) if (i + 1) not in J]
    degrees: dict[RootVec, int] = {}
    for a in rs.positive_roots:
        d = sum(a.coords[i] for i in outside)
        if d > 0:
            degrees[a] = d
    return ParabolicDegrees(degrees, max(degrees.values(), default=0))


def fundamental_weight(rs: RootSystem, i: int) -> WeightVec:
    rs._check_simple_index(i)
    return WeightVec(tuple(1 if j == i - 1 else 0 for j in range(rs.rank)))

