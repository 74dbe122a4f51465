"""Exact matrix calculus over prime fields.

Truncated exponential and logarithm series for p-nilpotent and
p-unipotent matrices, integer powers of unipotents through truncated
binomial series, evaluation of the truncated group law on strictly
upper triangular pairs, and the small menagerie of p x p examples that
exercise them: the scalar-shift lift, weighted cyclic shifts, and the
Heisenberg pair.  Everything is computed over Z/p with no floats and no
external dependencies.

Every linear combination of matrices (sums, differences and scalings) is
formed by ``_combination``, which sums on plain ints and reduces mod p
once.  Every matrix product (``*`` and the series' powers) is formed by
``_products``, which takes the left factor as rows of residues and the
right factor as rows packed into single ints, so an entry costs one bigint
multiply-add.  The packing rule: each packed sum gets slots that ``_slots``
makes wide enough for its largest unreduced value, so no slot carries into
the next and each slot is reduced mod p once, when it is unpacked.
``_series`` (behind ``trunc_exp``, ``trunc_log`` and ``t_power``) and
``bch_apply`` each add every term unreduced to one packed total under that
rule; their docstrings give the terms they read and the widths they take.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice
from math import prod
from operator import lshift, mul

from . import bch
from .errors import ContractError
from .primes import is_prime, require_int, require_prime

__all__ = [
    "FpMatrix",
    "BchTable",
    "HeisenbergReport",
    "WeightGradingReport",
    "det",
    "inverse",
    "ext_traces",
    "trunc_exp",
    "trunc_log",
    "t_power",
    "bch_table",
    "bch_apply",
    "nilpotent_p_power_check",
    "pgl_nilpotent_lift",
    "cyclic_shift_matrix",
    "heisenberg_module_check",
    "weight_space_demo",
]


@dataclass(frozen=True)
class FpMatrix:
    """Immutable square matrix over Z/p whose entries are canonical residues, in [0, p).

    The raw constructor does not check that; ``from_rows``, ``identity``,
    ``diagonal`` and every operation below guarantee it.
    """

    p: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, p: int, rows) -> "FpMatrix":
        require_prime(p)
        grid = [list(r) for r in rows]
        n = len(grid)
        if n == 0 or any(len(r) != n for r in grid):
            raise ValueError("matrix must be square and nonempty")
        for x in chain.from_iterable(grid):
            require_int(x, "entry")
        return cls(p, n, tuple(tuple(x % p for x in r) for r in grid))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        require_int(n, "size")
        return cls.diagonal(p, [1] * n)

    @classmethod
    def diagonal(cls, p: int, entries) -> "FpMatrix":
        """The diagonal matrix of ``entries``, built directly: only its n entries are gated."""
        require_prime(p)
        ent = list(entries)
        n = len(ent)
        if not n:
            raise ValueError("matrix must be square and nonempty")
        for x in ent:
            require_int(x, "entry")
        zero = (0,) * n
        return cls(p, n, tuple(zero[:r] + (x % p,) + zero[r + 1:] for r, x in enumerate(ent)))

    def _same_shape(self, other: "FpMatrix") -> None:
        if self.p != other.p or self.n != other.n:
            raise ValueError("matrix shapes or characteristics differ")

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._same_shape(other)
        return _combination(self.p, self.n, ((1, self), (1, other)))

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._same_shape(other)
        return _combination(self.p, self.n, ((1, self), (-1, other)))

    def __neg__(self) -> "FpMatrix":
        return _combination(self.p, self.n, ((-1, self),))

    def __mul__(self, other):
        if not isinstance(other, FpMatrix):
            return self.scale(other)
        self._same_shape(other)
        shifts, mask = _slots(self.p, self.n, self.n)
        acc = _products(self.rows, _packed(other.rows, shifts))
        return FpMatrix(self.p, self.n, _unpacked(self.p, acc, shifts, mask))

    def __rmul__(self, scalar: int) -> "FpMatrix":
        return self.scale(scalar)

    def scale(self, scalar: int) -> "FpMatrix":
        require_int(scalar, "scalar")
        return _combination(self.p, self.n, ((scalar, self),))

    def __pow__(self, k: int) -> "FpMatrix":
        require_int(k, "exponent")
        if k < 0:
            raise ValueError("negative powers not supported; use inverse()")
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return FpMatrix.identity(self.p, self.n) if out is None else out

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)

    def is_identity(self) -> bool:
        return self == FpMatrix.identity(self.p, self.n)

    def is_nilpotent(self) -> bool:
        return (self ** self.n).is_zero()

    def is_strictly_upper(self) -> bool:
        return all(
            self.rows[r][c] == 0
            for r in range(self.n)
            for c in range(r + 1)
        )


def _gauss_jordan(m: FpMatrix, right) -> tuple[int, list[list[int]] | None]:
    """det(m) and m^-1 . right over Z/p by Gauss-Jordan on [m | right]; (0, None) if m is singular.

    ``right`` holds n rows of any width (empty rows ask for det alone).  Each
    pivot row is swapped up, scaled to 1 and cleared from every other row.
    """
    p, n = m.p, m.n
    a = [list(row) + list(extra) for row, extra in zip(m.rows, right)]
    d = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0, None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            d = -d
        d = d * a[col][col] % p
        inv = pow(a[col][col], -1, p)
        a[col] = [x * inv % p for x in a[col]]
        for r in range(n):
            f = a[r][col]
            if f and r != col:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return d, [row[n:] for row in a]


def det(m: FpMatrix) -> int:
    """Determinant over Z/p."""
    return _gauss_jordan(m, [()] * m.n)[0]


def inverse(m: FpMatrix) -> FpMatrix:
    """Matrix inverse over Z/p; rejects singular input."""
    d, inv = _gauss_jordan(m, [[int(i == j) for j in range(m.n)] for i in range(m.n)])
    if not d:
        raise ContractError("matrix is singular")
    return FpMatrix(m.p, m.n, tuple(map(tuple, inv)))


def ext_traces(m: FpMatrix) -> tuple[int, ...]:
    """Traces of the exterior powers: sums of principal k x k minors, k = 1..n.

    These are the coefficients of the characteristic polynomial up to
    sign: det(T - M) = T^n - e_1 T^{n-1} + ... + (-1)^n e_n, which is found
    in O(n^3) rather than from the 2^n - 1 minors.  A similarity first
    brings M to upper Hessenberg form H (zero below the subdiagonal); then
    the characteristic polynomials P_k of the leading k x k blocks of H obey
    P_k = (T - H_kk) P_{k-1} - sum_{i<k} H_ik (H_{i+1,i} ... H_{k,k-1}) P_{i-1}
    (Cohen, A Course in Computational Algebraic Number Theory, 2.2.4).
    """
    p, n = m.p, m.n
    h = [list(r) for r in m.rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:  # swap rows and columns piv and j + 1
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], -1, p)
        for i in range(j + 2, n):
            u = h[i][j] * inv % p
            if u:  # row i -= u . row j+1, then column j+1 += u . column i
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] = (row[j + 1] + u * row[i]) % p
    polys = [[1]]  # polys[k] = det(T - H[:k, :k]), coefficients from T^0 up
    for k in range(n):
        nxt = [0] + polys[k]
        for e, c in enumerate(polys[k]):
            nxt[e] -= h[k][k] * c
        chain_product = 1
        for i in range(k - 1, -1, -1):
            chain_product = chain_product * h[i + 1][i] % p
            f = h[i][k] * chain_product
            for e, c in enumerate(polys[i]):
                nxt[e] -= f * c
        polys.append([c % p for c in nxt])
    return tuple((-1) ** k * polys[n][n - k] % p for k in range(1, n + 1))


def _combination(p: int, n: int, terms) -> FpMatrix:
    """The n x n matrix sum of c . m over the (c, m) pairs, skipping c = 0 mod p.

    Entries are summed as plain ints and reduced mod p once, at the end.
    """
    acc = [0] * (n * n)
    for c, m in terms:
        c %= p
        if c:
            acc = [a + c * b for a, b in zip(acc, chain.from_iterable(m.rows))]
    return FpMatrix(p, n, tuple(tuple(a % p for a in acc[r:r + n]) for r in range(0, n * n, n)))


def _slots(p: int, n: int, terms: int) -> tuple[range, int]:
    """The shifts and mask of n slots, each wide enough for a sum of ``terms``
    products of two residues, at most terms . (p - 1)^2, so no slot carries
    into the next."""
    width = (terms * (p - 1) ** 2).bit_length()
    return range(0, width * n, width), (1 << width) - 1


def _packed(rows, shifts) -> list[int]:
    """Each row of residues as one int, entry j in the slot ``shifts[j]`` bits up."""
    return [sum(map(lshift, row, shifts)) for row in rows]


def _unpacked(p: int, acc, shifts, mask) -> tuple[tuple[int, ...], ...]:
    """The packed row sums in ``acc`` as rows of residues, with one % p per slot;
    a row that sums to 0 is not unpacked."""
    zero = (0,) * len(shifts)
    return tuple([tuple([(a >> s & mask) % p for s in shifts]) if a else zero for a in acc])


def _products(left, right) -> list[int]:
    """The rows of left . right, packed: row i is the sum of left[i][k] . right[k].

    ``left`` holds rows of residues and ``right`` the packed rows of the other
    factor, so each entry costs one bigint multiply-add and nothing is
    reduced; the caller sizes the slots with ``_slots`` and unpacks.  ``*``
    and each power of ``_series`` pass two n x n factors.
    """
    return [sum(map(mul, row, right)) for row in left]


def _series(nil: FpMatrix, coeffs) -> FpMatrix:
    """The sum of c_k . nil^k over the coefficients c_0, .., c_{p-1}; requires nil^p = 0.

    For an n x n matrix, nil^p = 0 holds exactly when nil^min(n, p) = 0
    (Cayley-Hamilton).  The coefficient stream ends at p, so capping it at
    n reads at most min(n, p) of them, and the walk stops at the first zero
    power: every later term is c_k . 0.  The identity and nil are terms, not
    factors; each later power is one ``_products`` call, the power before it
    as rows of residues times nil packed once, so nilpotency index k costs
    k - 1 products.  Each product is unpacked once, for the zero test and as
    the next left factor, and c_k times the unreduced product is added to
    one packed total, which is unpacked once, at the end.

    The slots hold the total.  Every c_k is reduced into [0, p).  A slot of
    c_0 . 1 is at most p - 1, of c_1 . nil at most (p - 1)^2, and of a
    product at most n (p - 1)^2, as it sums n products of two residues; so
    a term's slot is at most (p - 1) . n (p - 1)^2.  There are at most n
    terms, so a slot of the total is at most n^2 (p - 1)^3, the width that
    ``_slots(p, n, n^2 (p - 1))`` gives, and no slot carries into the next.
    """
    p, n = nil.p, nil.n
    shifts, mask = _slots(p, n, n * n * (p - 1))
    base = _packed(nil.rows, shifts)
    coeffs = islice(coeffs, n)
    c = next(coeffs) % p
    total = [c << s for s in shifts]  # c_0 . 1
    rows, packed = nil.rows, base  # nil^k as residues and packed, unreduced from k = 2 on
    for c in coeffs:
        if not any(map(any, rows)):
            break
        c %= p
        if c:
            total = [t + c * q for t, q in zip(total, packed)]
        packed = _products(rows, base)
        rows = _unpacked(p, packed, shifts, mask)
    else:
        if any(map(any, rows)):
            raise ContractError("matrix power p does not vanish")
    return FpMatrix(p, n, _unpacked(p, total, shifts, mask))


def _minus_one(u: FpMatrix) -> FpMatrix:
    """u - 1: 1 is subtracted on the diagonal of u's rows."""
    p = u.p
    return FpMatrix(p, u.n, tuple(row[:i] + ((row[i] - 1) % p,) + row[i + 1:]
                                  for i, row in enumerate(u.rows)))


def trunc_exp(x: FpMatrix) -> FpMatrix:
    """Exponential truncated below degree p; requires x^p = 0."""
    p = x.p
    inverse_factorials = accumulate(range(1, p), lambda c, k: c * pow(k, -1, p) % p, initial=1)
    return _series(x, inverse_factorials)


def trunc_log(u: FpMatrix) -> FpMatrix:
    """Logarithm truncated below degree p; requires (u - 1)^p = 0."""
    p = u.p
    coeffs = (0 if k == 0 else (-1) ** (k + 1) * pow(k, -1, p) for k in range(p))
    return _series(_minus_one(u), coeffs)


def t_power(u: FpMatrix, t: int) -> FpMatrix:
    """The power u^t through the truncated binomial series in (u - 1).

    Requires u to be p-unipotent, i.e. (u - 1)^p = 0 (equivalently
    u^p = 1).  For integer t this agrees with the ordinary power, and
    t only matters mod p.

    ``_series`` walks the binomials only up to the nilpotency index of
    u - 1, at most min(n, p) - 1 products.  Among those, C(t, k) = 0 mod p
    for t mod p < k < p by Lucas' theorem; the running product turns 0
    at k = t mod p + 1 and ``_series`` skips the zero terms.
    """
    require_int(t, "exponent")
    p = u.p
    binomials = accumulate(range(1, p),
                           lambda c, k: c * (t - k + 1) * pow(k, -1, p) % p,
                           initial=1)  # C(t, k) mod p
    return _series(_minus_one(u), binomials)


@dataclass(frozen=True)
class BchTable:
    """Group-law bracket coefficients usable in characteristic ``p``.

    ``terms`` lists (left-nested bracket word, exact rational coefficient) sorted by degree;
    every coefficient denominator is a product of primes below ``p``, so each term reduces
    mod p, and ``_residues``, formed once per table, holds each non-zero residue c as (c, word).
    """

    p: int
    max_degree: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @cached_property
    def _residues(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return tuple((c, word) for word, f in self.terms if (c := _fraction_mod(f, self.p)))


def bch_table(p: int, max_degree: int) -> BchTable:
    """Tabulate the truncated group law for characteristic ``p``."""
    require_prime(p)
    require_int(max_degree, "max_degree")
    if max_degree >= p:
        raise ValueError(
            f"max_degree {max_degree} >= p = {p}: coefficient denominators divide "
            "max_degree! and would vanish mod p"
        )
    return BchTable(p, max_degree, bch.bracket_terms(max_degree))


def _fraction_mod(f: Fraction, p: int) -> int:
    den = f.denominator % p
    if den == 0:
        raise ContractError(f"coefficient {f} has denominator divisible by {p}")
    return (f.numerator % p) * pow(den, -1, p) % p


def _bracket(head, tail, k: int) -> list[int]:
    """The packed rows of the k-letter bracket [head, tail], unreduced, on its non-zero triangle.

    A value of j letters, strictly upper x and y and their left-nested
    brackets, is 0 below its j-th superdiagonal, so it is carried as row i <
    n - j from column i + j on: ``head`` as those rows of residues and the
    same rows packed, column c in slot c; ``tail``, a letter, as its rows of
    -tail's residues from column i + 1 and its packed rows.  Row i < n - k of
    head . tail + (-tail) . head is then two dot products: head's row, from
    column i + k - 1, against tail's packed rows from row i + k - 1, and
    -tail's row, from column i + 1, against head's packed rows from row i + 1.
    Each sums at most n products of two residues, so a slot holds at most
    2n (p - 1)^2, and a product of columns past a factor's last row is 0 and
    is cut by ``map``.
    """
    rows, packed = head
    neg, tail_packed = tail
    return [sum(map(mul, rows[i], tail_packed[i + k - 1:])) + sum(map(mul, neg[i], packed[i + 1:]))
            for i in range(len(rows) - 1)]


def bch_apply(table: BchTable, x: FpMatrix, y: FpMatrix) -> FpMatrix:
    """Evaluate the tabulated group law on a strictly upper triangular pair.

    Strict triangularity makes every product of n or more factors
    vanish, so the truncation at table.max_degree >= n - 1 is exact and
    exp(result) = exp(x) exp(y) on the nose.

    Only the T terms of ``table._residues`` (those non-zero mod p) whose
    words are shorter than n are read.  Each bracket is one ``_bracket`` call on
    its non-zero triangle, made once per distinct prefix of those words, and
    c times its unreduced packed rows goes straight into one packed total,
    which is unpacked once, at the end.  A word that is the prefix of
    another is unpacked to residues and repacked once, when the first
    bracket that extends it is formed; a leaf, the prefix of none, never is.

    The slots hold the total.  Each c is reduced into [1, p).  A slot of a
    letter's term is at most (p - 1)^2, and of a bracket's term at most
    (p - 1) . 2n (p - 1)^2, as ``_bracket`` sums at most 2n products of two
    residues.  So a slot of the total is at most 2n T (p - 1)^3, the width
    that ``_slots(p, n, 2n T (p - 1))`` gives, which also holds a bracket
    before it is unpacked, and no slot carries into the next.  T is 0 at n =
    1, where no word is read; the width is taken at T = 1 then, as a width
    of 0 bits would leave no slots.
    """
    if x.p != table.p or y.p != table.p or x.n != y.n:
        raise ValueError("operands must share the table's characteristic and one size")
    if not (x.is_strictly_upper() and y.is_strictly_upper()):
        raise ContractError("operands must be strictly upper triangular")
    if x.n > table.p:
        raise ContractError(
            f"size {x.n} exceeds characteristic {table.p}; "
            "brackets of degree >= p could survive"
        )
    if table.max_degree < x.n - 1:
        raise ValueError(
            f"table degree {table.max_degree} below commutator depth {x.n - 1}"
        )
    p, n = x.p, x.n
    # words of n or more letters are exact zeros at this size
    coeffs = [(c, word) for c, word in table._residues if len(word) < n]
    shifts, mask = _slots(p, n, 2 * n * max(len(coeffs), 1) * (p - 1))
    heads = {}  # word -> its rows from column i + len(word) and its packed rows, reduced
    tails = {}  # letter -> its negated rows from column i + 1 and its packed rows
    for letter, m in enumerate((x, y)):
        rows = [row[i + 1:] for i, row in enumerate(m.rows[:-1])]
        packed = _packed(m.rows[:-1], shifts)
        heads[(letter,)] = rows, packed
        tails[letter] = [tuple([-v % p for v in row]) for row in rows], packed
    formed = {}  # word -> its bracket's packed rows, unreduced

    def head(word: tuple[int, ...]):
        got = heads.get(word)
        if got is None:
            k = len(word)
            acc = formed.get(word) or _bracket(head(word[:-1]), tails[word[-1]], k)
            rows = [tuple([(a >> s & mask) % p for s in shifts[i + k:]]) for i, a in enumerate(acc)]
            got = heads[word] = rows, [sum(map(lshift, r, shifts[i + k:])) for i, r in enumerate(rows)]
        return got

    total = [0] * (n - 1)
    for c, word in coeffs:
        if len(word) == 1:
            acc = heads[word][1]
        else:
            acc = formed[word] = _bracket(head(word[:-1]), tails[word[-1]], len(word))
        for i, a in enumerate(acc):
            total[i] += c * a
    zero = (0,) * n
    return FpMatrix(p, n, tuple([zero[:i + 1] + tuple([(t >> s & mask) % p for s in shifts[i + 1:]])
                                 for i, t in enumerate(total)]) + (zero,))


def nilpotent_p_power_check(x: FpMatrix) -> bool:
    """Whether a nilpotent matrix has x^p = 0; as x^n = 0, x^p is formed only when p < n."""
    if not x.is_nilpotent():
        raise ContractError("matrix is not nilpotent")
    return x.p >= x.n or (x ** x.p).is_zero()


def pgl_nilpotent_lift(a: FpMatrix) -> FpMatrix:
    """Shift a p x p matrix by a scalar to make it nilpotent.

    Requires every exterior-power trace below the determinant to vanish,
    so the characteristic polynomial is T^p - det(a); then
    a - det(a) . 1 is nilpotent because det is its own p-th root mod p.
    """
    if a.n != a.p:
        raise ValueError(f"matrix size {a.n} must equal the characteristic {a.p}")
    traces = ext_traces(a)
    for k in range(1, a.p):
        if traces[k - 1] != 0:
            raise ContractError(
                f"exterior trace e_{k} = {traces[k - 1]} is nonzero; "
                "no scalar shift of this matrix is nilpotent"
            )
    d = traces[-1]  # e_n is the determinant; its p-th root mod p is itself
    lifted = a - FpMatrix.identity(a.p, a.n).scale(d)
    if not (lifted ** a.p).is_zero():
        raise ContractError("scalar shift failed to be nilpotent; arithmetic is broken")
    return lifted


def cyclic_shift_matrix(p: int, weights) -> FpMatrix:
    """Weighted cyclic shift: superdiagonal t_1..t_{p-1}, corner t_p.

    Row i carries t_{i+1} in column i+1 (0-based), and row p-1 carries
    t_p in column 0.  The p-th power is checked to be the scalar (product
    of all weights), nonzero, so the matrix is invertible and never nilpotent.
    """
    require_prime(p)
    w = list(weights)
    if len(w) != p:
        raise ValueError(f"need exactly {p} weights, got {len(w)}")
    rows = [[0] * p for _ in range(p)]
    for i in range(p):
        rows[i][(i + 1) % p] = w[i]
    x = FpMatrix.from_rows(p, rows)  # rejects a weight that is not an int
    if any(x.rows[i][(i + 1) % p] == 0 for i in range(p)):
        raise ContractError("every cycle weight must be nonzero mod p")
    if (x ** p) != FpMatrix.identity(p, p).scale(cycle_power_scalar(p, w)):
        raise ContractError("cycle power identity failed; arithmetic is broken")
    return x


def cycle_power_scalar(p: int, weights) -> int:
    """The scalar c with (cyclic shift)^p = c . 1: the product of the weights."""
    weights = tuple(weights)
    for w in weights:
        require_int(w, "weight")
    return prod(weights) % p


@dataclass(frozen=True)
class HeisenbergReport:
    p: int
    shift_order_ok: bool
    commutator_ok: bool
    span_dimension: int
    spans_full_algebra: bool


def heisenberg_module_check(p: int) -> HeisenbergReport:
    """Shift-and-grading pair on p points: S cycles basis vectors, D counts.

    Verifies S^p = 1 and [D, S] = S, then closes the pair under products
    and linear span to measure how much of the p x p matrix algebra the
    pair generates (all of it, for every prime).
    """
    require_prime(p)
    s_rows = [[0] * p for _ in range(p)]
    for i in range(p):
        s_rows[(i + 1) % p][i] = 1
    s = FpMatrix.from_rows(p, s_rows)
    d = FpMatrix.diagonal(p, list(range(p)))

    shift_ok = (s ** p).is_identity()
    comm_ok = (d * s - s * d) == s

    dim = _algebra_dimension([s, d])
    return HeisenbergReport(p, shift_ok, comm_ok, dim, dim == p * p)


def _algebra_dimension(gens: list[FpMatrix]) -> int:
    """Dimension of the unital algebra the generators generate: the span of all their words.

    Elimination starts from 1, and each element it finds independent is
    stored as an echelon row r_k = c . (m_k - sum_{j<k} a_j r_j), so
    span{r_1..r_k} = span{m_1..m_k}; the products r_k . g of that row by
    every generator g are queued in turn.  When the queue is empty, V =
    span{r} holds 1 and V . g lies in V for every g, so V holds every word
    ((1 . g_1) . g_2) ... g_k and is the unital algebra, which is then stable
    under products on both sides.  Matrices are held sparse, as {row . n +
    col: x} over their nonzero entries, and r . g is formed from g's row
    lists.  The rows are kept in a pivot dict, lead -> {index: x}, lead =
    min(vec): the flat index orders entries as (row, col) pairs would, at the
    cost of one int per key.  Every S^a . D^b of the Heisenberg pair has at
    most p nonzeros, so a product or an elimination step costs O(p).
    """
    p, n = gens[0].p, gens[0].n
    row_lists = []  # per generator: row k -> [(c - k, x)], so (r, k) . (k, c) lands at i + c - k
    for g in gens:
        by_row = {}
        for k, row in enumerate(g.rows):
            for c, x in enumerate(row):
                if x:
                    by_row.setdefault(k, []).append((c - k, x))
        row_lists.append(by_row)

    def product(m: dict, by_row: dict) -> dict:
        acc: dict[int, int] = {}
        for i, x in m.items():
            for step, y in by_row.get(i % n, ()):
                acc[i + step] = acc.get(i + step, 0) + x * y
        return {j: x % p for j, x in acc.items() if x % p}

    # lead -> reduced sparse vector; a stored row is never modified, since
    # elimination writes only to the incoming vector and products read the row
    echelon: dict[int, dict] = {}

    def reduced(vec: dict) -> dict:
        """The echelon row stored for vec, or vec emptied if it is dependent."""
        while vec:
            lead = min(vec)
            row = echelon.get(lead)
            if row is None:
                inv = pow(vec[lead], -1, p)
                row = echelon[lead] = {i: x * inv % p for i, x in vec.items()}
                return row
            f = vec[lead]
            for i, y in row.items():
                vec[i] = (vec.get(i, 0) - f * y) % p
                if not vec[i]:
                    del vec[i]
        return vec

    queue = deque([{i * (n + 1): 1 for i in range(n)}])
    while queue:
        row = reduced(queue.popleft())
        if row:
            queue.extend(product(row, by_row) for by_row in row_lists)
    return len(echelon)


@dataclass(frozen=True)
class WeightGradingReport:
    """Weight decomposition of trace-classes of p x p matrices mod scalars.

    Conjugating by the diagonal 1-parameter subgroup with exponent steps
    of size p gives the entry in row i, column j the weight p(j - i)
    mod p^2.  Components are keyed by their weight in 0..p^2-1.
    """

    p: int
    component_dims: tuple[tuple[int, int], ...]
    total_dim: int
    alpha_weight: int
    alpha_entries: tuple[tuple[int, int], ...]
    alpha_carries_cycle: bool
    witness: FpMatrix
    witness_power_scalar: int
    witness_is_nilpotent: bool


def weight_space_demo(p: int) -> WeightGradingReport:
    """Lay out the weight grading and exhibit the invertible cycle inside it.

    The weight-p component is spanned by the superdiagonal entries plus
    the lower-left corner: exactly the support of the cyclic shift,
    whose p-th power is a nonzero scalar, so that component contains no
    nonzero nilpotent of cycle shape even though the component itself
    looks like a root space.
    """
    if not is_prime(p) or p < 3:
        raise ValueError("p must be an odd prime")
    mod = p * p
    dims: dict[int, int] = {}
    alpha_entries = []
    for i in range(p):
        for j in range(p):
            w = (p * (j - i)) % mod
            dims[w] = dims.get(w, 0) + 1
            if w == p % mod:
                alpha_entries.append((i, j))
    dims[0] -= 1  # scalars are quotiented away from the diagonal component

    total_dim = sum(dims.values())
    witness = cyclic_shift_matrix(p, (1,) * p)  # checks witness^p = scalar . 1
    scalar = cycle_power_scalar(p, (1,) * p)
    support = {(i, j) for i in range(p) for j in range(p) if witness.rows[i][j]}
    if not support <= set(alpha_entries):
        raise ContractError("the cyclic shift leaves the weight-p component")

    return WeightGradingReport(
        p=p,
        component_dims=tuple(sorted(dims.items())),
        total_dim=total_dim,
        alpha_weight=p,
        alpha_entries=tuple(sorted(alpha_entries)),
        alpha_carries_cycle=True,
        witness=witness,
        witness_power_scalar=scalar,
        witness_is_nilpotent=scalar == 0,
    )
