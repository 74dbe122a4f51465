"""Truncated group-law series for two noncommuting letters, over exact rationals.

A noncommutative polynomial in letters X = 0 and Y = 1 is a dict from
words (tuples over {0, 1}) to ``Fraction``.  The homogeneous pieces of
``log(exp(X) exp(Y))`` are extracted degree by degree and then collected
into left-nested bracket words by the classical projection that divides
each degree-d piece by d: on a Lie element the projection is the
identity, so the collected form still sums to the same series, which is
exactly what the expansion check below verifies.

The series is formed on plain ints.  A degree-d word is a d-bit int,
first letter in the highest bit, and its coefficient is an integer
numerator over L·d!, with L = lcm(1..max_deg).  The degree-d piece of
exp(X) exp(Y) - 1 is then C(d, a) on X^a Y^b; multiplying pieces of
degrees d1 and d2 concatenates words as ``w1 << d2 | w2`` and scales
numerators by C(d1 + d2, d1); the k-th log term adds ±(L/k) times a
numerator.  Only degree pairs with d1 + d2 <= max_deg are formed.
``Fraction``s are made once per word, when the public tables are read.

A bracket word ``(l_1, ..., l_d)`` denotes the left-nested commutator
``[[...[[l_1, l_2], l_3]...], l_d]``.  Canonical bracket words start
with (0, 1); words whose first two letters agree are dropped as zero,
and a leading (1, 0) is flipped with a sign change.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .primes import require_int

__all__ = [
    "associative_terms",
    "bracket_terms",
    "expand_bracket",
    "max_denominator_prime",
]

Word = tuple[int, ...]


def _require_degree(max_deg: int) -> None:
    """The one gate of a table degree: an int of at least 1."""
    require_int(max_deg, "max_degree")
    if max_deg < 1:
        raise ValueError("max_degree must be at least 1")


def _log_numerators(max_deg: int) -> tuple[int, tuple[dict[int, int], ...]]:
    """``(L, pieces)``: the pieces of log(exp(X) exp(Y)) on integer numerators.

    L = lcm(1..max_deg).  Entry d of ``pieces`` maps each degree-d word,
    read as a d-bit int, to its non-zero numerator n; the coefficient is
    n / (L·d!).
    """
    _require_degree(max_deg)
    big_l = lcm(*range(1, max_deg + 1))
    # nil[d] is the degree-d piece of exp(X) exp(Y) - 1 over d!: C(d, a) on X^a Y^b.
    nil = [{}] + [{(1 << b) - 1: comb(d, b) for b in range(d + 1)} for d in range(1, max_deg + 1)]
    pieces: list[dict[int, int]] = [{} for _ in range(max_deg + 1)]
    power = nil  # nil^k over d!; its pieces start at degree k
    for k in range(1, max_deg + 1):
        step = big_l // k if k % 2 else -(big_l // k)
        for d in range(k, max_deg + 1):
            acc = pieces[d]
            for w, n in power[d].items():
                acc[w] = acc.get(w, 0) + step * n
        if k == max_deg:
            break
        nxt: list[dict[int, int]] = [{} for _ in range(max_deg + 1)]
        for d in range(k + 1, max_deg + 1):
            acc = nxt[d]
            for d2 in range(1, d - k + 1):  # nil's degree; power's is d - d2 >= k
                c = comb(d, d2)
                for w2, n2 in nil[d2].items():
                    m = c * n2
                    for w1, n1 in power[d - d2].items():
                        w = w1 << d2 | w2
                        acc[w] = acc.get(w, 0) + m * n1
        power = nxt
    return big_l, tuple({w: n for w, n in piece.items() if n} for piece in pieces)


def _letters(w: int, d: int) -> Word:
    """The d-bit word ``w`` as a tuple of letters, highest bit first."""
    return tuple((w >> s) & 1 for s in range(d - 1, -1, -1))


def associative_terms(max_deg: int) -> tuple[dict, ...]:
    """Homogeneous pieces of log(exp(X) exp(Y)) up to ``max_deg``.

    Entry d of the returned tuple maps degree-d associative words to
    their exact coefficients (entry 0 is empty), with the words in
    lexicographic order; each call builds its own dicts.
    """
    big_l, pieces = _log_numerators(max_deg)
    return ({},) + tuple(
        {_letters(w, d): Fraction(n, big_l * factorial(d)) for w, n in sorted(pieces[d].items())}
        for d in range(1, max_deg + 1)
    )


def bracket_terms(max_deg: int) -> tuple[tuple[Word, Fraction], ...]:
    """The group law as canonical left-nested bracket words up to ``max_deg``.

    Degree one contributes the bare letters (0,) and (1,).  Each higher
    degree-d associative term is rebracketed and scaled by 1/d; terms on
    the same canonical word are merged and zeros dropped.  The result is
    sorted by (degree, word) and cached per degree.  The degree gate runs
    before the cache, which would hash ``[3]`` into a ``TypeError`` and
    file ``True`` under degree 1.
    """
    _require_degree(max_deg)
    return _bracket_terms(max_deg)


@lru_cache(maxsize=None)
def _bracket_terms(max_deg: int) -> tuple[tuple[Word, Fraction], ...]:
    big_l, pieces = _log_numerators(max_deg)
    terms: list[tuple[Word, Fraction]] = []
    for d in range(1, max_deg + 1):
        if d == 1:
            collected, den = pieces[1], big_l
        else:
            collected, den = {}, big_l * factorial(d) * d
            flip = 3 << (d - 2)  # (1, 0, ...) -> (0, 1, ...)
            for w, n in pieces[d].items():
                top = w >> (d - 2)
                if top == 1:
                    collected[w] = collected.get(w, 0) + n
                elif top == 2:
                    collected[w ^ flip] = collected.get(w ^ flip, 0) - n
        terms.extend((_letters(w, d), Fraction(n, den)) for w, n in sorted(collected.items()) if n)
    return tuple(terms)


@lru_cache(maxsize=None)
def expand_bracket(word: Word) -> tuple[tuple[Word, int], ...]:
    """Associative expansion of a left-nested bracket word (integer coefficients)."""
    if len(word) == 1:
        return ((word, 1),)
    inner = dict(expand_bracket(word[:-1]))
    last = word[-1]
    out: dict[Word, int] = {}
    for w, c in inner.items():
        out[w + (last,)] = out.get(w + (last,), 0) + c
        out[(last,) + w] = out.get((last,) + w, 0) - c
    return tuple(sorted((w, c) for w, c in out.items() if c))


def max_denominator_prime(max_deg: int) -> int:
    """Largest prime dividing any coefficient denominator up to ``max_deg``."""
    worst = 1
    for _, coeff in bracket_terms(max_deg):
        d = coeff.denominator
        f = 2
        while f * f <= d:
            while d % f == 0:
                worst = max(worst, f)
                d //= f
            f += 1
        if d > 1:
            worst = max(worst, d)
    return worst
