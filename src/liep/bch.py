"""Truncated group-law series for two noncommuting letters, over exact rationals.

A noncommutative polynomial in letters X = 0 and Y = 1 is a dict from
words (tuples over {0, 1}) to ``Fraction``.  The homogeneous pieces of
``log(exp(X) exp(Y))`` are extracted degree by degree and then collected
into left-nested bracket words by the classical projection that divides
each degree-d piece by d: on a Lie element the projection is the
identity, so the collected form still sums to the same series, which is
exactly what the expansion check below verifies.

A bracket word ``(l_1, ..., l_d)`` denotes the left-nested commutator
``[[...[[l_1, l_2], l_3]...], l_d]``.  Canonical bracket words start
with (0, 1); words whose first two letters agree are dropped as zero,
and a leading (1, 0) is flipped with a sign change.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "associative_terms",
    "bracket_terms",
    "expand_bracket",
    "max_denominator_prime",
]

Word = tuple[int, ...]
Series = dict[Word, Fraction]


def _add(series: Series, w: Word, c: Fraction) -> None:
    """Add ``c`` to the coefficient of ``w``, and drop ``w`` if the sum is zero."""
    v = series.get(w, 0) + c
    if v:
        series[w] = v
    else:
        series.pop(w, None)


def _mul(a: Series, b: Series, max_deg: int) -> Series:
    out: Series = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= max_deg:
                _add(out, wa + wb, ca * cb)
    return out


def _exp_letter(letter: int, max_deg: int) -> Series:
    out: Series = {(): Fraction(1)}
    fact = 1
    for k in range(1, max_deg + 1):
        fact *= k
        out[(letter,) * k] = Fraction(1, fact)
    return out


@lru_cache(maxsize=None)
def associative_terms(max_deg: int) -> tuple[dict, ...]:
    """Homogeneous pieces of log(exp(X) exp(Y)) up to ``max_deg``.

    Entry d of the returned tuple maps degree-d associative words to
    their exact coefficients (entry 0 is empty).
    """
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    prod = _mul(_exp_letter(0, max_deg), _exp_letter(1, max_deg), max_deg)
    nil = dict(prod)
    del nil[()]  # log argument is 1 + nil
    total: Series = {}
    power: Series = {(): Fraction(1)}
    sign = 1
    for k in range(1, max_deg + 1):
        power = _mul(power, nil, max_deg)
        coeff = Fraction(sign, k)
        for w, c in power.items():
            _add(total, w, coeff * c)
        sign = -sign
    by_degree: list[dict] = [dict() for _ in range(max_deg + 1)]
    for w, c in total.items():
        by_degree[len(w)][w] = c
    return tuple(by_degree)


@lru_cache(maxsize=None)
def bracket_terms(max_deg: int) -> tuple[tuple[Word, Fraction], ...]:
    """The group law as canonical left-nested bracket words up to ``max_deg``.

    Degree one contributes the bare letters (0,) and (1,).  Each higher
    degree-d associative term is rebracketed and scaled by 1/d; terms on
    the same canonical word are merged and zeros dropped.  The result is
    sorted by (degree, word).
    """
    assoc = associative_terms(max_deg)
    collected: dict[Word, Fraction] = {}
    for d in range(1, max_deg + 1):
        for w, c in assoc[d].items():
            if d == 1:
                _add(collected, w, c)
            elif w[0] != w[1]:  # [l, l] = 0
                sign = 1 if (w[0], w[1]) == (0, 1) else -1
                _add(collected, (0, 1) + w[2:], Fraction(sign, d) * c)
    return tuple(sorted(collected.items(), key=lambda kv: (len(kv[0]), kv[0])))


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
