"""Group-law series: frozen low-degree coefficients, a Fraction twin and an exact matrix oracle."""

import random
from fractions import Fraction as F

import pytest

from liep import bch


# --- the Fraction twin ---------------------------------------------------
# The series on tuple words and Fraction coefficients, multiplied word pair
# by word pair: the direct reading of log(exp(X) exp(Y)) that bch tabulates
# on integer numerators over bit-packed words.

def _add(series, w, c):
    """Add ``c`` to the coefficient of ``w``, and drop ``w`` if the sum is zero."""
    v = series.get(w, 0) + c
    if v:
        series[w] = v
    else:
        series.pop(w, None)


def _mul(a, b, max_deg):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= max_deg:
                _add(out, wa + wb, ca * cb)
    return out


def _exp_letter(letter, max_deg):
    out = {(): F(1)}
    fact = 1
    for k in range(1, max_deg + 1):
        fact *= k
        out[(letter,) * k] = F(1, fact)
    return out


def _fraction_associative_terms(max_deg):
    if max_deg < 1:
        raise ValueError("max_degree must be at least 1")
    prod = _mul(_exp_letter(0, max_deg), _exp_letter(1, max_deg), max_deg)
    nil = dict(prod)
    del nil[()]  # log argument is 1 + nil
    total = {}
    power = {(): F(1)}
    sign = 1
    for k in range(1, max_deg + 1):
        power = _mul(power, nil, max_deg)
        coeff = F(sign, k)
        for w, c in power.items():
            _add(total, w, coeff * c)
        sign = -sign
    by_degree = [dict() for _ in range(max_deg + 1)]
    for w, c in total.items():
        by_degree[len(w)][w] = c
    return tuple(by_degree)


def _fraction_bracket_terms(max_deg):
    assoc = _fraction_associative_terms(max_deg)
    collected = {}
    for d in range(1, max_deg + 1):
        for w, c in assoc[d].items():
            if d == 1:
                _add(collected, w, c)
            elif w[0] != w[1]:  # [l, l] = 0
                sign = 1 if (w[0], w[1]) == (0, 1) else -1
                _add(collected, (0, 1) + w[2:], F(sign, d) * c)
    return tuple(sorted(collected.items(), key=lambda kv: (len(kv[0]), kv[0])))


@pytest.mark.parametrize("deg", range(1, 11))
def test_numerator_tables_match_the_fraction_twin(deg):
    assert bch.bracket_terms(deg) == _fraction_bracket_terms(deg)
    assoc = bch.associative_terms(deg)
    assert assoc == _fraction_associative_terms(deg)
    assert all(list(piece) == sorted(piece) for piece in assoc)


def _by_degree(max_deg):
    out = {d: {} for d in range(1, max_deg + 1)}
    for word, coeff in bch.bracket_terms(max_deg):
        out[len(word)][word] = coeff
    return out


def test_degree_one_is_the_sum_of_letters():
    assert _by_degree(1)[1] == {(0,): F(1), (1,): F(1)}


def test_degree_two_frozen():
    assert _by_degree(2)[2] == {(0, 1): F(1, 2)}


def test_degree_three_frozen():
    assert _by_degree(3)[3] == {(0, 1, 0): F(-1, 12), (0, 1, 1): F(1, 12)}


def test_associative_degree_two_frozen():
    assert bch.associative_terms(2)[2] == {(0, 1): F(1, 2), (1, 0): F(-1, 2)}


def test_associative_degree_three_frozen():
    assert bch.associative_terms(3)[3] == {
        (0, 0, 1): F(1, 12),
        (0, 1, 0): F(-1, 6),
        (1, 0, 0): F(1, 12),
        (1, 1, 0): F(1, 12),
        (1, 0, 1): F(-1, 6),
        (0, 1, 1): F(1, 12),
    }


def _expand_series(terms):
    """Collect coeff * expand_bracket(word) into an associative series."""
    out = {}
    for word, coeff in terms:
        for w, c in bch.expand_bracket(word):
            v = out.get(w, F(0)) + coeff * c
            if v:
                out[w] = v
            elif w in out:
                del out[w]
    return out


@pytest.mark.parametrize("deg", range(1, 7))
def test_bracket_form_expands_to_the_associative_series(deg):
    assoc = bch.associative_terms(6)[deg]
    entries = [(w, c) for w, c in bch.bracket_terms(6) if len(w) == deg]
    assert _expand_series(entries) == assoc


def _comm(a, b):
    out = {}
    for (wa, ca), (wb, cb) in [(x, y) for x in a.items() for y in b.items()]:
        for w, c in ((wa + wb, ca * cb), (wb + wa, -ca * cb)):
            v = out.get(w, 0) + c
            if v:
                out[w] = v
            elif w in out:
                del out[w]
    return out


def test_degree_four_is_one_nested_bracket():
    x, y = {(0,): 1}, {(1,): 1}
    nested = _comm(x, _comm(y, _comm(x, y)))  # [X, [Y, [X, Y]]]
    expected = {w: F(-c, 24) for w, c in nested.items()}
    entries = [(w, c) for w, c in bch.bracket_terms(4) if len(w) == 4]
    assert _expand_series(entries) == expected


def test_canonical_word_counts():
    by_deg = _by_degree(6)
    assert [len(by_deg[d]) for d in range(1, 7)] == [2, 1, 2, 2, 6, 14]


def test_denominator_primes_stay_small():
    assert bch.max_denominator_prime(1) == 1
    assert bch.max_denominator_prime(2) == 2
    assert bch.max_denominator_prime(4) == 3
    assert bch.max_denominator_prime(6) == 5
    assert bch.max_denominator_prime(6) < 7


def test_expand_bracket_base_cases():
    assert bch.expand_bracket((0,)) == (((0,), 1),)
    assert bch.expand_bracket((0, 1)) == (((0, 1), 1), ((1, 0), -1))


def test_degree_validation():
    pairs = ((bch.associative_terms, _fraction_associative_terms), (bch.bracket_terms, _fraction_bracket_terms))
    for bad in (0, -1, -3):
        for tabulate, twin in pairs:
            with pytest.raises(ValueError) as raised:
                tabulate(bad)
            with pytest.raises(ValueError) as expected:
                twin(bad)
            assert str(raised.value) == str(expected.value)
    for bad in (2.5, "3", True, None):
        for tabulate, _ in pairs:
            with pytest.raises(ValueError) as raised:
                tabulate(bad)
            assert str(raised.value) == f"max_degree {bad!r} is not an integer"


# --- exact matrix oracle -------------------------------------------------

def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _mat_addto(acc, m, scale):
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            acc[i][j] += scale * v


def _mat_exp(m):
    n = len(m)
    acc = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    power = [row[:] for row in acc]
    fact = 1
    for k in range(1, n):
        power = _mat_mul(power, m)
        fact *= k
        _mat_addto(acc, power, F(1, fact))
    return acc


def _bracket_eval(mats, word):
    m = mats[word[0]]
    for letter in word[1:]:
        other = mats[letter]
        m = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(_mat_mul(m, other), _mat_mul(other, m))]
    return m


def _random_strict_upper(rng, n):
    return [
        [F(rng.randint(-3, 3), rng.randint(1, 3)) if j > i else F(0) for j in range(n)]
        for i in range(n)
    ]


@pytest.mark.parametrize("n,trials", [(5, 6), (7, 3)])
def test_series_reproduces_the_matrix_group_law(n, trials):
    # products of length >= n vanish, so degree n-1 truncation is exact
    rng = random.Random(f"bch-oracle:{n}")
    terms = bch.bracket_terms(n - 1)
    for _ in range(trials):
        x = _random_strict_upper(rng, n)
        y = _random_strict_upper(rng, n)
        combined = [[F(0)] * n for _ in range(n)]
        for word, coeff in terms:
            _mat_addto(combined, _bracket_eval((x, y), word), coeff)
        assert _mat_exp(combined) == _mat_mul(_mat_exp(x), _mat_exp(y))
