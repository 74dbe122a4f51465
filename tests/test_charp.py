"""Prime-field matrices, truncated series, and the p x p example menagerie."""

import contextlib
import io
import json
import math
import random
import tracemalloc
from collections import deque
from fractions import Fraction as F
from itertools import accumulate, combinations, islice
from operator import mul

import pytest

from liep import charp, cli
from liep.acceptance import random_conjugate, random_invertible, random_strict_upper
from liep.charp import FpMatrix
from liep.errors import ContractError
from liep.primes import is_prime, require_int


def _jordan(p, n, k=None):
    """The n x n matrix whose one nonzero block is a nilpotent k x k Jordan block
    (k = n by default) at the top left: its nilpotency index is k."""
    k = n if k is None else k
    return FpMatrix.from_rows(p, [[int(j == i + 1 < k) for j in range(n)] for i in range(n)])


def _random_matrix(rng, p, n):
    return FpMatrix.from_rows(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])


def _count_calls(monkeypatch, name):
    """A one-element list counting every call of ``charp.<name>`` made from here on."""
    count = [0]
    orig = getattr(charp, name)

    def counted(*args):
        count[0] += 1
        return orig(*args)

    monkeypatch.setattr(charp, name, counted)
    return count


@pytest.fixture
def mul_count(monkeypatch):
    """A one-element list counting every matrix product made from here on: ``*``, each
    power of a series and each bracket of bch_apply is one ``_products`` call."""
    return _count_calls(monkeypatch, "_products")


# --- construction and arithmetic ------------------------------------------

def test_entries_reduced_to_canonical_residues():
    m = FpMatrix.from_rows(5, [[7, -1], [0, 3]])
    assert m.rows == ((2, 4), (0, 3))


def test_construction_validation():
    with pytest.raises(ValueError):
        FpMatrix.from_rows(4, [[1]])
    with pytest.raises(ValueError):
        FpMatrix.from_rows(3, [[1, 2], [3]])
    with pytest.raises(ValueError):
        FpMatrix.from_rows(3, [])
    with pytest.raises(ValueError):
        FpMatrix.from_rows(3, [["1"]])
    with pytest.raises(ValueError):
        FpMatrix.from_rows(3, [[True]])


def test_arithmetic_basics():
    p = 7
    a = FpMatrix.from_rows(p, [[1, 2], [3, 4]])
    b = FpMatrix.from_rows(p, [[0, 1], [1, 0]])
    assert (a + b).rows == ((1, 3), (4, 4))
    assert (a - b).rows == ((1, 1), (2, 4))
    assert (-b).rows == ((0, 6), (6, 0))
    assert (a * b).rows == ((2, 1), (4, 3))
    assert (3 * b).rows == (b * 3).rows == ((0, 3), (3, 0))
    assert (-2 * a).rows == a.scale(5).rows == ((5, 3), (1, 6))
    assert (a * -1) == -a == a.scale(-8)
    assert a.scale(p) == a.scale(0) == 0 * a == FpMatrix.from_rows(p, [[0, 0], [0, 0]])
    assert a.scale(p + 3) == a.scale(3) == a.scale(3 - 2 * p) == a + a + a
    assert charp.ext_traces(a)[0] == 5
    assert (a ** 3) == a * a * a
    power = FpMatrix.identity(p, 2)
    for k in range(21):
        assert a ** k == power
        power = power * a
    assert (a ** 0).is_identity()
    with pytest.raises(ValueError):
        a ** -1
    with pytest.raises(ValueError):
        a + FpMatrix.identity(5, 2)
    with pytest.raises(ValueError):
        a * FpMatrix.identity(7, 3)


def test_predicates():
    p = 5
    assert FpMatrix.identity(p, 3).scale(0).is_zero()
    assert FpMatrix.identity(p, 3).is_identity()
    assert _jordan(p, 3).is_nilpotent()
    assert _jordan(p, 3).is_strictly_upper()
    assert not FpMatrix.diagonal(p, [1, 2, 3]).is_nilpotent()
    assert not FpMatrix.from_rows(p, [[0, 0], [1, 0]]).is_strictly_upper()


def _raised(make):
    with pytest.raises(ValueError) as err:
        make()
    return str(err.value)


def test_identity_and_diagonal_match_from_rows():
    # the twin: the same matrices, and the same gates, as built through from_rows
    rng = random.Random("direct-constructors")
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 7):
            eye = [[int(r == c) for c in range(n)] for r in range(n)]
            assert FpMatrix.identity(p, n) == FpMatrix.from_rows(p, eye)
            ent = [rng.randrange(-3 * p, 3 * p) for _ in range(n)]
            rows = [[ent[r] if r == c else 0 for c in range(n)] for r in range(n)]
            assert FpMatrix.diagonal(p, ent) == FpMatrix.from_rows(p, rows)
    not_prime = _raised(lambda: FpMatrix.from_rows(4, [[1]]))
    assert _raised(lambda: FpMatrix.identity(4, 2)) == not_prime == "4 is not prime"
    assert _raised(lambda: FpMatrix.diagonal(9, [1])) == "9 is not prime"
    assert _raised(lambda: FpMatrix.identity(4, 0)) == not_prime  # the prime gate comes first
    empty = _raised(lambda: FpMatrix.from_rows(5, []))
    assert _raised(lambda: FpMatrix.identity(5, 0)) == _raised(lambda: FpMatrix.diagonal(5, [])) == empty
    assert empty == "matrix must be square and nonempty"
    for bad in (1.5, 2.0, True, "1", None):
        want = _raised(lambda: FpMatrix.from_rows(5, [[1, 0], [0, bad]]))
        assert _raised(lambda: FpMatrix.diagonal(5, [1, bad])) == want
        assert want == f"entry {bad!r} is not an integer"


PRODUCT_PRIMES = (2, 3, 13, 101, 10007, 10**18 + 3)


def _drawn(rng, p, n):
    """A drawn dense matrix, the dense matrix of p - 1 (every slot of a packed
    product at its largest), the zero and identity matrices, the strictly upper
    matrix of p - 1, and a drawn strictly upper matrix that is zero below its
    k-th superdiagonal for a drawn k in 1..n."""
    k = rng.randint(1, n)
    return [
        _random_matrix(rng, p, n),
        FpMatrix.from_rows(p, [[p - 1] * n] * n),
        FpMatrix.diagonal(p, [0] * n),
        FpMatrix.identity(p, n),
        FpMatrix.from_rows(p, [[p - 1 if c > r else 0 for c in range(n)] for r in range(n)]),
        FpMatrix.from_rows(p, [[rng.randrange(p) if c - r >= k else 0 for c in range(n)]
                               for r in range(n)]),
    ]


def _entry_product(a, b):
    """a . b one entry at a time, a row times a column reduced mod p: the route of
    ``*`` before rows were packed, kept as an oracle."""
    p = a.p
    cols = list(zip(*b.rows))
    return FpMatrix(p, a.n, tuple(
        tuple(sum(map(mul, row, col)) % p for col in cols) for row in a.rows
    ))


def _two_product_bracket(head, tail):
    """[head, tail] as head . tail - tail . head from per-entry products: the route
    of bch_apply's brackets before they were one packed sum, kept as an oracle."""
    return _entry_product(head, tail) - _entry_product(tail, head)


def _canonical(m):
    return all(type(x) is int and 0 <= x < m.p for row in m.rows for x in row)


def test_products_match_the_per_entry_twin():
    rng = random.Random("product-twin")
    for p in PRODUCT_PRIMES:
        for n in range(1, 10):
            drawn = _drawn(rng, p, n)
            for a in drawn:
                for b in drawn:
                    got = a * b
                    assert got == _entry_product(a, b) and _canonical(got)
                    # [a, b] = (a | -b) . (b ; a), as bch_apply forms its brackets
                    shifts, mask = charp._slots(p, n, 2 * n)
                    left = [ra + tuple(-v % p for v in rb) for ra, rb in zip(a.rows, b.rows)]
                    acc = charp._products(left, charp._packed(b.rows + a.rows, shifts))
                    got = FpMatrix(p, n, charp._unpacked(p, acc, shifts, mask))
                    assert got == _two_product_bracket(a, b) and _canonical(got)


# --- determinant, inverse, exterior traces ---------------------------------

def test_det_examples():
    assert charp.det(FpMatrix.from_rows(5, [[1, 2], [3, 4]])) == 3
    assert charp.det(FpMatrix.from_rows(5, [[1, 2], [2, 4]])) == 0
    assert charp.det(FpMatrix.identity(7, 4)) == 1


def test_det_is_multiplicative():
    rng = random.Random("det")
    for p in (2, 3, 5, 7):
        for _ in range(30):
            n = rng.randint(1, 4)
            a = _random_matrix(rng, p, n)
            b = _random_matrix(rng, p, n)
            assert charp.det(a * b) == (charp.det(a) * charp.det(b)) % p


def test_inverse_round_trip():
    rng = random.Random("inverse")
    for p in (3, 5, 7):
        for _ in range(20):
            g = random_invertible(rng, p, rng.randint(1, 4))
            assert (g * charp.inverse(g)).is_identity()
            assert (charp.inverse(g) * g).is_identity()


def test_inverse_rejects_singular():
    with pytest.raises(ContractError):
        charp.inverse(FpMatrix.from_rows(5, [[1, 2], [2, 4]]))


def test_ext_traces_examples():
    m = FpMatrix.diagonal(5, [1, 2, 3])
    # elementary symmetric functions of the eigenvalues
    assert charp.ext_traces(m) == (6 % 5, 11 % 5, 6 % 5)
    assert charp.ext_traces(_jordan(5, 4)) == (0, 0, 0, 0)
    assert charp.ext_traces(FpMatrix.identity(3, 3)) == (3 % 3, 3 % 3, 1)


def test_ext_traces_last_entry_is_det():
    rng = random.Random("ext")
    for _ in range(25):
        p = rng.choice((3, 5, 7))
        m = _random_matrix(rng, p, rng.randint(1, 4))
        assert charp.ext_traces(m)[-1] == charp.det(m)



def _forward_det(m):
    """Forward elimination alone: the route det took before it shared one
    Gauss-Jordan routine with inverse."""
    p, n = m.p, m.n
    a = [list(r) for r in m.rows]
    result = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            result = -result
        result = (result * a[col][col]) % p
        inv = pow(a[col][col], -1, p)
        for r in range(col + 1, n):
            f = (a[r][col] * inv) % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return result % p


def _augmented_inverse(m):
    """Gauss-Jordan on [A | I] with its own pivot loop, as inverse had it."""
    p, n = m.p, m.n
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m.rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p != 0), None)
        if piv is None:
            raise ContractError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = [(x * inv) % p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return FpMatrix.from_rows(p, [row[n:] for row in a])


def _minor_sum_ext_traces(m):
    """Sums of the 2^n - 1 principal minors, as ext_traces formed them
    before it read the characteristic polynomial."""
    p, n = m.p, m.n
    return tuple(
        sum(_forward_det(FpMatrix(p, k, tuple(tuple(m.rows[r][c] for c in idx) for r in idx)))
            for idx in combinations(range(n), k)) % p
        for k in range(1, n + 1)
    )


def _sparse_or_singular(rng, p, n):
    """A random matrix of mixed density, made singular about one time in four."""
    density = rng.choice((0.3, 0.6, 1.0))
    rows = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)]
    if n > 1 and rng.random() < 0.25:
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(p)
        rows[i] = [c * x % p for x in rows[j]]  # row i a multiple of row j
    return FpMatrix.from_rows(p, rows)


def test_det_and_inverse_match_their_separate_eliminations():
    rng = random.Random("gauss-jordan-twin")
    singular = 0
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 7):
            for _ in range(10):
                m = _sparse_or_singular(rng, p, n)
                d = charp.det(m)
                assert d == _forward_det(m)
                if d:
                    assert charp.inverse(m) == _augmented_inverse(m)
                else:
                    singular += 1
                    with pytest.raises(ContractError, match="matrix is singular"):
                        charp.inverse(m)
    assert singular > 50  # the sample reaches singular input often


def test_ext_traces_match_the_minor_sums():
    rng = random.Random("ext-twin")
    for p in (2, 3, 5, 7, 11):
        for n in range(1, 8):
            for _ in range(6):
                m = _sparse_or_singular(rng, p, n)
                assert charp.ext_traces(m) == _minor_sum_ext_traces(m), (p, m.rows)
        jp = FpMatrix.from_rows(p, [[1 + 2 * (i == j) for j in range(p)] for i in range(p)])
        assert charp.ext_traces(jp) == _minor_sum_ext_traces(jp)  # J + 2I at n = p


def test_pgl_lift_answers_at_the_e8_scale():
    p = 31  # the smallest prime with p >= h for E8; the minor sums never finish here
    a = FpMatrix.from_rows(p, [[1 + 2 * (i == j) for j in range(p)] for i in range(p)])
    lifted = charp.pgl_nilpotent_lift(a)
    assert charp.det(a) == 2
    assert lifted == a - FpMatrix.identity(p, p).scale(2)


# --- truncated series ------------------------------------------------------

def test_exp_of_zero_and_log_of_identity():
    assert charp.trunc_exp(FpMatrix.identity(5, 3).scale(0)).is_identity()
    assert charp.trunc_log(FpMatrix.identity(5, 3)).is_zero()


def test_exp_frozen_example():
    x = charp.trunc_exp(_jordan(5, 3))
    assert x.rows == ((1, 1, 3), (0, 1, 1), (0, 0, 1))
    assert charp.trunc_log(x) == _jordan(5, 3)


def test_series_require_p_nilpotency():
    with pytest.raises(ContractError):
        charp.trunc_exp(_jordan(3, 4))  # cube of a 4-block survives
    with pytest.raises(ContractError):
        charp.trunc_log(FpMatrix.identity(3, 4) + _jordan(3, 4))
    with pytest.raises(ContractError):
        charp.trunc_exp(FpMatrix.identity(5, 2))  # not nilpotent at all
    with pytest.raises(ContractError):
        charp.t_power(FpMatrix.diagonal(5, [1, 2]), 3)  # not unipotent


def test_exp_log_round_trips():
    rng = random.Random("roundtrip")
    for p in (2, 3, 5, 7):
        for _ in range(30):
            n = rng.randint(1, p)
            g = random_invertible(rng, p, n)
            x = g * random_strict_upper(rng, p, n) * charp.inverse(g)
            u = charp.trunc_exp(x)
            assert (u - FpMatrix.identity(p, n)).is_nilpotent()
            assert charp.trunc_log(u) == x
            assert charp.trunc_exp(charp.trunc_log(u)) == u


def test_series_keep_nothing_per_input():
    p, n = 1009, 3
    rng = random.Random("retention")
    inputs = [random_strict_upper(rng, p, n) for _ in range(20)]
    charp.trunc_exp(inputs[0])  # warm any per-process state before measuring
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for x in inputs:
            charp.trunc_exp(x)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000


def test_t_power_examples():
    p = 3
    u = FpMatrix.from_rows(p, [[1, 1], [0, 1]])
    assert charp.t_power(u, 0).is_identity()
    assert charp.t_power(u, 1) == u
    assert charp.t_power(u, 2).rows == ((1, 2), (0, 1))
    assert charp.t_power(u, p).is_identity()  # order p
    assert charp.t_power(u, -1) == charp.inverse(u)
    assert charp.t_power(u, 5) == charp.t_power(u, 5 % p)


def test_t_power_rejects_a_non_integer_exponent():
    # the binomial recurrence ran on 1.5 and returned float rows, not residues mod p
    u = FpMatrix.from_rows(5, [[1, 1], [0, 1]])
    for t in (1.5, True, F(2)):
        with pytest.raises(ValueError, match="is not an integer"):
            charp.t_power(u, t)


def test_t_power_matches_repeated_multiplication():
    rng = random.Random("tpower")
    for p in (3, 5, 7):
        for _ in range(15):
            n = rng.randint(1, p)
            g = random_invertible(rng, p, n)
            u = charp.trunc_exp(g * random_strict_upper(rng, p, n) * charp.inverse(g))
            t = rng.randrange(2 * p)
            assert charp.t_power(u, t) == u ** t


def test_pow_makes_no_unused_products(mul_count):
    a = FpMatrix.from_rows(7, [[1, 2], [3, 4]])
    for k in range(21):
        mul_count[0] = 0
        a ** k
        # one squaring per bit below the top one, one product per set bit past the first
        assert mul_count[0] == max(k.bit_length() - 1, 0) + max(bin(k).count("1") - 1, 0)


def _p_term_series(nil, coeffs):
    """The sum of c_k . nil^k over every coefficient given, checking nil^p = 0 only
    after the last: the route the series took before they stopped at the
    nilpotency index, kept as an oracle."""
    terms = []
    power = FpMatrix.identity(nil.p, nil.n)
    for c in coeffs:
        terms.append((c, power))
        power = power * nil
    if not power.is_zero():
        raise ContractError("matrix power p does not vanish")
    return charp._combination(nil.p, nil.n, terms)


def _trunc_exp_p_terms(x):
    p = x.p
    return _p_term_series(x, [pow(math.factorial(k), -1, p) for k in range(p)])


def _trunc_log_p_terms(u):
    p = u.p
    coeffs = [0] + [(-1) ** (k + 1) * pow(k, -1, p) for k in range(1, p)]
    return _p_term_series(u - FpMatrix.identity(p, u.n), coeffs)


def _t_power_p_terms(u, t):
    p = u.p
    binomials = accumulate(range(1, p), lambda c, k: c * (t - k + 1) * pow(k, -1, p) % p,
                           initial=1)
    return _p_term_series(u - FpMatrix.identity(p, u.n), binomials)


def _unipotents(rng, p, n):
    """A p-unipotent whose Jordan blocks are at most p long, a Jordan block
    with (u - 1)^p != 0 once n > p, and a matrix that is not unipotent."""
    blocks = [[0] * n for _ in range(n)]
    start = 0
    while start < n:
        size = rng.randint(1, min(p, n - start))
        for i in range(start, start + size):
            for j in range(i + 1, start + size):
                blocks[i][j] = rng.randrange(p)
        start += size
    g = random_invertible(rng, p, n)
    one = FpMatrix.identity(p, n)
    out = [one + g * FpMatrix.from_rows(p, blocks) * charp.inverse(g)]
    if n > p:
        out.append(one + _jordan(p, n))
    out.append(FpMatrix.diagonal(p, [1] * (n - 1) + [2]))
    return out


def test_t_power_matches_the_p_term_series():
    rng = random.Random("tpower-twin")
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, p + 3):
            for u in _unipotents(rng, p, n):
                for t in range(-p, 2 * p):
                    try:
                        want = _t_power_p_terms(u, t)
                    except ContractError:
                        with pytest.raises(ContractError, match="matrix power p does not vanish"):
                            charp.t_power(u, t)
                    else:
                        assert charp.t_power(u, t) == want


def test_t_power_products_follow_n_not_p(mul_count):
    p = 10007
    u = FpMatrix.from_rows(p, [[1, 5], [0, 1]])
    assert charp.t_power(u, p - 1) == FpMatrix.from_rows(p, [[1, -5], [0, 1]])
    assert mul_count[0] <= 2


def _outcome(f, *args):
    """What f returns, or the message of the ContractError it raises."""
    try:
        return f(*args)
    except ContractError as e:
        return str(e)


def test_trunc_exp_and_trunc_log_match_the_p_term_series():
    rng = random.Random("series-twin")
    outcomes = set()
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, p + 3):
            one = FpMatrix.identity(p, n)
            for u in _unipotents(rng, p, n):
                got = _outcome(charp.trunc_exp, u - one)
                assert got == _outcome(_trunc_exp_p_terms, u - one)
                outcomes.add(type(got))
                got = _outcome(charp.trunc_log, u)
                assert got == _outcome(_trunc_log_p_terms, u)
                outcomes.add(type(got))
    assert outcomes == {FpMatrix, str}


def _series_calls(x):
    one = FpMatrix.identity(x.p, x.n)
    return ((charp.trunc_exp, x), (charp.trunc_log, one + x), (lambda u: charp.t_power(u, 3), one + x))


def test_trunc_exp_of_a_square_zero_matrix_makes_one_product(mul_count):
    # the identity and x are terms of the series, never factors: only x . x is a product
    assert charp.trunc_exp(_jordan(5, 2)) == FpMatrix.from_rows(5, [[1, 1], [0, 1]])
    assert mul_count[0] == 1


@pytest.mark.parametrize("p", [5, 10007])
def test_series_products_stop_at_the_nilpotency_index(mul_count, monkeypatch, p):
    packed = _count_calls(monkeypatch, "_packed")  # nil once a series, not once a product
    for n in range(1, 6):
        for k in range(1, n + 1):
            for f, arg in _series_calls(_jordan(p, n, k)):
                mul_count[0] = packed[0] = 0
                f(arg)
                assert (mul_count[0], packed[0]) == (k - 1, 1)


def test_series_contract_failures_make_min_n_p_products(mul_count, monkeypatch):
    packed = _count_calls(monkeypatch, "_packed")
    p = 10007
    for n in range(1, 6):
        for f, arg in _series_calls(FpMatrix.diagonal(p, [0] * (n - 1) + [1])):
            mul_count[0] = packed[0] = 0
            with pytest.raises(ContractError, match="matrix power p does not vanish"):
                f(arg)
            assert (mul_count[0], packed[0]) == (n - 1, 1)
    # J_5 is nilpotent, but J_5^3 != 0: J_5^2 and J_5^3 are the two products at p = 3
    for f, arg in _series_calls(_jordan(3, 5)):
        mul_count[0] = 0
        with pytest.raises(ContractError, match="matrix power p does not vanish"):
            f(arg)
        assert mul_count[0] == 2


def _walked_series(nil, coeffs):
    """The sum of c_k . nil^k with each power formed as power * nil and the terms
    summed by ``_combination``: the route the series took before they stayed on
    packed rows, kept as an oracle."""

    def terms():
        power = FpMatrix.identity(nil.p, nil.n)
        for k, c in enumerate(islice(coeffs, nil.n)):
            yield c, power
            power = power * nil if k else nil
            if power.is_zero():
                return
        raise ContractError("matrix power p does not vanish")

    return charp._combination(nil.p, nil.n, terms())


def _walked_exp(x):
    p = x.p
    return _walked_series(x, accumulate(range(1, p), lambda c, k: c * pow(k, -1, p) % p,
                                        initial=1))


def _walked_log(u):
    p = u.p
    coeffs = (0 if k == 0 else (-1) ** (k + 1) * pow(k, -1, p) for k in range(p))
    return _walked_series(u - FpMatrix.identity(p, u.n), coeffs)


def _walked_t_power(u, t):
    p = u.p
    binomials = accumulate(range(1, p), lambda c, k: c * (t - k + 1) * pow(k, -1, p) % p,
                           initial=1)
    return _walked_series(u - FpMatrix.identity(p, u.n), binomials)


@pytest.mark.parametrize("p", PRODUCT_PRIMES)
def test_series_match_the_walked_twin(p):
    # The packed total holds n unreduced terms.  Its slots fill most on long series with
    # large residues: the strictly upper matrix of p - 1 in _drawn has nilpotency index n
    # and powers dense above the diagonal, a drawn conjugate of a strictly upper matrix
    # has dense powers, and at t = p - 1 every binomial is p - 1 or 1.  Once n > p the
    # p-th power of either survives, and the series must fail as the walk does.
    rng = random.Random(f"walked-series-{p}")
    outcomes = set()
    for n in range(1, 10):
        one = FpMatrix.identity(p, n)
        for nil in [random_conjugate(rng, random_strict_upper(rng, p, n)), *_drawn(rng, p, n)]:
            u = one + nil
            calls = [(charp.trunc_exp, _walked_exp, (nil,)), (charp.trunc_log, _walked_log, (u,))]
            calls += [(charp.t_power, _walked_t_power, (u, t))
                      for t in (2, p - 1, rng.randrange(-p, 2 * p))]
            for f, twin, args in calls:
                got = _outcome(f, *args)
                assert got == _outcome(twin, *args)
                assert isinstance(got, str) or _canonical(got)
                outcomes.add(type(got))
    assert outcomes == {FpMatrix, str}


# --- tabulated group law ---------------------------------------------------

def test_bch_table_validation():
    with pytest.raises(ValueError):
        charp.bch_table(4, 2)
    with pytest.raises(ValueError):
        charp.bch_table(5, 0)
    with pytest.raises(ValueError):
        charp.bch_table(3, 3)  # denominators would hit p
    table = charp.bch_table(5, 4)
    assert table.p == 5 and table.max_degree == 4


def test_bch_table_rejects_a_non_integer_degree():
    # True == 1 passed the range checks and tabulated degree 1
    for degree in (True, 2.0, F(2)):
        with pytest.raises(ValueError, match="is not an integer"):
            charp.bch_table(5, degree)


def test_bch_apply_identity_element():
    p = 5
    table = charp.bch_table(p, 3)
    x, zero = _jordan(p, 4), FpMatrix.identity(p, 4).scale(0)
    assert charp.bch_apply(table, x, zero) == x
    assert charp.bch_apply(table, zero, x) == x


def test_bch_apply_is_the_group_law():
    rng = random.Random("bchapply")
    for p in (3, 5, 7):
        for _ in range(25):
            n = rng.randint(2, p)
            table = charp.bch_table(p, n - 1)
            x = random_strict_upper(rng, p, n)
            y = random_strict_upper(rng, p, n)
            z = charp.bch_apply(table, x, y)
            assert z.is_strictly_upper()
            assert charp.trunc_exp(z) == charp.trunc_exp(x) * charp.trunc_exp(y)


def test_bch_apply_matches_the_direct_route():
    rng = random.Random("bchdirect")
    for p in (3, 5, 7):
        for n in range(1, p + 1):
            table = charp.bch_table(p, max(n - 1, 1))
            for _ in range(4):
                x = random_strict_upper(rng, p, n)
                y = random_strict_upper(rng, p, n)
                direct = charp.trunc_log(charp.trunc_exp(x) * charp.trunc_exp(y))
                assert charp.bch_apply(table, x, y) == direct


def _two_product_bch(table, x, y):
    """bch_apply with each bracket formed by ``_two_product_bracket``, kept as an oracle."""
    letters = {(0,): x, (1,): y}
    values = dict(letters)

    def value(word):
        if word not in values:
            values[word] = _two_product_bracket(value(word[:-1]), letters[word[-1:]])
        return values[word]

    terms = [(charp._fraction_mod(c, x.p), value(word)) for word, c in table.terms if len(word) < x.n]
    return charp._combination(x.p, x.n, terms)


def test_bch_apply_matches_the_two_product_twin():
    rng = random.Random("bch-twin")
    for p in PRODUCT_PRIMES:
        for n in range(1, min(p, 9) + 1):
            table = charp.bch_table(p, max(n - 1, 1))
            uppers = [m for m in _drawn(rng, p, n) if m.is_strictly_upper()]
            for x in uppers:
                for y in uppers:
                    got = charp.bch_apply(table, x, y)
                    assert got == _two_product_bch(table, x, y) and _canonical(got)


@pytest.mark.parametrize("p,n", [(3, 3), (5, 5), (7, 7), (11, 11), (13, 13), (101, 8)])
def test_bch_apply_fills_the_widest_slot(p, n):
    # at n = p the table of degree n - 1 is the largest there is; from p = 7 on it
    # has more than 2n terms, so the slot of the final sum must hold more than a
    # bracket's 2n . (p - 1)^2.  x is p - 1 above the diagonal.  With p - 1 on the
    # superdiagonal it commutes, as both are polynomials in the shift, so every
    # bracket vanishes.  With a drawn strictly upper y the final slots reach about
    # 60,000 at p = 13, past the 4,095 that a width for 2n . (p - 1)^2 leaves.
    table = charp.bch_table(p, n - 1)
    x = FpMatrix.from_rows(p, [[p - 1 if c > r else 0 for c in range(n)] for r in range(n)])
    shift = FpMatrix.from_rows(p, [[p - 1 if c == r + 1 else 0 for c in range(n)]
                                   for r in range(n)])
    assert charp.bch_apply(table, x, shift) == x + shift
    y = random_strict_upper(random.Random(f"widest-slot-{p}"), p, n)
    got = charp.bch_apply(table, x, y)
    assert got == _two_product_bch(table, x, y) and _canonical(got)


def test_bch_apply_forms_each_bracket_prefix_once(mul_count):
    # one packed sum per left-nested bracket: per distinct prefix, of length 2 or
    # more, of a word that is shorter than n and whose coefficient is non-zero mod p
    rng = random.Random("bch-work")
    for p in (3, 5, 7, 13):
        table = charp.bch_table(p, min(p - 1, 10))
        for n in range(2, min(p, 11) + 1):
            words = [w for w, c in table.terms if len(w) < n and c.numerator % p]
            prefixes = {w[:k] for w in words for k in range(2, len(w) + 1)}
            mul_count[0] = 0
            charp.bch_apply(table, random_strict_upper(rng, p, n), random_strict_upper(rng, p, n))
            assert mul_count[0] == len(prefixes)
    # at p = 13, four words of length 10 have coefficients that vanish mod 13
    assert len([w for w, c in table.terms if c.numerator % 13 == 0]) == 4


def test_bch_apply_validation_and_contracts():
    p = 5
    table = charp.bch_table(p, 4)
    x = _jordan(p, 3)
    with pytest.raises(ContractError):
        charp.bch_apply(table, x, FpMatrix.identity(p, 3))  # not strictly upper
    with pytest.raises(ContractError):
        charp.bch_apply(charp.bch_table(3, 2), _jordan(3, 4), _jordan(3, 4))  # size > p
    with pytest.raises(ValueError):
        charp.bch_apply(table, x, _jordan(p, 4))  # size mismatch
    with pytest.raises(ValueError):
        charp.bch_apply(charp.bch_table(7, 2), _jordan(7, 5), _jordan(7, 5))  # table too small
    with pytest.raises(ValueError):
        charp.bch_apply(charp.bch_table(7, 4), x, x)  # characteristic mismatch


def test_bch_apply_rejects_a_coefficient_that_does_not_reduce_mod_p():
    # bch_table never holds such a term, so only a hand-built table reaches the check
    table = charp.BchTable(5, 2, (((0, 1), F(1, 5)),))
    x, y = _jordan(5, 3), FpMatrix.from_rows(5, [[0, 0, 1], [0, 0, 2], [0, 0, 0]])
    with pytest.raises(ContractError, match="coefficient 1/5 has denominator divisible by 5"):
        charp.bch_apply(table, x, y)


# --- p-th power sharpness ---------------------------------------------------

def test_p_power_check_rejects_non_nilpotent():
    with pytest.raises(ContractError):
        charp.nilpotent_p_power_check(FpMatrix.identity(3, 2))


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", range(1, 10))
def test_jordan_blocks_detect_the_sharp_bound(p, n):
    assert charp.nilpotent_p_power_check(_jordan(p, n)) == (n <= p)


def test_nilpotent_p_power_check_forms_x_to_the_p_only_below_the_size(mul_count):
    assert charp.nilpotent_p_power_check(_jordan(7, 3))
    assert mul_count[0] == 2  # x^3 for the nilpotency test, no x^7
    mul_count[0] = 0
    assert not charp.nilpotent_p_power_check(_jordan(2, 3))
    assert mul_count[0] == 3  # x^3, then x^2, which is not 0


# --- scalar-shift lift -------------------------------------------------------

def test_lift_of_cycle_matrix():
    x = charp.cyclic_shift_matrix(3, (1, 1, 1))
    lifted = charp.pgl_nilpotent_lift(x)
    assert lifted == x - FpMatrix.identity(3, 3)
    assert (lifted ** 3).is_zero()


def test_lift_recovers_scalar_shift_exactly():
    rng = random.Random("lift")
    for p in (3, 5):
        for _ in range(20):
            g = random_invertible(rng, p, p)
            nil = g * random_strict_upper(rng, p, p) * charp.inverse(g)
            c = rng.randrange(p)
            shifted = nil + FpMatrix.identity(p, p).scale(c)
            assert charp.pgl_nilpotent_lift(shifted) == nil


def test_lift_rejects_obstructed_matrices():
    with pytest.raises(ContractError):
        charp.pgl_nilpotent_lift(FpMatrix.diagonal(3, [1, 2, 0]))
    with pytest.raises(ValueError):
        charp.pgl_nilpotent_lift(FpMatrix.identity(3, 2))


def test_lift_and_cycle_self_checks_fire_on_a_wrong_power(monkeypatch):
    # both guard an identity of x^p; a power one factor short breaks each
    power = FpMatrix.__pow__
    monkeypatch.setattr(FpMatrix, "__pow__", lambda m, k: power(m, k - 1))
    with pytest.raises(ContractError, match="scalar shift failed to be nilpotent"):
        charp.pgl_nilpotent_lift(FpMatrix.from_rows(3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    with pytest.raises(ContractError, match="cycle power identity failed"):
        charp.cyclic_shift_matrix(3, (1, 2, 1))


# --- cyclic shifts ------------------------------------------------------------

def test_cyclic_shift_frozen_layout():
    x = charp.cyclic_shift_matrix(3, (1, 2, 1))
    assert x.rows == ((0, 1, 0), (0, 0, 2), (1, 0, 0))
    assert (x ** 3) == FpMatrix.identity(3, 3).scale(2)
    assert charp.cycle_power_scalar(3, (1, 2, 1)) == 2


def test_cyclic_shift_with_unit_weights_has_order_p():
    x = charp.cyclic_shift_matrix(5, (1,) * 5)
    assert (x ** 5).is_identity()
    assert not x.is_nilpotent()


def test_cyclic_shift_validation():
    with pytest.raises(ValueError):
        charp.cyclic_shift_matrix(4, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        charp.cyclic_shift_matrix(5, (1, 1, 1))
    with pytest.raises(ContractError):
        charp.cyclic_shift_matrix(3, (1, 0, 1))


def test_cyclic_shift_rejects_non_integer_weights():
    # int() would quietly read 1.7 as weight 1
    for weights in ((1.7, 1, 1), (1, True, 1), (1, 1, "1")):
        with pytest.raises(ValueError, match="is not an integer"):
            charp.cyclic_shift_matrix(3, weights)


def test_scaling_by_a_non_integer_is_rejected():
    # scale(1.5) returned float rows, and m * 1.5 escaped as AttributeError
    m = FpMatrix.identity(5, 2)
    for scalar in (1.5, 2.0, True, F(1, 2)):
        for scaled in (FpMatrix.scale, FpMatrix.__mul__, lambda a, c: c * a):
            with pytest.raises(ValueError, match="is not an integer"):
                scaled(m, scalar)


def test_cycle_power_scalar_rejects_non_integer_weights():
    # prod(map(int, ...)) read 1.7 as 1 and gave the scalar 1
    for weights in ((1.7, 1, 1), (1, True, 1), (1, 1, "1")):
        with pytest.raises(ValueError, match="is not an integer"):
            charp.cycle_power_scalar(3, weights)


def test_cyclic_shift_determinant_is_weight_product():
    rng = random.Random("cycledet")
    for p in (3, 5, 7):
        for _ in range(10):
            w = tuple(rng.randrange(1, p) for _ in range(p))
            # odd p: the p-cycle is an even permutation
            assert charp.det(charp.cyclic_shift_matrix(p, w)) == charp.cycle_power_scalar(p, w)


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("argv,nilpotent", [
    (["cycle", "--p", "7", "--t", "1,2,3,4,5,6,1"], "is_nilpotent"),
    (["weightdemo", "--p", "7"], "witness_is_nilpotent"),
])
def test_cycle_reports_form_one_p_th_power(mul_count, argv, nilpotent):
    code, out = _cli(argv)
    assert code == 0 and out["result"][nilpotent] is False
    assert mul_count[0] == 4  # x^7: two squarings and two products


def test_pgl_lift_reads_the_determinant_off_the_lift(monkeypatch):
    calls = []
    monkeypatch.setattr(charp, "det", lambda m: calls.append(m))
    code, out = _cli(["pgl-lift", "--p", "3", "--matrix", "[[0,1,0],[0,0,1],[2,0,0]]"])
    assert code == 0 and out["result"]["det"] == 2
    assert calls == []


# --- Heisenberg pair and weight grading ---------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_heisenberg_pair_spans_everything(p):
    report = charp.heisenberg_module_check(p)
    assert report.shift_order_ok
    assert report.commutator_ok
    assert report.span_dimension == p * p
    assert report.spans_full_algebra


def _dense_span_dimension(seed, multipliers):
    """Dense two-sided closure over p^2-long rows: the route the Heisenberg
    span took before it went sparse and one-sided."""
    p = seed[0].p
    n = seed[0].n
    width = n * n
    echelon = {}

    def reduce(vec):
        for lead in range(width):
            if vec[lead] == 0:
                continue
            row = echelon.get(lead)
            if row is None:
                inv = pow(vec[lead], -1, p)
                echelon[lead] = [(x * inv) % p for x in vec]
                return lead
            f = vec[lead]
            vec = [(x - f * y) % p for x, y in zip(vec, row)]
        return None

    queue = deque(seed)
    while queue:
        m = queue.popleft()
        vec = [x for r in m.rows for x in r]
        if reduce(vec) is None:
            continue
        for g in multipliers:
            queue.append(m * g)
            queue.append(g * m)
    return len(echelon)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_span_dimension_matches_dense_twin_on_heisenberg_pair(p):
    s = charp.cyclic_shift_matrix(p, (1,) * p)
    d = FpMatrix.diagonal(p, range(p))
    dense = _dense_span_dimension([FpMatrix.identity(p, p)], [s, d])
    assert charp._algebra_dimension([s, d]) == dense == p * p


def test_span_dimension_matches_dense_twin_on_random_input():
    rng = random.Random("span-twin")
    dims = set()

    def sample(p, n):
        density = rng.choice((0.2, 0.5, 1.0))
        return FpMatrix.from_rows(p, [[rng.randrange(p) if rng.random() < density else 0
                                       for _ in range(n)] for _ in range(n)])

    for p in (2, 3, 5, 7):
        for n in range(1, 7 if p < 7 else 5):
            for _ in range(12):
                gens = [sample(p, n) for _ in range(rng.randint(1, 3))]
                want = _dense_span_dimension([FpMatrix.identity(p, n)], gens)
                assert charp._algebra_dimension(gens) == want
                dims.add(want)
    assert len(dims) > 8  # the sample reaches many dimensions, 1 (scalars only) included
    assert 1 in dims


def test_heisenberg_validates_prime():
    with pytest.raises(ValueError):
        charp.heisenberg_module_check(6)


def test_weight_grading_frozen_p3():
    report = charp.weight_space_demo(3)
    assert report.component_dims == ((0, 2), (3, 3), (6, 3))
    assert report.total_dim == 8
    assert report.alpha_weight == 3
    assert report.alpha_entries == ((0, 1), (1, 2), (2, 0))
    assert report.alpha_carries_cycle
    assert report.witness_power_scalar == 1
    assert not report.witness_is_nilpotent


def test_weight_grading_shape_p5():
    report = charp.weight_space_demo(5)
    assert report.total_dim == 24
    assert len(report.component_dims) == 5
    assert dict(report.component_dims)[0] == 4
    assert len(report.alpha_entries) == 5


def test_weight_grading_validation():
    with pytest.raises(ValueError):
        charp.weight_space_demo(2)
    with pytest.raises(ValueError):
        charp.weight_space_demo(9)


# --- primality -----------------------------------------------------------------

def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(100_000) if is_prime(n)] == \
        [n for n in range(100_000) if _trial_division(n)]
    rng = random.Random("primality")
    for n in (rng.randrange(100_000, 1_000_000) for _ in range(3000)):
        assert is_prime(n) == _trial_division(n), n


def test_is_prime_rejects_pseudoprimes_and_bounds_its_range():
    # a Carmichael number; strong pseudoprimes to the bases 2..7, 2..23 and
    # 2..37 (the last needs base 41); a product of two primes near the bound
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461,
              999999999989 * 1000000000039):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1)
    assert is_prime(10 ** 18 + 3)
    assert is_prime(318665857834031151167483)  # next prime above the 2..37 one
    assert is_prime(3317044064679887385961813)  # largest prime below the bound
    for n in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="only decided below"):
            is_prime(n)


def test_require_int_rejects_bool_float_and_str_and_accepts_a_big_int():
    for bad in (False, True, 2.0, 1.5, "2"):
        with pytest.raises(ValueError) as excinfo:
            require_int(bad, "x")
        assert str(excinfo.value) == f"x {bad!r} is not an integer"
    assert require_int(10**99 + 7, "x") is None
    assert require_int(-3, "x") is None
