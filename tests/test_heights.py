"""Height computations: the two routes, extremal values, and composite bounds."""

import dataclasses
import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liep import heights, rootsys
from liep.errors import ContractError
from liep.rootsys import WeightVec, fundamental_weight

ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(3, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

EXHAUSTIVE = [(t, n) for t, n in ALL_TYPES if n <= 4]
SAMPLED = [(t, n) for t, n in ALL_TYPES if n > 4]


@pytest.mark.parametrize("n", range(2, 10))
def test_vector_rep_height_is_n_minus_one(n):
    rs = rootsys.build("A", n - 1)
    assert heights.dynkin_height(rs, fundamental_weight(rs, 1)).height == n - 1


def test_adjoint_style_weight_example():
    rs = rootsys.build("A", 4)
    assert heights.dynkin_height(rs, WeightVec((1, 0, 0, 1))).height == 8


def test_middle_wedge_example():
    rs = rootsys.build("A", 3)
    assert heights.dynkin_height(rs, fundamental_weight(rs, 2)).height == 4


def test_zero_weight_has_zero_height():
    rs = rootsys.build("F", 4)
    report = heights.dynkin_height(rs, WeightVec((0, 0, 0, 0)))
    assert report.height == 0
    assert report.lambda_minus.coords == (0, 0, 0, 0)


def test_nondominant_weight_rejected():
    rs = rootsys.build("A", 2)
    with pytest.raises(ContractError):
        heights.dynkin_height(rs, WeightVec((1, -1)))


@pytest.mark.parametrize("coords", [(1, 0, 0, 0), (0, 0, 1, 5), (1, 0)])
def test_weight_of_the_wrong_length_is_rejected_by_both_entry_points(coords):
    # a longer weight once lost its tail silently and a shorter one raised IndexError
    rs = rootsys.build("A", 3)
    message = f"expected 3 coordinates for A3, got {len(coords)}"
    with pytest.raises(ValueError, match=message):
        heights.dynkin_height(rs, WeightVec(coords))
    with pytest.raises(ValueError, match=message):
        heights.antidominant_conjugate(rs, WeightVec(coords))


@pytest.mark.parametrize("t,n", EXHAUSTIVE)
def test_routes_agree_exhaustively_low_rank(t, n):
    rs = rootsys.build(t, n)
    for coords in itertools.product(range(4), repeat=n):
        report = heights.dynkin_height(rs, WeightVec(coords))
        assert report.via_pairing == report.via_difference == report.height


@pytest.mark.parametrize("t,n", SAMPLED)
def test_routes_agree_sampled_high_rank(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"heights:{t}{n}")
    for _ in range(20):
        coords = tuple(rng.randrange(5) for _ in range(n))
        report = heights.dynkin_height(rs, WeightVec(coords))
        assert report.via_pairing == report.via_difference == report.height


def test_antidominant_conjugate_is_antidominant_and_recoverable():
    rng = random.Random("antidominant")
    for t, n in [("A", 3), ("B", 3), ("C", 4), ("D", 5), ("G", 2), ("F", 4)]:
        rs = rootsys.build(t, n)
        for _ in range(25):
            lam = WeightVec(tuple(rng.randrange(6) for _ in range(n)))
            low = heights.antidominant_conjugate(rs, lam)
            assert all(c <= 0 for c in low.coords)
            # greedy ascent from the bottom climbs back to the dominant conjugate
            coords = list(low.coords)
            for _ in range(len(rs.positive_roots) * 12 + 1):
                i = next((k for k in range(n) if coords[k] < 0), None)
                if i is None:
                    break
                ci = coords[i]
                for k in range(n):
                    coords[k] -= ci * rs.cartan[k][i]
            assert tuple(coords) == lam.coords


def test_height_is_additive():
    rng = random.Random("additive")
    for t, n in [("A", 4), ("B", 3), ("E", 6)]:
        rs = rootsys.build(t, n)
        for _ in range(15):
            lam = WeightVec(tuple(rng.randrange(4) for _ in range(n)))
            mu = WeightVec(tuple(rng.randrange(4) for _ in range(n)))
            total = heights.dynkin_height(rs, lam + mu).height
            assert total == heights.dynkin_height(rs, lam).height + heights.dynkin_height(rs, mu).height


@pytest.mark.parametrize(
    "t,n,expected",
    [("F", 4, 16), ("E", 6, 16), ("E", 7, 27), ("E", 8, 58), ("B", 3, 6), ("C", 3, 5), ("G", 2, 6)],
)
def test_min_fundamental_heights_named(t, n, expected):
    assert heights.min_nontrivial_height(rootsys.build(t, n)) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_min_fundamental_height_type_a(n):
    assert heights.min_nontrivial_height(rootsys.build("A", n)) == n


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_min_height_at_least_coxeter_minus_one(t, n):
    rs = rootsys.build(t, n)
    assert heights.min_nontrivial_height(rs) >= rs.coxeter_number - 1


@pytest.mark.parametrize("n", range(1, 9))
def test_type_a_meets_the_coxeter_floor(n):
    rs = rootsys.build("A", n)
    assert heights.min_nontrivial_height(rs) == rs.coxeter_number - 1


def test_composite_height_examples():
    assert heights.composite_gl_height((2,), (1,)) == 1
    assert heights.composite_gl_height((4, 6), (2, 3)) == 4 + 9
    assert heights.composite_gl_height((5, 5, 5), (0, 5, 2)) == 6


@pytest.mark.parametrize("d", range(2, 11))
def test_single_column_composite_matches_vector_rep(d):
    assert heights.composite_gl_height((d,), (1,)) == d - 1


@pytest.mark.parametrize("d,m", [(4, 2), (5, 2), (6, 3), (7, 3), (8, 2), (9, 4), (10, 5)])
def test_composite_matches_wedge_weight_height(d, m):
    rs = rootsys.build("A", d - 1)
    wedge = heights.dynkin_height(rs, fundamental_weight(rs, m)).height
    assert heights.composite_gl_height((d,), (m,)) == wedge


def test_composite_height_validation():
    with pytest.raises(ValueError):
        heights.composite_gl_height((4, 6), (2,))
    with pytest.raises(ValueError):
        heights.composite_gl_height((0,), (0,))
    with pytest.raises(ContractError):
        heights.composite_gl_height((4,), (5,))
    with pytest.raises(ContractError):
        heights.composite_gl_height((4,), (-1,))


def test_composite_height_rejects_non_integer_factors():
    # m (d - m) ran on 2.5 and gave 1.5, so the bound test answered True at p = 2
    for dims, ms in (((2.5,), (1,)), ((4,), (1.5,)), ((4, True), (2, 0)), ((4,), (Fraction(2),))):
        with pytest.raises(ValueError, match="is not an integer"):
            heights.composite_gl_height(dims, ms)
        with pytest.raises(ValueError, match="is not an integer"):
            heights.semisimplicity_bound_ok(dims, ms, 2)


def test_semisimplicity_bound():
    assert heights.semisimplicity_bound_ok((4,), (2,), 5)
    assert not heights.semisimplicity_bound_ok((4,), (2,), 3)
    assert heights.semisimplicity_bound_ok((2, 3), (1, 1), 5)
    with pytest.raises(ValueError):
        heights.semisimplicity_bound_ok((4,), (2,), 6)


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_fundamental_weights_clear_coxeter_floor(t, n):
    rs = rootsys.build(t, n)
    for i in range(1, n + 1):
        assert heights.dynkin_height(rs, fundamental_weight(rs, i)).height >= rs.coxeter_number - 1


# Slow twins at rank <= 12: the integer height route against the Fraction route it
# replaced (Gauss-Jordan inverse of the Cartan matrix over Q), copied here as it was.
TWINS = [("A", 8), ("A", 12), ("B", 8), ("B", 12), ("C", 8), ("C", 12), ("D", 8), ("D", 12),
         ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


def _fraction_inverse(cartan):
    n = len(cartan)
    aug = [[Fraction(cartan[r][c]) for c in range(n)] + [Fraction(int(r == c)) for c in range(n)]
           for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _fraction_root_coords(cinv, coords):
    n = len(coords)
    return tuple(sum((cinv[r][c] * coords[c] for c in range(n)), Fraction(0)) for r in range(n))


@pytest.mark.parametrize("t,n", TWINS)
def test_integer_height_route_matches_fraction_route(t, n):
    rs = rootsys.build(t, n)
    cinv = _fraction_inverse(rs.cartan)
    rng = random.Random(f"height-twin:{t}{n}")
    for _ in range(200):
        lam = WeightVec(tuple(rng.randrange(6) for _ in range(n)))
        report = heights.dynkin_height(rs, lam)
        diff = lam - report.lambda_minus
        slow = _fraction_root_coords(cinv, diff.coords)
        assert all(x.denominator == 1 for x in slow)
        assert report.via_difference == int(sum(slow)) == report.via_pairing
        # the root coordinates the descent records are the Fraction route's coordinates
        assert tuple(heights._descend(rs, lam)[1]) == slow


def _shift_the_conjugate(monkeypatch, i):
    """Make ``_descend`` return its endpoint less omega_i, with the recorded steps kept."""
    descend = heights._descend

    def shifted(rs, w):
        low, steps = descend(rs, w)
        low[i - 1] -= 1
        return low, steps

    monkeypatch.setattr(heights, "_descend", shifted)


@pytest.mark.parametrize("t,n", [(t, n) for t, n in TWINS if (t, n) not in (("E", 8), ("F", 4), ("G", 2))])
def test_non_conjugate_leaves_the_root_lattice(t, n, monkeypatch):
    rs = rootsys.build(t, n)
    cinv = _fraction_inverse(rs.cartan)
    # a fundamental weight outside the root lattice: a non-integral column of C^-1
    i = next(i for i in range(1, n + 1) if any(cinv[r][i - 1].denominator != 1 for r in range(n)))
    _shift_the_conjugate(monkeypatch, i)
    with pytest.raises(ContractError, match="do not give weight minus its conjugate"):
        heights.dynkin_height(rs, fundamental_weight(rs, 1))


@pytest.mark.parametrize("t,n", [("E", 8), ("F", 4), ("G", 2)])
def test_non_conjugate_inside_the_root_lattice_fails_the_root_coordinate_check(t, n, monkeypatch):
    # det C = 1: every shifted difference is still in the root lattice, so a divisibility
    # test cannot see it, but the recorded steps no longer give it
    rs = rootsys.build(t, n)
    for i in range(1, n + 1):
        _shift_the_conjugate(monkeypatch, i)
        with pytest.raises(ContractError, match="do not give weight minus its conjugate"):
            heights.dynkin_height(rs, fundamental_weight(rs, 1))
        monkeypatch.undo()


# Slow twin of the descent: the loop it replaced, copied here as it was (a rescan from
# index 0, a dense reflection per letter, and the pairing with 2 rho^vee in full).
DESCENT_TWINS = ([("A", n) for n in range(1, 13)] + [(t, n) for t in "BC" for n in range(2, 13)]
                 + [("D", n) for n in range(4, 13)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4),
                                                       ("G", 2), ("A", 60)])


def _descent_twin(rs, weight):
    two_rho = rs._two_rho_coroot
    coords = list(weight.coords)
    for _ in range(len(rs.positive_roots) + 1):
        i = next((k for k in range(rs.rank) if coords[k] > 0), None)
        if i is None:
            return WeightVec(tuple(coords))
        before = sum(map(mul, coords, two_rho))
        x = coords[i]
        coords = [coords[k] - rs.cartan[k][i] * x for k in range(rs.rank)]  # l_k -= C[k][i] l_i
        assert sum(map(mul, coords, two_rho)) < before
    raise AssertionError("descent exceeded the number of positive roots")


@pytest.mark.parametrize("t,n", [("A", 4), ("B", 3), ("C", 3), ("F", 4), ("G", 2)])
def test_a_coroot_sum_that_breaks_the_pairing_with_a_simple_root_stops_the_descent(t, n, monkeypatch):
    # raising coordinate k of 2 rho^vee raises <alpha_k, 2 rho^vee> from 2 to 4: the pairing
    # route then disagrees with the descent's root coordinates, which never read 2 rho^vee
    rs = rootsys.build(t, n)
    rho = WeightVec((1,) * n)
    two_rho, low = rs._two_rho_coroot, heights.antidominant_conjugate(rs, rho)
    for k in range(n):
        raised = two_rho[:k] + (two_rho[k] + 1,) + two_rho[k + 1:]
        monkeypatch.setitem(vars(rs), "_two_rho_coroot", raised)
        with pytest.raises(ContractError, match="height routes disagree"):
            heights.dynkin_height(rs, rho)
        assert heights.antidominant_conjugate(rs, rho) == low
        monkeypatch.undo()


def test_the_antidominant_descent_reads_no_coroot_sum():
    # a copy starts with no derived fact, so a read of 2 rho^vee would leave it in the copy
    for t, n in [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]:
        rs = rootsys.build(t, n)
        fresh = dataclasses.replace(rs)
        low = heights.antidominant_conjugate(rs, WeightVec((1,) * n))
        assert heights.antidominant_conjugate(fresh, WeightVec((1,) * n)) == low
        assert "_two_rho_coroot" not in vars(fresh), (t, n)


@pytest.mark.parametrize("entry", [heights.dynkin_height, heights.antidominant_conjugate])
@pytest.mark.parametrize("coords", [(1.5, 0), (0.5, 0.25), (1, 2.0), (True, 0)])
def test_non_integer_weights_are_rejected_by_both_entry_points(entry, coords):
    # (1.5, 0) had height 3.0 and conjugate (-0.0, -1.5); (0.5, 0.25) the conjugate (-0.25, -0.5)
    with pytest.raises(ValueError, match="is not an integer"):
        entry(rootsys.build("A", 2), WeightVec(coords))


@pytest.mark.parametrize("t,n", DESCENT_TWINS)
def test_antidominant_descent_matches_the_rescanning_twin(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"descent-twin:{t}{n}")
    weights = [WeightVec(tuple(rng.randrange(6) for _ in range(n))) for _ in range(5 if n > 12 else 30)]
    weights += [WeightVec((1,) * n)] + [fundamental_weight(rs, i) for i in range(1, n + 1)]
    for lam in weights:
        assert heights.antidominant_conjugate(rs, lam) == _descent_twin(rs, lam)


_TO_RANK_12 = ([("A", n) for n in range(1, 13)] + [(t, n) for t in "BC" for n in range(2, 13)]
               + [("D", n) for n in range(4, 13)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@st.composite
def _dominant(draw):
    """A system of rank <= 12 and a dominant weight on it, regular in about half the cases."""
    kind, n = draw(st.sampled_from(_TO_RANK_12))
    low = draw(st.sampled_from((0, 1)))
    return kind, n, tuple(draw(st.lists(st.integers(low, 40), min_size=n, max_size=n)))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(case=_dominant())
def test_a_height_makes_at_most_one_reflection_per_positive_root(case):
    # counted on every descent that dynkin_height and antidominant_conjugate walk; a
    # regular weight descends by w0, whose length |Phi+| meets the bound
    kind, n, coords = case
    rs = rootsys.build(kind, n)
    walk, made = heights._walk, []

    def counted(*args):
        letters, steps = walk(*args)
        made.append(len(letters))
        return letters, steps

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heights, "_walk", counted)
        heights.dynkin_height(rs, WeightVec(coords))
        heights.antidominant_conjugate(rs, WeightVec(coords))
    bound = len(rs.positive_roots)
    assert len(made) == 2 and all(m <= bound for m in made)
    if min(coords) > 0:
        assert made == [bound, bound]
