"""Alcove reduction, window roots, and the constructive basis vs the chamber oracle."""

import dataclasses
import functools
import random
from fractions import Fraction as F
from math import lcm
from operator import mul

import pytest

from liep import alcove, cli, heights, rootsys
from liep.alcove import BasisChoice, CoweightPoint, PhiHom
from liep.errors import ContractError


def _act_on_root(rs, letters, alpha):
    """s_{i_m} ... s_{i_1} alpha for the letters (i_1, ..., i_m): ``rs.reflect``, first letter first."""
    for i in letters:
        alpha = rs.reflect(alpha, i)
    return alpha


def _value_mod_1(vec, alpha):
    """phi(alpha) in [0, 1) by the Fraction route: the exact pairing of ``alpha`` with the
    values, reduced mod 1 as ``PhiHom`` reduces its values."""
    return sum((m * v for m, v in zip(alpha.coords, vec.values, strict=True)), F(0)) % 1


SMALL = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]


def test_phi_values_reduced_mod_one():
    phi = PhiHom((F(7, 3), F(-1, 4), 2))
    assert phi.values == (F(1, 3), F(3, 4), F(0))


def test_phi_rejects_floats():
    with pytest.raises(ValueError):
        PhiHom((0.5,))


@pytest.mark.parametrize("make", [PhiHom, CoweightPoint])
@pytest.mark.parametrize("bad", [True, False])
def test_a_bool_value_is_rejected_by_name(make, bad):
    with pytest.raises(ValueError) as excinfo:
        make((bad, 0))
    assert str(excinfo.value) == f"boolean input {bad!r} rejected; pass Fraction, int, or 'a/b' string"


def test_an_exact_value_is_kept_and_a_fraction_subclass_becomes_a_plain_fraction():
    class Tagged(F):
        pass

    third = F(1, 3)
    point = CoweightPoint((third, Tagged(-5, 2), 4))
    assert point.values[0] is third
    assert point.values == (F(1, 3), F(-5, 2), F(4))
    assert all(type(v) is F for v in point.values)
    for bad in (0.5, True):
        with pytest.raises(ValueError, match="rejected; pass Fraction, int, or 'a/b' string"):
            CoweightPoint((third, bad))


def test_phi_value_on_roots():
    rs = rootsys.build("A", 2)
    phi = PhiHom((F(1, 9), F(1, 9)))
    assert _value_mod_1(phi, rs.highest_root) == F(2, 9)
    assert _value_mod_1(phi, -rs.highest_root) == F(7, 9)


def test_each_vector_is_converted_to_its_integer_form_once(monkeypatch, capsys):
    calls = []  # one entry per conversion of a vector to its integer form
    monkeypatch.setattr(alcove, "lcm", lambda *dens: calls.append(dens) or lcm(*dens))
    rs = rootsys.build("E", 8)
    h = rs.coxeter_number
    phi = PhiHom(tuple(F(k, 7 * h) for k in (5, 61, 2, 170, 33, 9, 140, 88)))
    # one window query: lift(phi), the reduced point and phi itself, each once
    report = alcove.window_basis_report(rs, phi)
    alcove.critical_roots(rs, phi)
    alcove.boundary_roots(rs, phi)
    assert len(calls) == 3
    assert report.short_basis is report.short_basis
    calls.clear()
    assert cli.main(["critical", "--type", "B", "--rank", "3", "--phi", "1/12,1/18,5/7"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    # a copy with other values derives its own form rather than sharing phi's
    calls.clear()
    copy = dataclasses.replace(phi, values=(F(1, 3),) * 8)
    assert copy._numerators == ((1,) * 8, 3) != phi._numerators
    assert len(calls) == 1


def test_lift_reuses_representatives():
    phi = PhiHom((F(3, 4), F(1, 2)))
    assert alcove.lift(phi).values == (F(3, 4), F(1, 2))


def test_reduce_rank_one_single_reflection():
    rs = rootsys.build("A", 1)
    reduced, transcript = alcove.reduce_to_alcove(rs, CoweightPoint((F(-1, 4),)))
    assert reduced.values == (F(1, 4),)
    assert transcript.steps == (("reflect", 1),)
    assert transcript.weyl_word == (1,)
    assert transcript.net_translation == (0,)


def test_reduce_rank_one_interior_point_untouched():
    rs = rootsys.build("A", 1)
    reduced, transcript = alcove.reduce_to_alcove(rs, CoweightPoint((F(3, 4),)))
    assert reduced.values == (F(3, 4),)
    assert transcript.steps == ()
    assert transcript.weyl_word == ()


def test_reduce_uses_affine_wall():
    rs = rootsys.build("A", 2)
    reduced, transcript = alcove.reduce_to_alcove(rs, CoweightPoint((F(4, 3), F(1, 3))))
    assert reduced.values == (F(1, 3), F(1, 3))
    kinds = [s[0] for s in transcript.steps]
    assert "affine_reflect" in kinds


def _recompose(rs, transcript, start, reduced):
    # reduced must equal w_acc(start) + net integer translation
    inv = alcove.word_matrix(rs, tuple(reversed(transcript.weyl_word)))
    n = rs.rank
    moved = [sum(inv[k][j] * start.values[k] for k in range(n)) for j in range(n)]
    return tuple(m + t for m, t in zip(moved, transcript.net_translation)) == reduced.values


def test_transcript_recomposes():
    rs = rootsys.build("B", 2)
    for values in [(F(4, 3), F(1, 3)), (F(-7, 5), F(9, 4)), (F(1000001, 7), F(-12345, 11))]:
        start = CoweightPoint(values[: rs.rank])
        reduced, transcript = alcove.reduce_to_alcove(rs, start)
        assert _recompose(rs, transcript, start, reduced)


@pytest.mark.parametrize("t,n", SMALL)
def test_reduction_lands_in_alcove_with_pigeonhole(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"alcove:{t}{n}")
    h = rs.coxeter_number
    for _ in range(50):
        point = CoweightPoint(tuple(F(rng.randrange(-400, 400), rng.randrange(1, 40)) for _ in range(n)))
        reduced, _ = alcove.reduce_to_alcove(rs, point)
        assert all(v >= 0 for v in reduced.values)
        theta_val = sum(m * v for m, v in zip(rs.marks, reduced.values))
        assert theta_val <= 1
        coords = (1 - theta_val,) + tuple(reduced.values)
        assert max(coords) >= F(1, h)
        # affine coordinates are a weighted partition of unity
        assert coords[0] + sum(m * c for m, c in zip(rs.marks, coords[1:])) == 1


@pytest.mark.parametrize("t,n", SMALL)
def test_reduction_preserves_phi_through_the_weyl_word(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"transport:{t}{n}")
    for _ in range(40):
        phi = PhiHom(tuple(F(rng.randrange(60), rng.randrange(1, 60)) for _ in range(n)))
        reduced, transcript = alcove.reduce_to_alcove(rs, alcove.lift(phi))
        for a in rs.roots:
            # w_acc^-1(a): the letters of w_acc = s_{i_1} ... s_{i_m}, first letter first
            undone = _act_on_root(rs, transcript.weyl_word, a)
            assert _value_mod_1(reduced, a) == _value_mod_1(phi, undone)


def test_critical_roots_example():
    rs = rootsys.build("A", 2)
    crit = alcove.critical_roots(rs, PhiHom((F(1, 9), F(1, 9))))
    assert {a.coords for a in crit} == {(1, 0), (0, 1), (1, 1)}


def test_critical_roots_empty_for_zero_and_half():
    assert alcove.critical_roots(rootsys.build("A", 2), PhiHom((0, 0))) == ()
    assert alcove.critical_roots(rootsys.build("A", 1), PhiHom((F(1, 2),))) == ()


def test_boundary_roots_exact_window_edge():
    rs = rootsys.build("A", 2)
    phi = PhiHom((F(1, 3), F(1, 3)))
    assert alcove.critical_roots(rs, phi) == ()
    assert {a.coords for a in alcove.boundary_roots(rs, phi)} == {(1, 0), (0, 1), (-1, -1)}


def test_window_basis_identity_case():
    rs = rootsys.build("A", 2)
    report = alcove.window_basis_report(rs, PhiHom((F(1, 9), F(1, 9))))
    assert report.basis.weyl_word == ()
    assert report.pigeonhole_index == 0
    assert [a.coords for a in report.basis.basis_roots(rs)] == [(1, 0), (0, 1)]


def test_window_basis_rank_one():
    rs = rootsys.build("A", 1)
    basis = alcove.window_basis(rs, PhiHom((F(1, 4),)))
    assert basis.is_positive(rs, rootsys.RootVec((1,)))


def test_is_positive_rejects_a_vector_that_is_not_a_root():
    rs = rootsys.build("A", 2)
    with pytest.raises(ContractError, match=r"\(2, 0\) is not a root"):
        BasisChoice((1,)).is_positive(rs, rootsys.RootVec((2, 0)))


def test_window_basis_nontrivial_chamber():
    rs = rootsys.build("A", 2)
    phi = PhiHom((F(5, 6), F(1, 6)))
    report = alcove.window_basis_report(rs, phi)
    assert report.pigeonhole_index == 1
    crit = {a.coords for a in alcove.critical_roots(rs, phi)}
    assert crit == {(0, 1), (-1, 0)}
    assert {r.coords for r in report.basis.basis_roots(rs)} == {(-1, 0), (1, 1)}
    for a in crit:
        assert report.basis.is_positive(rs, rootsys.RootVec(a))


def test_zero_phi_everything_valid():
    rs = rootsys.build("B", 2)
    assert len(alcove.oracle_valid_bases(rs, PhiHom((0, 0)))) == 8
    # vacuous window: any choice works, returned one included
    basis = alcove.window_basis(rs, PhiHom((0, 0)))
    assert any(alcove.same_basis(rs, basis, b) for b in alcove.oracle_valid_bases(rs, PhiHom((0, 0))))


@pytest.mark.parametrize(
    "t,n,size", [("A", 1, 2), ("A", 2, 6), ("B", 2, 8), ("G", 2, 12), ("A", 3, 24), ("B", 3, 48), ("C", 3, 48)]
)
def test_chamber_enumeration_sizes(t, n, size):
    assert len(alcove.oracle_valid_bases(rootsys.build(t, n), PhiHom((0,) * n))) == size


def test_oracle_rejects_large_rank():
    rs = rootsys.build("A", 4)
    with pytest.raises(ValueError):
        alcove.oracle_valid_bases(rs, PhiHom((0, 0, 0, 0)))


def test_basis_choice_words_give_actual_chambers():
    rs = rootsys.build("G", 2)
    basis = BasisChoice((1, 2, 1))
    roots = basis.basis_roots(rs)
    assert len({r.coords for r in roots}) == 2
    assert all(rs.is_root(r) for r in roots)
    # w(B_0)-positivity marks exactly half of all roots
    positives = [a for a in rs.roots if basis.is_positive(rs, a)]
    assert len(positives) == len(rs.positive_roots)


@pytest.mark.parametrize("t,n", SMALL)
def test_window_basis_always_oracle_confirmed(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"window:{t}{n}")
    for _ in range(200):
        den = rng.randint(1, 60)
        phi = PhiHom(tuple(F(rng.randrange(den), den) for _ in range(n)))
        basis = alcove.window_basis(rs, phi)
        for a in alcove.critical_roots(rs, phi):
            assert basis.is_positive(rs, a)
        valid = alcove.oracle_valid_bases(rs, phi)
        assert any(alcove.same_basis(rs, basis, b) for b in valid)


def test_restriction_homomorphism_values():
    a1 = rootsys.build("A", 1)
    assert alcove.mu_pj_restriction(a1, (1,), 5, 1).values == (F(2, 5),)
    assert alcove.mu_pj_restriction(a1, (0,), 5, 1).values == (F(0),)
    a2 = rootsys.build("A", 2)
    assert alcove.mu_pj_restriction(a2, (3, 3), 3, 2).values == (F(1, 3), F(1, 3))
    # one level shallower the same cocharacter is integral, hence zero in Q/Z
    assert alcove.mu_pj_restriction(a2, (3, 3), 3, 1).values == (F(0), F(0))


@pytest.mark.parametrize("t,n", [("B", 5), ("C", 5), ("F", 4), ("G", 2), ("E", 7)])
def test_restriction_matches_the_dense_column_sum(t, n):
    # C is not symmetric on B, C, F and G, so a pairing that reads rows for columns fails there
    rs = rootsys.build(t, n)
    rng = random.Random(f"restriction:{t}{n}")
    for _ in range(40):
        cochar = tuple(rng.randint(-30, 30) for _ in range(n))
        p, j = rng.choice((2, 3, 5, 7, 11)), rng.randint(1, 3)
        want = tuple(F(sum(rs.cartan[k][i] * cochar[k] for k in range(n)), p**j) % 1 for i in range(n))
        assert alcove.mu_pj_restriction(rs, cochar, p, j).values == want


def test_restriction_validates_arguments():
    a2 = rootsys.build("A", 2)
    with pytest.raises(ValueError):
        alcove.mu_pj_restriction(a2, (1, 1), 4, 1)
    with pytest.raises(ValueError):
        alcove.mu_pj_restriction(a2, (1, 1), 3, 0)
    with pytest.raises(ValueError):
        alcove.mu_pj_restriction(a2, (1,), 3, 1)


def test_restriction_rejects_non_integer_cocharacters():
    # int() would quietly read (1.5, 0) as (1, 0)
    a2 = rootsys.build("A", 2)
    for cochar in ((1.5, 0), (1, True), (F(1), 0)):
        with pytest.raises(ValueError, match="is not an integer"):
            alcove.mu_pj_restriction(a2, cochar, 3, 1)


def test_restriction_rejects_a_non_integer_exponent():
    # p ** 1.5 is a float, and Fraction(int, float) escaped as a TypeError
    a2 = rootsys.build("A", 2)
    for j in (1.5, True, F(2)):
        with pytest.raises(ValueError, match="is not an integer"):
            alcove.mu_pj_restriction(a2, (1, 1), 3, j)


def test_rank_mismatch_rejected():
    rs = rootsys.build("A", 2)
    with pytest.raises(ValueError):
        alcove.window_basis(rs, PhiHom((F(1, 9),)))
    with pytest.raises(ValueError):
        alcove.reduce_to_alcove(rs, CoweightPoint((F(1, 2),)))


def test_reduction_handles_distant_points():
    rs = rootsys.build("G", 2)
    start = CoweightPoint((F(987654321, 13), F(-123456789, 17)))
    reduced, transcript = alcove.reduce_to_alcove(rs, start)
    assert all(v >= 0 for v in reduced.values)
    assert transcript.steps[0][0] == "translate"
    assert _recompose(rs, transcript, start, reduced)


# Slow twins at rank 8-12: each fast integer route against the route it replaced.
TWINS = [("A", 8), ("A", 12), ("B", 8), ("C", 8), ("D", 8), ("D", 12),
         ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


def _dense_word_matrix(rs, word):
    m = alcove._identity(rs.rank)
    for i in word:
        m = alcove._matmul(m, rootsys.simple_reflection_matrix(rs, i))
    return m


@pytest.mark.parametrize("t,n", TWINS)
def test_word_matrix_matches_dense_product(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"twin-matrix:{t}{n}")
    for length in (0, 1, rng.randrange(2, 601), 600):
        word = tuple(rng.randint(1, n) for _ in range(length))
        assert alcove.word_matrix(rs, word) == _dense_word_matrix(rs, word)


def test_word_matrix_rejects_letters_outside_the_rank():
    rs = rootsys.build("A", 3)
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            alcove.word_matrix(rs, (1, bad))


def _full_word_matrix(rs, word):
    """Every identity row carried through the whole word: rank * L letter steps."""
    return tuple(tuple(rootsys.apply_letters(rs, word, list(e)))
                 for e in alcove._identity(rs.rank))


def _length(rs, word):
    """l(w) for w the word's element: the positive roots that its dense matrix makes negative."""
    m = _dense_word_matrix(rs, word)
    return sum(min(sum(map(mul, row, a.coords)) for row in m) < 0 for a in rs.positive_roots)


REDUCTION_TWINS = [("A", 8), ("A", 16), ("B", 8), ("B", 12), ("D", 8), ("D", 12), ("E", 8)]


@pytest.mark.parametrize("t,n", REDUCTION_TWINS)
def test_word_matrix_matches_the_full_word_on_long_words_and_transcripts(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"twin-reduced:{t}{n}")
    words = [tuple(rng.randint(1, n) for _ in range(rng.randrange(2000, 2500))) for _ in range(2)]
    for _ in range(3):
        phi = PhiHom(tuple(F(rng.randrange(1000), 1000) for _ in range(n)))
        words.append(tuple(reversed(alcove.reduce_to_alcove(rs, alcove.lift(phi))[1].weyl_word)))
    assert max(map(len, words[2:])) > len(rs.positive_roots)
    for word in words:
        assert alcove.word_matrix(rs, word) == _full_word_matrix(rs, word)


@pytest.mark.parametrize("t,n", TWINS)
def test_reduced_word_is_reduced_and_cancels_its_reverse(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"reduced:{t}{n}")
    for length in (0, 1, 7, 150, 2000):
        word = tuple(rng.randint(1, n) for _ in range(length))
        reduced = alcove._reduced(rs, rootsys.apply_letters(rs, word, [1] * n))
        assert len(reduced) <= len(rs.positive_roots)
        assert alcove._reduced(rs, rootsys.apply_letters(rs, word + word[::-1], [1] * n)) == ()
        if length <= 150:
            assert len(reduced) == _length(rs, word) == _length(rs, reduced)


@pytest.mark.parametrize("t,n", TWINS)
def test_basis_roots_match_the_full_word_root_action(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"twin-basis:{t}{n}")
    for length in (0, 1, 40, 2000):
        basis = BasisChoice(tuple(rng.randint(1, n) for _ in range(length)))
        back = basis.weyl_word[::-1]
        full = tuple(_act_on_root(rs, back, rootsys.RootVec(e)) for e in alcove._identity(n))
        assert basis.basis_roots(rs) == full


@pytest.mark.parametrize("t,n", TWINS)
def test_integer_window_tests_match_fraction_route(t, n):
    rs = rootsys.build(t, n)
    h = rs.coxeter_number
    edge = F(1, h)
    rng = random.Random(f"twin-window:{t}{n}")
    seen_critical = seen_boundary = False
    for _ in range(30):
        # mixed denominators exercise the common denominator; small numerators fill the window
        dens = [rng.choice((1, 2, h, 7 * h, 11 * h)) for _ in range(n)]
        phi = PhiHom(tuple(F(rng.randrange(d) if rng.random() < 0.5 else rng.randrange(3), d)
                           for d in dens))
        values = [_value_mod_1(phi, a) for a in rs.roots]
        crit = alcove.critical_roots(rs, phi)
        bnd = alcove.boundary_roots(rs, phi)
        assert crit == tuple(a for a, v in zip(rs.roots, values) if 0 < v < edge)
        assert bnd == tuple(a for a, v in zip(rs.roots, values) if v == edge)
        assert alcove.window_basis_report(rs, phi).critical_roots == crit
        seen_critical |= bool(crit)
        seen_boundary |= bool(bnd)
    assert seen_critical and seen_boundary


def test_window_edge_holds_both_signs_when_the_ranges_meet():
    # at h = 2 the edge ranges coincide, so alpha and -alpha are both on it
    a1 = rootsys.build("A", 1)
    alpha = rootsys.RootVec((1,))
    assert alcove.boundary_roots(a1, PhiHom((F(1, 2),))) == (alpha, -alpha)
    assert alcove.critical_roots(a1, PhiHom((F(1, 2),))) == ()
    assert alcove.critical_roots(a1, PhiHom((F(1, 3),))) == (alpha,)
    assert alcove.critical_roots(a1, PhiHom((F(2, 3),))) == (-alpha,)
    # B2 (h = 4): alpha_1 on the edge, and alpha_2 and alpha_1 + 2 alpha_2 at 3/4 put their negatives on it
    b2 = rootsys.build("B", 2)
    assert alcove.boundary_roots(b2, PhiHom((F(1, 4), F(3, 4)))) == tuple(
        rootsys.RootVec(c) for c in ((1, 0), (0, -1), (-1, -2)))


@pytest.mark.parametrize("t,n", [("B", 2), ("G", 2)])
def test_window_roots_at_every_value_k_over_hN(t, n):
    rs = rootsys.build(t, n)
    h = rs.coxeter_number
    signs = set()
    for den in (1, 2, 3):
        for k1 in range(h * den):
            for k2 in range(h * den):
                phi = PhiHom((F(k1, h * den), F(k2, h * den)))
                values = [_value_mod_1(phi, a) for a in rs.roots]
                assert alcove.critical_roots(rs, phi) == tuple(
                    a for a, v in zip(rs.roots, values) if 0 < v < F(1, h))
                bnd = alcove.boundary_roots(rs, phi)
                assert bnd == tuple(a for a, v in zip(rs.roots, values) if v == F(1, h))
                signs |= {sum(a.coords) > 0 for a in bnd}
    assert signs == {True, False}


def _zip_route(rs, phi):
    """The window and edge roots by the route the one pass over Phi+ replaced: h N phi(alpha)
    for Phi+ by parents, Phi-'s values negated mod h N, zipped with ``rs.roots``."""
    k, den = phi._numerators
    h = rs.coxeter_number
    hden = h * den
    pos = []
    for parent, i, step in rs._parents:
        pos.append(((pos[parent] if parent >= 0 else 0) + step * h * k[i]) % hden)
    scaled = pos + [-v % hden for v in pos]
    return (tuple(a for a, v in zip(rs.roots, scaled) if 0 < v < den),
            tuple(a for a, v in zip(rs.roots, scaled) if v == den))


def _edge_phi(rs, rng):
    """A phi with one drawn root alpha (alpha_i = 1) at u / N next to an edge of either sign:
    N is h M or h M +- 1 and u one of M - 1, M, M + 1 or their complements N - u."""
    n, h = rs.rank, rs.coxeter_number
    alpha = rng.choice([a for a in rs.positive_roots if 1 in a.coords])
    i = rng.choice([j for j, c in enumerate(alpha.coords) if c == 1])
    m = rng.randrange(1, 6)
    den = h * m + rng.choice((-1, 0, 1))
    u = rng.choice((m - 1, m, m + 1))
    u = den - u if rng.random() < 0.5 else u
    values = [F(rng.randrange(den), den) for _ in range(n)]
    values[i] = F(u, den) - sum(c * v for j, (c, v) in enumerate(zip(alpha.coords, values)) if j != i)
    return PhiHom(tuple(values))


WINDOW_TWINS = ([("A", n) for n in range(1, 13)] + [(t, n) for t in "BC" for n in range(2, 9)]
                + [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("t,n", WINDOW_TWINS)
def test_one_pass_window_matches_the_zip_route(t, n):
    rs = rootsys.build(t, n)
    h = rs.coxeter_number
    rng = random.Random(f"twin-zip:{t}{n}")
    drawn = [PhiHom(tuple(F(rng.randrange(d), d) for d in (rng.choice((2, h, 3 * h, 97)),) * n))
             for _ in range(20)]
    drawn += [alcove.mu_pj_restriction(rs, tuple(rng.randrange(-9, 10) for _ in range(n)),
                                       rng.choice((2, 3, 5, 7)), rng.randint(1, 2)) for _ in range(20)]
    drawn += [_edge_phi(rs, rng) for _ in range(60)]
    hits = [0, 0, 0, 0]  # positive and negative window roots, positive and negative edge roots
    for phi in drawn:
        crit, bnd = _zip_route(rs, phi)
        assert alcove.critical_roots(rs, phi) == crit
        assert alcove.boundary_roots(rs, phi) == bnd
        for k, roots in enumerate((crit, bnd)):
            hits[2 * k] += sum(sum(a.coords) > 0 for a in roots)
            hits[2 * k + 1] += sum(sum(a.coords) < 0 for a in roots)
    assert all(hits), hits


@pytest.mark.parametrize("t,n", TWINS)
def test_dual_vector_positivity_matches_is_positive(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"twin-dual:{t}{n}")
    for length in (0, 1, 9, 80):
        basis = BasisChoice(tuple(rng.randint(1, n) for _ in range(length)))
        dual = alcove._rho_dual(rs, basis.weyl_word)
        for a in rs.roots:
            # the twin: w^-1(a), formed root by root, has no negative coordinate
            twin = min(_act_on_root(rs, basis.weyl_word, a).coords) >= 0
            assert (sum(x * d for x, d in zip(a.coords, dual)) > 0) == basis.is_positive(rs, a) == twin


@pytest.mark.parametrize("t,n", TWINS)
def test_same_basis_matches_basis_root_sets(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"twin-same:{t}{n}")
    for _ in range(10):
        word = tuple(rng.randint(1, n) for _ in range(rng.randrange(30)))
        i = rng.randint(1, n)
        k = rng.randrange(len(word) + 1)
        # s_i s_i = 1 names the same chamber by a longer word; one extra letter never does
        for other in (word[:k] + (i, i) + word[k:], word[:k] + (i,) + word[k:]):
            a, b = BasisChoice(word), BasisChoice(other)
            roots_equal = {r.coords for r in a.basis_roots(rs)} == {r.coords for r in b.basis_roots(rs)}
            assert alcove.same_basis(rs, a, b) == roots_equal
            assert roots_equal == (len(other) == len(word) + 2)


@pytest.mark.parametrize("t,n", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_same_basis_tells_every_enumerated_chamber_apart(t, n):
    rs = rootsys.build(t, n)
    chambers = alcove.oracle_valid_bases(rs, PhiHom((0,) * n))
    for i, a in enumerate(chambers):
        for j, b in enumerate(chambers):
            assert alcove.same_basis(rs, a, b) == (i == j)


def test_window_check_rejects_a_basis_that_leaves_a_window_root_negative(monkeypatch):
    rs = rootsys.build("A", 2)
    phi = PhiHom((F(1, 9), F(1, 9)))
    monkeypatch.setattr(alcove, "_rho_dual", lambda rs, word: [-1] * rs.rank)
    with pytest.raises(ContractError, match="window root"):
        alcove.window_basis_report(rs, phi)


def test_window_basis_past_ten_thousand_reduction_steps():
    rs = rootsys.build("A", 60)
    rng = random.Random(3)
    phi = PhiHom(tuple(F(rng.randrange(427), 427) for _ in range(60)))
    report = alcove.window_basis_report(rs, phi)  # raises unless every window root is positive
    # wall by wall the reduction takes 19151 steps; coroot translations cut it to 2102
    assert len(_wall_by_wall(rs, alcove.lift(phi))[2]) == 19151
    assert len(report.transcript.steps) == 2102
    assert report.basis == alcove.window_basis(rs, phi)
    for a in alcove.critical_roots(rs, phi)[:5]:
        assert report.basis.is_positive(rs, a)


@pytest.mark.parametrize("t,n", [("A", 8), ("B", 8), ("D", 8), ("E", 8), ("F", 4), ("G", 2)])
def test_reduction_steps_stay_within_the_wall_bound(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"wall-bound:{t}{n}")
    for trial in range(40):
        den = rng.choice((1, 7, rs.coxeter_number, 97))
        reach = 2 if trial % 4 else 40  # every fourth point needs the translation first
        start = CoweightPoint(tuple(F(rng.randrange(-reach * den, reach * den), den)
                                    for _ in range(n)))
        _, transcript = alcove.reduce_to_alcove(rs, start)
        steps = transcript.steps
        values, common = start._numerators
        # the box translation, taken as reduce_to_alcove takes it; a leading coroot
        # translation counts against the bound of the untranslated start
        if any(v < -common or v >= 2 * common for v in values):
            assert steps[0][0] == "translate"
            values = [v + s * common for v, s in zip(values, steps[0][1])]
            steps = steps[1:]
        assert len(steps) <= alcove._reflection_bound(rs, values, common)


def _zero(lines):
    """``lines`` with every coefficient zeroed, so each reflection leaves every vector alone."""
    return tuple(tuple((j, 0) for j, _ in line) for line in lines)


def _inert(rs):
    """``rs`` with every Cartan coefficient zeroed, its affine rows too.

    The copy derives its own facts, and no walk on zero rows reaches theta^vee, so it is
    handed ``rs``'s theta^vee and theta word beside its zeroed affine rows."""
    inert = dataclasses.replace(rs, _rows=_zero(rs._rows), _cols=_zero(rs._cols))
    rows, theta_dual, theta_word = rs._affine
    vars(inert)["_affine"] = (_zero(rows), theta_dual, theta_word)
    return inert


def test_walks_end_in_a_contract_error_when_reflections_do_nothing():
    rs = rootsys.build("B", 3)
    start = CoweightPoint((F(-1, 3), F(1, 5), F(-7, 2)))
    weight = rootsys.WeightVec((1, 0, 2))
    alcove.reduce_to_alcove(rs, start)
    heights.antidominant_conjugate(rs, weight)
    with pytest.raises(ContractError, match="exceeded its bound"):
        alcove.reduce_to_alcove(_inert(rs), start)
    with pytest.raises(ContractError, match="antidominant descent exceeded the number of positive roots"):
        heights.antidominant_conjugate(_inert(rs), weight)
    # already in the alcove, but re-centred at a vertex that needs the dominance walk
    a2 = rootsys.build("A", 2)
    phi = PhiHom((F(1, 2), F(1, 3)))
    alcove.window_basis_report(a2, phi)
    with pytest.raises(ContractError, match="dominance loop"):
        alcove.window_basis_report(_inert(a2), phi)


def test_the_alcove_check_names_each_way_out_of_the_alcove():
    rs = rootsys.build("A", 2)
    with pytest.raises(ContractError, match="left the dominant cone"):
        alcove._assert_in_alcove(rs, [-1, 2], 3)
    with pytest.raises(ContractError, match=r"violates theta\(y\) <= 1"):
        alcove._assert_in_alcove(rs, [2, 2], 3)
    # a_0 + sum m_j a_j = 1 spreads over h coordinates, so no point of the alcove breaks the
    # pigeonhole; the barycentre, every a_j = 1/h, breaks it for a system whose h is too small
    alcove._assert_in_alcove(rs, [1, 1], 3)
    with pytest.raises(ContractError, match="pigeonhole is broken"):
        alcove._assert_in_alcove(dataclasses.replace(rs, coxeter_number=2), [1, 1], 3)


# One replay of the reduction word: the transcript's reduced word against the full-word routes,
# the net translation read off the matrix of w_acc^-1 and w(rho^vee) read through the basis word.
ONE_PASS = [("A", 8), ("B", 8), ("C", 8), ("D", 8), ("E", 6), ("E", 7), ("E", 8),
            ("F", 4), ("G", 2), ("A", 40)]


def _full_word_net(rs, start, reduced, weyl_word):
    """reduced - w_acc(start), with w_acc^-1 as the matrix of the whole recorded word."""
    inv = alcove.word_matrix(rs, tuple(reversed(weyl_word)))
    n = rs.rank
    moved = [sum(inv[k][j] * start.values[k] for k in range(n)) for j in range(n)]
    return tuple(r - m for r, m in zip(reduced.values, moved))


def _one_pass_starts(rs, rng):
    """Seeded points over denominators that are multiples of h: lifts of phi, far-out points
    that take the translation first, and points on the walls y_i = 0 and alpha = +-1."""
    n, h = rs.rank, rs.coxeter_number
    for trial in range(9):
        den = h * rng.choice((1, 3, 7))
        if trial % 3 == 0:
            values = [rng.randrange(den) for _ in range(n)]
        elif trial % 3 == 1:
            values = [rng.randrange(-50 * den, 50 * den) for _ in range(n)]
        else:
            values = [rng.choice((0, 0, den, -den, rng.randrange(-2 * den, 2 * den)))
                      for _ in range(n)]
        yield CoweightPoint(tuple(F(v, den) for v in values))


@pytest.mark.parametrize("t,n", ONE_PASS)
def test_reduced_word_and_net_translation_match_the_full_word(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"one-pass:{t}{n}")
    translated = False
    for start in _one_pass_starts(rs, rng):
        reduced, tr = alcove.reduce_to_alcove(rs, start)
        translated |= bool(tr.steps) and tr.steps[0][0] == "translate"
        assert tr.net_translation == _full_word_net(rs, start, reduced, tr.weyl_word)
        assert len(tr.reduced_word) <= len(rs.positive_roots)
        assert alcove._rho_dual(rs, tr.reduced_word) == alcove._rho_dual(rs, tr.weyl_word)
    assert translated


@pytest.mark.parametrize("t,n", ONE_PASS)
def test_window_check_on_the_reduced_word_matches_the_full_basis_word(t, n):
    rs = rootsys.build(t, n)
    h = rs.coxeter_number
    rng = random.Random(f"one-pass-window:{t}{n}")
    for trial in range(6):
        den = h * rng.choice((1, 2, 7, 11))
        # every other phi puts small multiples of 1/h on the simple roots, so on walls
        phi = PhiHom(tuple(F(rng.randrange(den) if trial % 2 else den // h * rng.randrange(3), den)
                           for _ in range(n)))
        report = alcove.window_basis_report(rs, phi)
        short = report.short_basis
        full = alcove._rho_dual(rs, report.basis.weyl_word)
        assert alcove._rho_dual(rs, short.weyl_word) == full
        assert all(sum(map(mul, a.coords, full)) > 0 for a in report.critical_roots)
        assert short.basis_roots(rs) == report.basis.basis_roots(rs)


def test_reduced_word_that_drops_a_letter_does_not_recompose(monkeypatch):
    rs = rootsys.build("B", 3)
    starts = [CoweightPoint((F(4, 3), F(-7, 5), F(9, 4))),
              CoweightPoint((F(1000001, 7), F(-3, 11), F(2, 13)))]
    for start in starts:
        assert alcove.reduce_to_alcove(rs, start)[1].reduced_word
    reduced = alcove._reduced
    monkeypatch.setattr(alcove, "_reduced", lambda rs, word: reduced(rs, word)[:-1])
    for start in starts:
        with pytest.raises(ContractError, match="does not recompose"):
            alcove.reduce_to_alcove(rs, start)


def test_window_basis_report_replays_no_long_word(monkeypatch):
    rs = rootsys.build("A", 40)
    rng = random.Random("one-pass-count")
    phi = PhiHom(tuple(F(rng.randrange(1000), 1000) for _ in range(40)))
    stepped = []
    apply_letters = alcove.apply_letters

    def counting(rs, letters, vec):
        letters = tuple(letters)
        stepped.append(len(letters))
        return apply_letters(rs, letters, vec)

    monkeypatch.setattr(alcove, "apply_letters", counting)
    report = alcove.window_basis_report(rs, phi)
    bound = 2 * len(report.transcript.reduced_word) + len(report.dominance_word)
    assert len(report.transcript.weyl_word) > bound  # a pass over the word would break the bound
    # the recomposition's one forward pass and the window check
    assert sum(stepped) == bound


def _spliced_reduction(rs, point):
    """The reduction by the long word: an unpacked walk of (y, a_0), theta's word spliced in
    at each s_0, that word replayed on rho^vee and walked back to a reduced word, and the
    start moved through the whole word for the net translation."""
    n = rs.rank
    lines, _, theta_word = rs._affine
    start, den = point._numerators
    values = list(start)
    if any(v < -den or v >= 2 * den for v in values):
        values = [v % den for v in values]
    z = values + [den - sum(map(mul, rs.marks, values))]
    walk, _ = rootsys._walk(lines, z, 10**9, "unreachable")
    letters = []
    for i in walk:
        letters += theta_word if i == n + 1 else (i,)
    back, _ = rootsys._walk(rs._rows, rootsys.apply_letters(rs, letters, [1] * n),
                            len(rs.positive_roots), "reduced word exceeded |Phi+|")
    moved = rootsys.apply_letters(rs, letters, list(start))
    assert all((v - w) % den == 0 for v, w in zip(z, moved))
    net = tuple((v - w) // den for v, w in zip(z, moved))
    return tuple(F(v, den) for v in z[:n]), tuple(reversed(letters)), net, tuple(back)


def _agrees_with_twin(rs, start, reduced, tr, twin_values, twin_letters):
    """The reduction against a twin that reflects wall by wall, with w_acc's letters first
    applied first: the same reduced point, the same chamber when the point lies on no wall
    (its stabiliser in W_a is then trivial), and a transcript that recomposes.  Returns
    whether the point was regular."""
    assert reduced.values == twin_values
    # the steps, replayed one generator at a time, and the word with the net translation
    y, tvec = list(start.values), rs._dominant_coroots[0][1]
    for step in tr.steps:
        if step[0] == "translate":
            y = [v + s for v, s in zip(y, step[1])]
        elif step[0] == "reflect":
            rootsys.apply_letters(rs, step[1:], y)
        else:
            excess = sum(map(mul, rs.marks, y)) - 1
            y = [v - excess * c for v, c in zip(y, tvec)]
    assert tuple(y) == reduced.values
    values, den = start._numerators
    moved = rootsys.apply_letters(rs, reversed(tr.weyl_word), list(values))
    assert [F(v, den) + t for v, t in zip(moved, tr.net_translation)] == list(reduced.values)
    assert alcove._rho_dual(rs, tr.reduced_word) == alcove._rho_dual(rs, tr.weyl_word)
    affine = (1 - sum(map(mul, rs.marks, reduced.values)),) + reduced.values
    regular = min(affine) > 0
    if regular:
        ours, twins = BasisChoice(tr.weyl_word[::-1]), BasisChoice(tuple(twin_letters))
        assert alcove.same_basis(rs, ours, twins)
    return regular


PACKED_TWINS = ([("A", n) for n in range(1, 13)] + [(t, n) for t in "BC" for n in range(2, 10)]
                + [("D", n) for n in range(4, 10)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
                ("A", 40), ("B", 30), ("C", 30), ("D", 30)])


def _twin_points(rs, rng):
    """Seeded points: far out; on walls, every alpha(y) in Z / d; the alcove vertex
    omega_i^vee / m_i on theta = 1, and a Weyl image of it shifted by a coweight; regular."""
    n, h = rs.rank, rs.coxeter_number
    for _ in range(9):
        yield [F(rng.randrange(-10**6, 10**6), rng.randrange(1, 60)) for _ in range(n)]
        d = rng.choice((1, 2, h))
        yield [F(rng.randrange(-2 * d, 2 * d), d) for _ in range(n)]
        i = rng.randrange(n)
        vertex = [int(j == i) for j in range(n)]
        yield [F(v, rs.marks[i]) for v in vertex]
        vertex = rootsys.apply_letters(rs, [rng.randint(1, n) for _ in range(3 * n)], vertex)
        yield [F(v, rs.marks[i]) + rng.randrange(-2, 3) for v in vertex]
        yield [F(rng.randrange(1000), 1000) for _ in range(n)]


@pytest.mark.parametrize("t,n", PACKED_TWINS)
def test_packed_walk_matches_the_spliced_word_replay(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"packed-walk:{t}{n}")
    regular = 0
    for values in _twin_points(rs, rng):
        start = CoweightPoint(values)
        reduced, transcript = alcove.reduce_to_alcove(rs, start)
        twin_values, twin_word, _, _ = _spliced_reduction(rs, start)
        regular += _agrees_with_twin(rs, start, reduced, transcript, twin_values, twin_word[::-1])
    assert regular


@pytest.mark.parametrize("t,n", [("A", 12), ("B", 9), ("C", 9), ("D", 9), ("E", 8), ("F", 4), ("G", 2),
                                 ("A", 40), ("D", 30)])
def test_each_simple_wall_phase_takes_at_most_the_positive_roots(t, n, monkeypatch):
    rs = rootsys.build(t, n)
    rng = random.Random(f"phases:{t}{n}")
    walks = []  # (number of lines, letters walked) per call
    walk = alcove._walk

    def counting(lines, z, *args):
        letters, steps = walk(lines, z, *args)
        walks.append((len(lines), len(letters)))
        return letters, steps

    monkeypatch.setattr(alcove, "_walk", counting)
    phases = 0
    for values in _twin_points(rs, rng):
        walks.clear()
        alcove.reduce_to_alcove(rs, CoweightPoint(values))
        # every walk is on the rank simple lines: the phases, then ``_reduced``'s walk back
        assert all(lines == n and taken <= len(rs.positive_roots) for lines, taken in walks)
        phases = max(phases, len(walks) - 1)
    assert phases > 1


# The affine rows: the extended Cartan matrix, checked against its kernels and Bourbaki's
# extended diagrams rather than against how ``RootSystem._affine`` derives it.
AFFINE = ([("A", n) for n in range(1, 9)] + [(t, n) for t in "BC" for n in range(2, 9)]
          + [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2), ("A", 40)])

# alpha_0's neighbours (1-based) in the extended diagram (Bourbaki, Lie Groups VI, plates I-IX)
_ALPHA_0_LINKS = {"B": {2}, "C": {1}, "D": {2}, "E6": {2}, "E7": {1}, "E8": {8}, "F4": {1}, "G2": {2}}


@pytest.mark.parametrize("t,n", AFFINE)
def test_affine_rows_are_the_extended_cartan_matrix(t, n):
    rs = rootsys.build(t, n)
    rows, theta_dual, _ = rs._affine
    assert len(rows) == n + 1
    assert theta_dual == rs._dominant_coroots[0][1]
    dense = [[0] * (n + 1) for _ in range(n + 1)]
    for i, row in enumerate(rows):
        for j, c in row:
            dense[i][j] = c
    # delta = (marks, 1) spans the kernel, and the comarks (theta^vee's, 1) the cokernel
    delta = rs.marks + (1,)
    comarks = rs._dominant_coroots[0][0] + (1,)
    assert all(sum(map(mul, row, delta)) == 0 for row in dense)
    assert all(sum(map(mul, col, comarks)) == 0 for col in zip(*dense))
    assert [row[:n] for row in dense[:n]] == [list(row) for row in rs.cartan]
    links = {j + 1 for j in range(n) if dense[n][j]}
    if t == "A":
        assert links == {1, n}
        assert dense[n][0] == (-2 if n == 1 else -1)
    else:
        assert links == _ALPHA_0_LINKS.get(f"{t}{n}", _ALPHA_0_LINKS.get(t))
    assert all((dense[n][j] == 0) == (dense[j][n] == 0) for j in range(n))
    # ``_walk`` resumes at line[0][0], the lowest index only if every line is sorted
    for lines in (rs._rows, rs._cols, rows):
        for i, line in enumerate(lines):
            indices = [j for j, _ in line]
            assert indices == sorted(set(indices)) and (i, 2) in line


@functools.lru_cache(maxsize=None)
def _reflection_word(rs, alpha):
    """A word for the reflection in the positive root b with int coordinates ``alpha``, by
    recursion: s_b = s_i s_{s_i(b)} s_i at the lowest i with k = <b, alpha_i^vee> > 0."""
    if sum(alpha) == 1:
        return (alpha.index(1) + 1,)
    for i, row in enumerate(rs._rows):
        k = sum(x * alpha[j] for j, x in row)
        if k > 0:
            inner = _reflection_word(rs, alpha[:i] + (alpha[i] - k,) + alpha[i + 1:])
            return (i + 1,) + inner + (i + 1,)
    raise ContractError(f"{alpha} is not a positive root")


@pytest.mark.parametrize("t,n", AFFINE + [("B", 30), ("C", 30), ("D", 30)])
def test_theta_word_is_the_reflection_in_theta(t, n):
    rs = rootsys.build(t, n)
    word = rs._affine[2]
    assert word == _reflection_word(rs, rs.marks)
    assert len(word) % 2 == 1 and word == word[::-1]
    tvec = rs._dominant_coroots[0][1]
    rng = random.Random(f"theta-word:{t}{n}")
    for _ in range(5):
        y = [rng.randrange(-9, 10) for _ in range(n)]
        theta_y = sum(map(mul, rs.marks, y))
        assert rootsys.apply_letters(rs, word, list(y)) == [v - theta_y * c for v, c in zip(y, tvec)]


def _wall_by_wall(rs, point):
    """The reduction as a loop of finite walks on ``rs._rows`` around the theta wall.

    The twin of the single affine walk of ``reduce_to_alcove``: reflect at the lowest negative
    y_i until none is left, then reflect in theta = 1 once if theta(y) > 1, and repeat.
    Returns the reduced numerators, the steps and the word of w_acc, last-applied letter last.
    """
    n = rs.rank
    tvec = rs._dominant_coroots[0][1]
    theta_letters = _reflection_word(rs, rs.marks)
    values, den = point._numerators
    values = list(values)
    steps, letters = [], []
    if any(v < -den or v >= 2 * den for v in values):
        shift = tuple(-(v // den) for v in values)
        values = [v + s * den for v, s in zip(values, shift)]
        steps.append(("translate", shift))
    cap = alcove._reflection_bound(rs, values, den)
    overrun = f"alcove reduction exceeded its bound of {cap} steps"
    taken = 0
    while True:
        walk, _ = rootsys._walk(rs._rows, values, cap - taken, overrun)
        steps.extend(("reflect", i) for i in walk)
        letters.extend(walk)
        taken += len(walk)
        excess = sum(map(mul, rs.marks, values)) - den
        if excess <= 0:
            break
        if taken == cap:
            raise ContractError(overrun)
        for j in range(n):
            values[j] -= tvec[j] * excess
        steps.append(("affine_reflect",))
        letters.extend(theta_letters)
        taken += 1
    return values, den, tuple(steps), letters


@pytest.mark.parametrize("t,n", ONE_PASS + [("B", 30), ("C", 30), ("D", 30)])
def test_affine_walk_matches_the_wall_by_wall_loop(t, n, monkeypatch):
    rs = rootsys.build(t, n)
    rng = random.Random(f"one-pass:{t}{n}")
    starts = list(_one_pass_starts(rs, rng)) + [CoweightPoint(v) for v in _twin_points(rs, rng)]
    bound = alcove._reflection_bound
    regular, shortcut = 0, False
    for start in starts:
        values, den, _, letters = _wall_by_wall(rs, start)
        reduced, tr = alcove.reduce_to_alcove(rs, start)
        twin_values = tuple(F(v, den) for v in values)
        regular += _agrees_with_twin(rs, start, reduced, tr, twin_values, letters)
        # the steps past the box translation count against the bound, translations included
        counted = tr.steps[any(v < -1 or v >= 2 for v in start.values):]
        kinds = [step[0] for step in counted]
        shortcut |= "translate" in kinds
        # a cap at the steps taken passes; one below, or at a reflection or a translation or
        # s_0 still to come, stops with the cap's message
        caps = {len(counted) - 1} | {kinds.index(k) for k in ("reflect", "translate", "affine_reflect")
                                     if k in kinds}
        for cap in sorted(caps - {-1}):
            monkeypatch.setattr(alcove, "_reflection_bound", lambda *args: cap)
            with pytest.raises(ContractError) as excinfo:
                alcove.reduce_to_alcove(rs, start)
            assert str(excinfo.value) == f"alcove reduction exceeded its bound of {cap} steps"
        monkeypatch.setattr(alcove, "_reflection_bound", lambda *args: len(counted))
        assert alcove.reduce_to_alcove(rs, start) == (reduced, tr)
        monkeypatch.setattr(alcove, "_reflection_bound", bound)
    assert shortcut and 0 < regular < len(starts)
