"""Root systems generated by reverse search, checked against classical data."""

import dataclasses
import gc
import json
import math
import random
import weakref
from fractions import Fraction
from operator import mul

import pytest

from liep import alcove, cli, heights, rootsys
from liep.errors import ContractError
from liep.primes import is_int
from liep.rootsys import RootVec, WeightVec

ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _reflect_weight(rs, i, lam):
    """s_i on a weight over the fundamental weights, dense: l_k -= C[k][i] l_i for every k."""
    x = lam[i - 1]
    return [lam[k] - rs.cartan[k][i - 1] * x for k in range(rs.rank)]


def classical_count(t, n):
    # textbook cardinalities, used only as an oracle for the closure
    if t == "A":
        return n * (n + 1)
    if t in "BC":
        return 2 * n * n
    if t == "D":
        return 2 * n * (n - 1)
    return {("E", 6): 72, ("E", 7): 126, ("E", 8): 240, ("F", 4): 48, ("G", 2): 12}[(t, n)]


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_closure_reproduces_classical_root_counts(t, n):
    rs = rootsys.build(t, n)
    assert len(rs.roots) == classical_count(t, n)
    assert len(rs.positive_roots) * 2 == len(rs.roots)


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_roots_have_uniform_sign_and_negatives(t, n):
    rs = rootsys.build(t, n)
    for a in rs.roots:
        assert all(c >= 0 for c in a.coords) or all(c <= 0 for c in a.coords)
        assert rs.is_root(-a)
    # Phi+ in build order, by (height, coordinates), then each positive root negated in
    # the same order
    pos = rs.positive_roots
    assert list(pos) == sorted(pos, key=lambda a: (sum(a.coords), a.coords))
    assert rs.roots == pos + tuple(RootVec(tuple(-c for c in a.coords)) for a in pos)
    assert rs.highest_root == pos[-1] and rs.highest_root.coords == rs.marks
    # is_root knows +-Phi and nothing else: not 0, not a mixed sign, not past a mark
    assert all(rs.is_root(a) and rs.is_root(-a) for a in pos)
    assert not rs.is_root(RootVec((0,) * n))
    if n > 1:
        assert not rs.is_root(RootVec((1, -1) + (0,) * (n - 2)))
        assert not rs.is_root(RootVec((0,) * (n - 2) + (-1, 1)))
    for i in range(n):
        past = RootVec(tuple(m + (j == i) for j, m in enumerate(rs.marks)))
        assert not rs.is_root(past) and not rs.is_root(-past)


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_closed_under_simple_reflections(t, n):
    rs = rootsys.build(t, n)
    for a in rs.roots:
        for i in range(1, n + 1):
            assert rs.is_root(rs.reflect(a, i))


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_coxeter_number_three_routes_agree(t, n):
    rs = rootsys.build(t, n)
    a = rootsys.coxeter_via_marks(rs)
    b = rootsys.coxeter_via_rho(rs)
    c = rootsys.coxeter_via_element(rs)
    assert a == b == c == rs.coxeter_number


@pytest.mark.parametrize(
    "t,n,h",
    [("A", 1, 2), ("A", 4, 5), ("A", 7, 8), ("B", 2, 4), ("B", 5, 10), ("C", 3, 6),
     ("D", 4, 6), ("D", 6, 10), ("E", 6, 12), ("E", 7, 18), ("E", 8, 30),
     ("F", 4, 12), ("G", 2, 6)],
)
def test_named_coxeter_numbers(t, n, h):
    assert rootsys.coxeter_via_marks(rootsys.build(t, n)) == h


def test_highest_root_marks():
    assert rootsys.build("G", 2).marks == (3, 2)
    assert rootsys.build("F", 4).marks == (2, 3, 4, 2)
    assert rootsys.build("E", 8).marks == (2, 3, 4, 6, 5, 4, 3, 2)
    assert rootsys.build("A", 5).marks == (1, 1, 1, 1, 1)
    assert rootsys.build("B", 4).marks == (1, 2, 2, 2)
    assert rootsys.build("C", 4).marks == (2, 2, 2, 1)
    assert rootsys.build("D", 5).marks == (1, 2, 2, 1, 1)


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_top_height_is_coxeter_minus_one(t, n):
    rs = rootsys.build(t, n)
    top = max(rootsys.root_height(rs, a) for a in rs.positive_roots)
    assert top == rs.coxeter_number - 1
    assert rootsys.root_height(rs, rs.highest_root) == top


def test_root_height_examples():
    rs = rootsys.build("A", 3)
    assert rootsys.root_height(rs, rs.highest_root) == 3
    assert rootsys.root_height(rs, RootVec((0, 1, 0))) == 1
    g2 = rootsys.build("G", 2)
    assert rootsys.root_height(g2, -g2.highest_root) == -5


def test_root_height_rejects_non_roots():
    rs = rootsys.build("A", 2)
    with pytest.raises(ContractError):
        rootsys.root_height(rs, RootVec((2, 0)))


@pytest.mark.parametrize(
    "bad", [("D", 3), ("D", 2), ("A", 0), ("A", -1), ("B", 1), ("C", 1),
            ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2), ("AB", 2)]
)
def test_invalid_type_rank_rejected(bad):
    with pytest.raises(ValueError):
        rootsys.build(*bad)


@pytest.mark.parametrize("bad", [("A", True), ("B", 2.0), (1, 3), (None, 2), ("A", "2")])
def test_bool_float_and_non_string_arguments_are_rejected_and_leave_the_cache_clean(bad, capsys):
    # True == 1, so an untyped cache could store a system of rank True under A1's key
    rootsys.build.cache_clear()
    try:
        with pytest.raises(ValueError, match="no irreducible system"):
            rootsys.build(*bad)
        assert cli.main(["roots", "--type", "A", "--rank", "1"]) == 0
        assert type(json.loads(capsys.readouterr().out)["result"]["rank"]) is int
        with pytest.raises(ValueError, match="no irreducible system"):
            rootsys.build(*bad)  # again, now that A1 is cached
    finally:
        rootsys.build.cache_clear()


def test_type_and_rank_alone_name_a_system():
    rs = rootsys.build("E", 8)
    # type and rank alone compare and hash, so the oracle's chamber cache answers a rebuilt system
    assert dataclasses.replace(rs, marks=None) == rs
    assert hash(dataclasses.replace(rs, marks=None)) == hash(rs)
    rootsys.build.cache_clear()
    try:
        rebuilt = rootsys.build("E", 8)
        assert rebuilt is not rs and rebuilt == rs and hash(rebuilt) == hash(rs)
    finally:
        rootsys.build.cache_clear()
    assert rs != rootsys.build("E", 7) and rs != rootsys.build("A", 8)
    assert repr(rs) == "RootSystem(E8, 240 roots)"


@pytest.mark.parametrize("t,n", [("A", 1), ("B", 5), ("F", 4), ("G", 2)])
def test_positive_roots_is_a_view_of_the_one_store(t, n, monkeypatch):
    rootsys.build.cache_clear()
    try:
        wrapped = []
        monkeypatch.setattr(rootsys, "RootVec", wrapped.append)
        rs = rootsys.build(t, n)
        assert wrapped == []  # the search's tuples are stored as they are
        monkeypatch.undo()
        assert rs.highest_root == RootVec(rs.marks) and repr(rs).endswith(f" {2 * len(rs._index)} roots)")
        assert "positive_roots" not in vars(rs)  # build, highest_root and repr form no RootVec
        assert rs.positive_roots == tuple(RootVec(m) for m in rs._index)
        assert rs.positive_roots is rs.positive_roots and "positive_roots" in vars(rs)
        assert rs.highest_root == rs.positive_roots[-1] == RootVec(rs.marks)
        copy = dataclasses.replace(rs)
        assert "positive_roots" not in vars(copy)  # a copy derives its own view
        assert copy.positive_roots == rs.positive_roots and copy.positive_roots is not rs.positive_roots
    finally:
        rootsys.build.cache_clear()


@pytest.mark.parametrize("t,n", [("A", 12), ("B", 8), ("E", 8), ("G", 2)])
def test_closure_free_paths_never_derive_the_negative_roots(t, n, capsys):
    # a fresh system holds no derived fact, so each path below runs on it from scratch
    rootsys.build.cache_clear()
    try:
        rs = rootsys.build(t, n)
        rng = random.Random(f"phi-free:{t}{n}")
        point = alcove.CoweightPoint(tuple(Fraction(rng.randrange(-50, 100), 37) for _ in range(n)))
        # values k/(6h), so some roots sit on the window's edge 1/h
        phi = alcove.PhiHom(tuple(Fraction(rng.randrange(6 * rs.coxeter_number), 6 * rs.coxeter_number)
                                  for _ in range(n)))
        paths = [
            lambda: rootsys.coxeter_via_marks(rs),
            lambda: rootsys.coxeter_via_rho(rs),
            lambda: rootsys.coxeter_via_element(rs),
            lambda: heights.dynkin_height(rs, rootsys.fundamental_weight(rs, n)),
            lambda: heights.min_nontrivial_height(rs),
            lambda: alcove.reduce_to_alcove(rs, point),
            lambda: rootsys.is_good_prime(rs, 7),
            lambda: alcove.window_basis_report(rs, phi),
            lambda: alcove.critical_roots(rs, phi),
            lambda: alcove.boundary_roots(rs, phi),
        ]
        for k, path in enumerate(paths):
            path()
            assert "roots" not in vars(rs), k
            # paths 0-6 hand no root to their caller, so they leave Phi+'s RootVec view unformed
            assert k > 6 or "positive_roots" not in vars(rs), k
        assert "positive_roots" in vars(rs)  # the window roots form it
        system = ["--type", t, "--rank", str(n)]
        critical = ["critical", *system, "--phi", ",".join(map(str, phi.values))]
        basis = ["basis", *critical[1:]]
        rootsys.build.cache_clear()
        rs = rootsys.build(t, n)
        for argv in (["coxeter", *system], ["minheight", *system],
                     ["height", *system, "--weight", ",".join(["1"] * n)],
                     ["lowheight", *system, "--weight", ",".join(["1"] * n), "--p", "7"],
                     ["goodprime", *system, "--p", "7"],
                     ["reduce", *system, "--point=" + ",".join(map(str, point.values))]):
            assert cli.main(argv) == 0
            assert "roots" not in vars(rs) and "positive_roots" not in vars(rs), argv
        for argv in (critical, basis, *([[*basis, "--oracle"]] if n <= 3 else [])):
            assert cli.main(argv) == 0
            assert "roots" not in vars(rs), argv
        capsys.readouterr()
        # positive controls: a direct read and `liep roots` derive Phi once and keep it
        assert len(rs.roots) == 2 * len(rs.positive_roots) and "roots" in vars(rs)
        rootsys.build.cache_clear()
        fresh = rootsys.build(t, n)
        assert cli.main(["roots", *system]) == 0 and "roots" in vars(fresh)
        assert fresh.roots is fresh.roots
        # and `liep roots`, `parabolic` and `critical` each form the view of Phi+ on a fresh system
        for argv in (["roots", *system], ["parabolic", *system, "--subset", "1"], critical):
            rootsys.build.cache_clear()
            fresh = rootsys.build(t, n)
            assert cli.main(argv) == 0 and "positive_roots" in vars(fresh), argv
        capsys.readouterr()
    finally:
        rootsys.build.cache_clear()


@pytest.mark.parametrize("t,n", [("A", 6), ("B", 4), ("G", 2)])
def test_only_the_window_roots_of_a_window_report_form_the_view(t, n, monkeypatch):
    # with the window roots stubbed out, a report runs the reduction, the vertex's dominance
    # walk and the recomposition check alone, and each caps its walk by the store's count
    monkeypatch.setattr(alcove, "critical_roots", lambda rs, phi: ())
    rng = random.Random(f"report-view:{t}{n}")
    vertices = 0
    try:
        for _ in range(20):
            rootsys.build.cache_clear()
            rs = rootsys.build(t, n)
            phi = alcove.PhiHom(tuple(Fraction(rng.randrange(1000), 1000) for _ in range(n)))
            vertices += alcove.window_basis_report(rs, phi).pigeonhole_index > 0
            assert "positive_roots" not in vars(rs), phi
    finally:
        rootsys.build.cache_clear()
    assert vertices  # some reports re-centred at a vertex, which runs the dominance walk


def _run_every_system_path(t, n):
    """Build a fresh (t, n) system, run every path that derives a fact of it, and return a
    weakref to it with the names of the facts it holds."""
    rs = rootsys.build(t, n)
    rng = random.Random(f"released:{t}{n}")
    phi = alcove.PhiHom(tuple(Fraction(rng.randrange(1000), 1000) for _ in range(n)))
    assert rootsys.coxeter_via_marks(rs) == rootsys.coxeter_via_rho(rs) == rootsys.coxeter_via_element(rs)
    heights.dynkin_height(rs, rootsys.fundamental_weight(rs, 1))
    heights.min_nontrivial_height(rs)
    alcove.reduce_to_alcove(rs, alcove.lift(phi))
    alcove.window_basis_report(rs, phi)
    alcove.critical_roots(rs, phi)
    alcove.boundary_roots(rs, phi)
    assert len(rs.roots) == 2 * len(rs.positive_roots)  # only a direct read derives Phi-
    return weakref.ref(rs), set(vars(rs))


@pytest.mark.parametrize("t,n", [("A", 9), ("C", 5), ("G", 2)])
def test_build_cache_clear_releases_a_system_and_every_fact_derived_from_it(t, n):
    rootsys.build.cache_clear()
    try:
        ref, facts = _run_every_system_path(t, n)
        assert {"_dominant_coroots", "_two_rho_coroot", "_affine", "roots"} <= facts
        assert ref() is not None  # build's cache holds it
        rootsys.build.cache_clear()
        gc.collect()
        assert ref() is None
    finally:
        rootsys.build.cache_clear()


@pytest.mark.parametrize("t,n", [("A", 3), ("B", 3), ("G", 2)])
def test_a_same_label_copy_with_broken_rows_derives_its_own_facts(t, n):
    # doubled links make the group infinite, so every walk on the copy's rows runs past its cap
    rs = rootsys.build(t, n)
    rs._two_rho_coroot, rs._dominant_coroots, rs._affine  # the original's facts, read first
    broken = _rows_with(rs, lambda i, j, c: 2 * c if i != j else c)
    assert broken == rs and hash(broken) == hash(rs)
    with pytest.raises(ContractError, match="walk from -rho\\^vee did not reach rho\\^vee"):
        broken._two_rho_coroot
    for fact in ("_dominant_coroots", "_affine"):
        with pytest.raises(ContractError, match="coroot walk exceeded the number of positive roots"):
            getattr(broken, fact)


def _branch_ladder_cartan(type_label, rank):
    """The branch-per-type Cartan construction that the bond table replaced, kept as a twin."""
    bad = ValueError(
        f"no irreducible system of type {type_label!r} and rank {rank}: "
        "valid are A(n>=1), B(n>=2), C(n>=2), D(n>=4), E(6..8), F4, G2"
    )
    if not isinstance(type_label, str) or type_label not in "ABCDEFG" or len(type_label) != 1:
        raise bad
    if not is_int(rank) or rank < 1:
        raise bad

    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def link(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if type_label == "A":
        for k in range(rank - 1):
            link(k, k + 1)
    elif type_label == "B":
        if rank < 2:
            raise bad
        for k in range(rank - 2):
            link(k, k + 1)
        link(rank - 2, rank - 1, cij=-1, cji=-2)
    elif type_label == "C":
        if rank < 2:
            raise bad
        for k in range(rank - 2):
            link(k, k + 1)
        link(rank - 2, rank - 1, cij=-2, cji=-1)
    elif type_label == "D":
        if rank < 4:
            raise bad
        for k in range(rank - 2):
            link(k, k + 1)
        link(rank - 3, rank - 1)
    elif type_label == "E":
        if rank not in (6, 7, 8):
            raise bad
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
    elif type_label == "F":
        if rank != 4:
            raise bad
        link(0, 1)
        link(1, 2, cij=-1, cji=-2)
        link(2, 3)
    else:
        if rank != 2:
            raise bad
        link(0, 1, cij=-3, cji=-1)
    return C


def _matrix_or_message(construct, type_label, rank):
    try:
        return construct(type_label, rank)
    except ValueError as exc:
        return str(exc)


ODD_INPUTS = [True, 2.0, "2", None, "", "a", "AB", 1]


@pytest.mark.parametrize("type_label", list("ABCDEFG") + ODD_INPUTS, ids=repr)
def test_bond_table_matches_the_branch_ladder(type_label):
    for rank in list(range(-1, 31)) + ODD_INPUTS:
        want = _matrix_or_message(_branch_ladder_cartan, type_label, rank)
        assert _matrix_or_message(rootsys._cartan_matrix, type_label, rank) == want, (type_label, rank)


def test_d4_is_accepted_even_though_d3_is_not():
    assert len(rootsys.build("D", 4).roots) == 24


def test_good_primes():
    e8 = rootsys.build("E", 8)
    assert not rootsys.is_good_prime(e8, 2)
    assert not rootsys.is_good_prime(e8, 3)
    assert not rootsys.is_good_prime(e8, 5)
    assert rootsys.is_good_prime(e8, 7)
    g2 = rootsys.build("G", 2)
    assert not rootsys.is_good_prime(g2, 3)
    assert rootsys.is_good_prime(g2, 5)
    for n in range(1, 7):
        assert rootsys.is_good_prime(rootsys.build("A", n), 2)  # all primes good in type A


def test_good_prime_requires_primality():
    rs = rootsys.build("B", 3)
    for bad in (1, 4, 6, 9, -3, 0):
        with pytest.raises(ValueError):
            rootsys.is_good_prime(rs, bad)


def test_parabolic_degrees_example():
    rs = rootsys.build("A", 3)
    degrees, top = rootsys.parabolic_degrees(rs, {1, 3})
    got = {a.coords: d for a, d in degrees.items()}
    assert got == {(0, 1, 0): 1, (0, 1, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}
    assert top == 1


def test_parabolic_full_subset_empty_map():
    rs = rootsys.build("B", 3)
    degrees, top = rootsys.parabolic_degrees(rs, {1, 2, 3})
    assert degrees == {} and top == 0


def test_parabolic_empty_subset_degrees_are_heights():
    rs = rootsys.build("C", 3)
    degrees, top = rootsys.parabolic_degrees(rs, ())
    assert top == rs.coxeter_number - 1
    for a, d in degrees.items():
        assert d == sum(a.coords)


@pytest.mark.parametrize("t,n", [("A", 4), ("B", 3), ("C", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6)])
def test_maximal_parabolic_top_degree_is_the_mark(t, n):
    rs = rootsys.build(t, n)
    for i in range(1, n + 1):
        subset = [j for j in range(1, n + 1) if j != i]
        _, top = rootsys.parabolic_degrees(rs, subset)
        assert top == rs.marks[i - 1]


def test_parabolic_rejects_out_of_range_indices():
    rs = rootsys.build("A", 2)
    with pytest.raises(ValueError):
        rootsys.parabolic_degrees(rs, {0})
    with pytest.raises(ValueError):
        rootsys.parabolic_degrees(rs, {3})


def test_parabolic_rejects_bools_as_indices():
    # True == 1, so an isinstance(i, int) gate read (True,) as the subset {1}
    rs = rootsys.build("A", 2)
    for subset in ((True,), (1, True), (2, False)):
        with pytest.raises(ValueError, match="is not a simple index"):
            rootsys.parabolic_degrees(rs, subset)


def test_simple_index_rejects_bools_and_non_integers():
    # True == 1 and 1.0 == 1 passed the range test and were read as index 1
    rs = rootsys.build("A", 2)
    for i in (True, 1.0, 2.0):
        with pytest.raises(ValueError, match="is not a simple-root index"):
            rs.reflect(RootVec((1, 0)), i)
        with pytest.raises(ValueError, match="is not a simple-root index"):
            rootsys.fundamental_weight(rs, i)
        with pytest.raises(ValueError, match="is not a simple-root index"):
            rootsys.simple_reflection_matrix(rs, i)


@pytest.mark.parametrize("t,n", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2), ("F", 4), ("D", 4)])
def test_full_positive_set_degrees_are_heights(t, n):
    # the empty subset's parabolic has all of Phi+ as its radical
    rs = rootsys.build(t, n)
    degrees, top = rootsys.parabolic_degrees(rs, ())
    assert top == rs.coxeter_number - 1
    assert degrees == {a: sum(a.coords) for a in rs.positive_roots}


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_fundamental_weights_are_dual_to_coroots(t, n):
    # <omega_i, alpha_j^vee> = delta_ij: s_j fixes omega_i for j != i, and s_i subtracts
    # alpha_i, whose coordinates over the fundamental weights are column i of C
    rs = rootsys.build(t, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            image = _reflect_weight(rs, j, rootsys.fundamental_weight(rs, i).coords)
            assert image == [int(k == i - 1) - (i == j) * rs.cartan[k][j - 1] for k in range(n)]


def test_weight_root_conversion_round_trip():
    # a root's coordinates C a over the fundamental weights descend to a negative root b,
    # the lowest of its length, and the descent records the root coordinates of a - b
    rs = rootsys.build("F", 4)

    def to_weight(v):
        return tuple(sum(c * x for c, x in zip(row, v.coords)) for row in rs.cartan)

    by_weight = {to_weight(b): b for b in rs.roots}
    lowest = set()
    for a in rs.roots:
        low, steps = heights._descend(rs, WeightVec(to_weight(a)))
        b = by_weight[tuple(low)]
        assert all(x + y == z for x, y, z in zip(b.coords, steps, a.coords))
        lowest.add(b)
    assert len(lowest) == 2 and all(sum(b.coords) < 0 for b in lowest)


def test_coroot_pairings():
    for t, n in [("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
        rs = rootsys.build(t, n)
        walked = rs._dominant_coroots
        # each walk result's values on the simple roots are C^T times its coordinates
        for c, z in walked:
            assert list(z) == [sum(rs.cartan[k][j] * c[k] for k in range(n)) for j in range(n)]
        # <theta, theta^vee> = 2, with theta^vee the lowest dominant coroot
        assert sum(map(mul, rs.marks, walked[0][1])) == 2


def test_highest_coroot_differs_from_theta_coroot_outside_simply_laced():
    # in type C the dual system is type B, so the highest coroot is not theta's
    rs = rootsys.build("C", 3)
    theta_dual, high = rs._dominant_coroots
    assert sum(high[0]) > sum(theta_dual[0])
    assert len(rootsys.build("E", 6)._dominant_coroots) == 1


def test_serialization_schema(capsys):
    assert cli.main(["roots", "--type", "G", "--rank", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)["result"]
    assert doc["type"] == "G" and doc["rank"] == 2
    assert doc["cartan_matrix"] == [[2, -3], [-1, 2]]
    assert doc["highest_root"] == [3, 2]
    assert doc["marks"] == [3, 2]
    assert doc["coxeter_number"] == 6
    assert doc["root_count"] == 12
    assert len(doc["roots"]) == 12 and len(doc["positive_roots"]) == 6
    assert doc["positive_roots"][0] in ([1, 0], [0, 1])
    assert doc["roots"] == doc["positive_roots"] + [[-c for c in a] for a in doc["positive_roots"]]


def test_build_is_cached():
    assert rootsys.build("E", 7) is rootsys.build("E", 7)


@pytest.mark.parametrize("t,n", [("A", 3), ("B", 4), ("C", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)])
def test_kernel_actions_match_the_reflection_matrices(t, n):
    rs = rootsys.build(t, n)
    rng = random.Random(f"kernel:{t}{n}")
    for i in range(1, n + 1):
        s = rootsys.simple_reflection_matrix(rs, i)
        v = [rng.randint(-5, 5) for _ in range(n)]
        # a root vector is a column: s v
        root = list(rs.reflect(RootVec(tuple(v)), i).coords)
        assert root == [sum(s[r][c] * v[c] for c in range(n)) for r in range(n)]
        # a point is a row of values on the simple roots: v s
        point = rootsys.apply_letters(rs, (i,), list(v))
        assert point == [sum(v[r] * s[r][c] for r in range(n)) for c in range(n)]
        # a weight is C times root coordinates: s acts as C s C^-1
        lam = [sum(rs.cartan[j][k] * v[k] for k in range(n)) for j in range(n)]
        weight = _reflect_weight(rs, i, lam)
        assert weight == [sum(rs.cartan[j][k] * root[k] for k in range(n)) for j in range(n)]
    for bad in (0, n + 1):
        with pytest.raises(ValueError):
            rootsys.apply_letters(rs, (1, bad), [0] * n)
        with pytest.raises(ValueError):
            rs.reflect(RootVec((0,) * n), bad)


# Slow twins at rank <= 12: the reverse search and the orbit order against the
# dense routes they replaced, copied here as they were.
TWINS = [("A", 8), ("A", 12), ("B", 8), ("B", 12), ("C", 8), ("C", 12), ("D", 8), ("D", 12),
         ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


def _dense_closure(C, rank):
    found = {}
    work = []
    for i in range(rank):
        e = tuple(1 if j == i else 0 for j in range(rank))
        found[e] = e
        work.append(e)
    while work:
        m = work.pop()
        c = found[m]
        for i in range(rank):
            pa = sum(C[i][j] * m[j] for j in range(rank))
            if pa == 0:
                continue
            m2 = list(m)
            m2[i] -= pa
            key = tuple(m2)
            if key in found:
                continue
            pc = sum(C[k][i] * c[k] for k in range(rank))
            c2 = list(c)
            c2[i] -= pc
            found[key] = tuple(c2)
            work.append(key)
    return found


def _dense_coxeter_order(rs):
    n = rs.rank
    cox = alcove._identity(n)
    for i in range(1, n + 1):
        cox = alcove._matmul(cox, rootsys.simple_reflection_matrix(rs, i))
    power = cox
    for k in range(1, 101):
        if power == alcove._identity(n):
            return k
        power = alcove._matmul(power, cox)
    raise AssertionError("Coxeter element order exceeds 100")


@pytest.mark.parametrize("t,n", TWINS + [("A", 30), ("D", 30)])
def test_sparse_closure_matches_dense_closure(t, n):
    # the dense closure generates both halves; the search makes Phi+ alone, which must be its
    # positive half in (height, coordinates) order, the order of every report
    rs = rootsys.build(t, n)
    dense = _dense_closure([list(row) for row in rs.cartan], n)
    # the dense map sends each root to its coroot, the twin of the coroot walks
    positive = {m: c for m, c in dense.items() if min(m) >= 0}
    assert list(rs._index) == sorted(positive, key=lambda m: (sum(m), m))
    negatives = {m: c for m, c in dense.items() if min(m) < 0}
    assert negatives == {tuple(-x for x in m): tuple(-x for x in c) for m, c in positive.items()}
    assert {a.coords for a in rs.roots} == set(dense)
    assert rs._two_rho_coroot == tuple(map(sum, zip(*positive.values())))
    walked = [c for c, _ in rs._dominant_coroots]
    assert walked[0] == positive[rs.marks]
    assert walked[-1] == max(positive.values(), key=sum)


@pytest.mark.parametrize("t,n", TWINS + [("A", 60), ("B", 30), ("C", 30), ("D", 40)])
def test_parents_lower_each_root_at_its_lowest_positive_pairing(t, n):
    rs = rootsys.build(t, n)
    assert len(rs._parents) == len(rs.positive_roots)
    for r, (root, (parent, i, k)) in enumerate(zip(rs.positive_roots, rs._parents)):
        if parent == -1:
            assert k == 1 and root.coords == tuple(int(j == i) for j in range(n))
            continue
        # root = s_i(parent) = parent + k alpha_i, i the lowest index pairing positively
        pairings = [sum(c * root.coords[j] for j, c in row) for row in rs._rows]
        assert k == pairings[i] > 0 and max(pairings[:i], default=0) <= 0
        below = list(root.coords)
        below[i] -= k
        assert 0 <= parent < r and rs.positive_roots[parent].coords == tuple(below)


@pytest.mark.parametrize("t,n", TWINS)
def test_orbit_order_matches_dense_product_order(t, n):
    rs = rootsys.build(t, n)
    assert rootsys.coxeter_via_element(rs) == _dense_coxeter_order(rs) == rs.coxeter_number


def _simple_root_orbit_order(rs):
    """lcm of the orbit lengths of the simple roots under c, applied as the letters rank..1."""
    letters = range(rs.rank, 0, -1)
    order = 1
    for i in range(rs.rank):
        v = start = RootVec(tuple(int(j == i) for j in range(rs.rank)))
        for length in range(1, len(rs.roots) + 1):
            for j in letters:
                v = rs.reflect(v, j)
            if v == start:
                break
        else:
            raise AssertionError("simple-root orbit exceeds |Phi|")
        order = math.lcm(order, length)
    return order


UP_TO_TWELVE = ([("A", n) for n in range(1, 13)] + [("B", n) for n in range(2, 13)]
                + [("C", n) for n in range(2, 13)] + [("D", n) for n in range(4, 13)]
                + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("t,n", UP_TO_TWELVE)
def test_rho_orbit_order_matches_simple_root_orbit_lcm(t, n):
    rs = rootsys.build(t, n)
    assert rootsys.coxeter_via_element(rs) == _simple_root_orbit_order(rs) == rs.coxeter_number


def test_coxeter_element_order_above_one_hundred():
    # h = 102 lies past a fixed cap of 100 powers; the orbits are bounded by |Phi| instead
    rs = rootsys.build("B", 51)
    assert rootsys.coxeter_via_element(rs) == rootsys.coxeter_via_marks(rs) == 102


def test_coxeter_orbit_beyond_the_root_set_is_a_contract_error(monkeypatch):
    rs = rootsys.build("A", 3)

    def drift(rs, letters, vec):
        # a broken kernel that moves every vector to a new one never closes an orbit
        vec[:] = [x + 1 for x in vec]
        return vec

    monkeypatch.setattr(rootsys, "apply_letters", drift)
    with pytest.raises(ContractError, match="exceeds"):
        rootsys.coxeter_via_element(rs)


@pytest.mark.parametrize("t,n", [("A", n) for n in range(1, 13)]
                         + [(t, n) for t in "BC" for n in range(2, 10)]
                         + [("D", n) for n in range(4, 10)]
                         + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
def test_coxeter_element_steps_h_times_rank_letters(monkeypatch, t, n):
    # c = s_1 ... s_rank has order h, so its orbit of rho^vee takes h powers of rank letters
    rs = rootsys.build(t, n)
    apply_letters, stepped = rootsys.apply_letters, []

    def counting(rs, letters, vec):
        letters = list(letters)
        stepped.append(len(letters))
        return apply_letters(rs, letters, vec)

    monkeypatch.setattr(rootsys, "apply_letters", counting)
    assert rootsys.coxeter_via_element(rs) == rs.coxeter_number
    assert sum(stepped) == rs.coxeter_number * n


@pytest.mark.parametrize("t,n", ALL_TYPES)
@pytest.mark.parametrize("side", ["_rows", "_cols"])
def test_walk_from_minus_rho_takes_every_positive_root_and_moves_by_the_cartan_matrix(t, n, side):
    # -rho^vee on the rows and -rho on the columns sit in the chamber of w_0, so the walk
    # needs exactly |Phi+| reflections: a cap one lower is one too few
    rs = rootsys.build(t, n)
    lines, npos = getattr(rs, side), len(rs.positive_roots)
    with pytest.raises(ContractError, match="one too few"):
        rootsys._walk(lines, [-1] * n, npos - 1, "one too few")
    # z moves by C^T steps on the rows (z_j -= C[i][j] z_i), by C steps on the columns
    moves = rs.cartan if side == "_cols" else tuple(zip(*rs.cartan))
    rng = random.Random(f"walk:{t}{n}{side}")
    starts = [[-1] * n] + [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(10)]
    for start in starts:
        z = list(start)
        letters, steps = rootsys._walk(lines, z, npos, "unused")
        assert min(z) >= 0
        assert [b - a for a, b in zip(start, z)] == [sum(map(mul, row, steps)) for row in moves]
        if start == [-1] * n:
            assert len(letters) == npos and z == [1] * n


@pytest.mark.parametrize("t,n", TWINS + [("A", 20)])
def test_dense_reflections_keep_the_root_set(t, n):
    # the dense matrices share no code with the search, so they check it independently
    rs = rootsys.build(t, n)
    for i in range(1, n + 1):
        s = rootsys.simple_reflection_matrix(rs, i)
        for a in rs.roots:
            image = tuple(sum(x * v for x, v in zip(row, a.coords)) for row in s)
            assert rs.is_root(RootVec(image))


def test_a_closure_that_loses_a_root_pair_fails_the_count(monkeypatch):
    search = rootsys._reverse_search
    lost = (1, 1, 0, 0)  # neither simple nor highest in A4, so only the count notices

    def lossy(cols):
        # the search makes Phi+ only, so losing lost and its link also loses its negative
        roots, links = search(cols)
        k = roots.index(lost)
        return roots[:k] + roots[k + 1:], links[:k] + links[k + 1:]

    monkeypatch.setattr(rootsys, "_reverse_search", lossy)
    rootsys.build.cache_clear()
    try:
        with pytest.raises(ContractError, match="18 roots, not rank \\* h = 20"):
            rootsys.build("A", 4)
    finally:
        rootsys.build.cache_clear()


def test_a_second_root_at_the_top_height_fails_the_uniqueness_check(monkeypatch):
    search = rootsys._reverse_search

    def doubled(cols):
        # (2, 2, 1) has theta = (1, 2, 2)'s height on B3, so theta is no longer the one top root;
        # no root lies below it, so it borrows theta's link
        roots, links = search(cols)
        return roots[:-1] + [(2, 2, 1), roots[-1]], links + links[-1:]

    monkeypatch.setattr(rootsys, "_reverse_search", doubled)
    with pytest.raises(ContractError, match="highest root is not unique"):
        rootsys._build.__wrapped__("B", 3)  # the uncached body, so the cache keeps no broken B3


def test_reflect_rejects_a_vector_of_the_wrong_length():
    rs = rootsys.build("A", 3)
    for coords, n in (((1, 0), 2), ((1, 0, 0, 0), 4)):
        with pytest.raises(ValueError, match=f"expected 3 coordinates for A3, got {n}"):
            rs.reflect(RootVec(coords), 1)


def test_reflect_rejects_non_integer_coordinates():
    # (1.5, 0) was reflected to (-1.5, 0)
    rs = rootsys.build("A", 2)
    for coords in ((1.5, 0), (1, 0.0), (True, 0)):
        with pytest.raises(ValueError, match="is not an integer"):
            rs.reflect(RootVec(coords), 1)


def test_is_root_and_root_height_reject_non_integer_coordinates():
    # 1.0 and True hash like 1: root_height gave 1.0 and is_root gave True
    rs = rootsys.build("A", 2)
    for coords in ((1.0, 0), (1, 0.5), (True, 0), (0, False)):
        with pytest.raises(ValueError, match="is not an integer"):
            rs.is_root(RootVec(coords))
        with pytest.raises(ValueError, match="is not an integer"):
            rootsys.root_height(rs, RootVec(coords))


def test_is_root_and_root_height_reject_a_vector_of_the_wrong_length():
    rs = rootsys.build("A", 2)
    for coords in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="expected 2 coordinates for A2"):
            rs.is_root(RootVec(coords))
        with pytest.raises(ValueError, match="expected 2 coordinates for A2"):
            rootsys.root_height(rs, RootVec(coords))


def _rows_with(rs, entry):
    """A copy of ``rs``, with no derived fact cached, whose sparse rows hold ``entry(i, j, c)``
    in place of each Cartan entry ``c = C[i][j]``."""
    rows = tuple(tuple((j, entry(i, j, c)) for j, c in row) for i, row in enumerate(rs._rows))
    return dataclasses.replace(rs, _rows=rows)


@pytest.mark.parametrize("t,n,entry", [
    ("A", 1, lambda i, j, c: 3),  # one letter, as |Phi+| = 1, but the walk ends at 2
    ("A", 3, lambda i, j, c: c if i == j else 0),  # three letters, not |Phi+| = 6
    ("B", 3, lambda i, j, c: 2 * c if i != j else c),  # an infinite group: the cap is hit
    ("G", 2, lambda i, j, c: -c if i != j else c),  # positive off-diagonal entries
], ids=["wrong-end", "too-few-letters", "past-the-cap", "positive-links"])
def test_two_rho_coroot_rejects_rows_that_disagree_with_the_cartan_data(t, n, entry):
    rs = rootsys.build(t, n)
    assert rs._two_rho_coroot == _rows_with(rs, lambda i, j, c: c)._two_rho_coroot
    with pytest.raises(ContractError, match="walk from -rho\\^vee did not reach rho\\^vee"):
        _rows_with(rs, entry)._two_rho_coroot


def test_vectors_share_one_base_but_never_compare_equal():
    assert RootVec((1, 0)) != WeightVec((1, 0))
    assert RootVec([1, 0]) == RootVec((1, 0)) and RootVec([1, 0]).coords == (1, 0)
    r, w = RootVec((1, 2)), WeightVec((3, -1))
    for got, cls, coords in ((r + r, RootVec, (2, 4)), (r - r, RootVec, (0, 0)), (-r, RootVec, (-1, -2)),
                             (w + w, WeightVec, (6, -2)), (w - w, WeightVec, (0, 0)),
                             (-w, WeightVec, (-3, 1))):
        assert type(got) is cls and got.coords == coords
    assert not w.is_dominant()
    with pytest.raises(ValueError):
        r + RootVec((1, 2, 3))
    with pytest.raises(ValueError):
        w - WeightVec((1,))
