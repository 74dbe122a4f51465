"""The checker accepts the package's real outputs and rejects corrupted ones.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src")]

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from liep import alcove, charp, cli, heights, rootsys  # noqa: E402


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _weyl_query(t="A", n=4, phi=(Fraction(5, 7), Fraction(2, 3), Fraction(1, 9), Fraction(3, 5)),
                weight=(1, 0, 2, 1)):
    rs = rootsys.build(t, n)
    p = alcove.PhiHom(phi)
    report = alcove.window_basis_report(rs, p)
    h = heights.dynkin_height(rs, rootsys.WeightVec(weight))
    tr = report.transcript
    return {
        "basis_word": report.basis.weyl_word,
        "reduced": report.reduced_point.values,
        "weyl_word": tr.weyl_word,
        "net": tr.net_translation,
        "pigeonhole": report.pigeonhole_index,
        "dominance": report.dominance_word,
        "critical": [a.coords for a in alcove.critical_roots(rs, p)],
        "boundary": [a.coords for a in alcove.boundary_roots(rs, p)],
        "height": h.height,
        "via_pairing": h.via_pairing,
        "via_difference": h.via_difference,
        "lambda_minus": h.lambda_minus.coords,
    }


@pytest.mark.parametrize("t,n", [("A", 1), ("A", 9), ("B", 5), ("C", 6), ("D", 7), ("E", 6),
                                 ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
def test_systems_agree_with_the_package(t, n):
    rs = rootsys.build(t, n)
    check.check_system(t, n, rs.coxeter_number, rs.marks, len(rs.positive_roots))
    assert sorted(check.system(t, n).positive) == sorted(a.coords for a in rs.positive_roots)


def test_wrong_coxeter_number_is_rejected():
    rs = rootsys.build("E", 8)
    with pytest.raises(check.CheckError, match="h = 31"):
        check.check_system("E", 8, rs.coxeter_number + 1, rs.marks, len(rs.positive_roots))
    code, out = _cli(["coxeter", "--type", "E", "--rank", "8"])
    check.check_cli(["coxeter", "--type", "E", "--rank", "8"], code, out)
    report = json.loads(out)
    report["result"]["h"] = report["result"]["via_marks"] = 29
    with pytest.raises(check.CheckError):
        check.check_cli(["coxeter", "--type", "E", "--rank", "8"], code, json.dumps(report))


def test_weyl_query_accepted_and_flipped_basis_letter_rejected():
    q = _weyl_query()
    phi = (Fraction(5, 7), Fraction(2, 3), Fraction(1, 9), Fraction(3, 5))
    check.check_weyl_query("A", 4, phi, (1, 0, 2, 1), q)
    word = list(q["basis_word"])
    word[0] = 1 + word[0] % 4
    with pytest.raises(check.CheckError, match="basis word"):
        check.check_weyl_query("A", 4, phi, (1, 0, 2, 1), {**q, "basis_word": tuple(word)})


def test_negative_window_root_rejected():
    s = check.system("A", 2)
    # phi = (8/9, 8/9) puts -alpha_1 in the window, so the reference chamber fails
    with pytest.raises(check.CheckError, match="negative under the basis"):
        check._check_positive(s, (), [(-1, 0)])


@pytest.mark.parametrize("field,index", [("reduced", 0), ("net", 1), ("height", None),
                                         ("lambda_minus", 2)])
def test_weyl_entry_off_by_one_rejected(field, index):
    q = _weyl_query()
    value = q[field]
    if index is None:
        bad = value + 1
    else:
        bad = list(value)
        bad[index] += 1
    phi = (Fraction(5, 7), Fraction(2, 3), Fraction(1, 9), Fraction(3, 5))
    with pytest.raises(check.CheckError):
        check.check_weyl_query("A", 4, phi, (1, 0, 2, 1), {**q, field: bad})


def test_critical_roots_must_be_exactly_the_window():
    q = _weyl_query()
    phi = (Fraction(5, 7), Fraction(2, 3), Fraction(1, 9), Fraction(3, 5))
    with pytest.raises(check.CheckError, match="critical roots"):
        check.check_weyl_query("A", 4, phi, (1, 0, 2, 1), {**q, "critical": q["critical"][1:]})


def _series(p=101, n=5, seed=3):
    rng = random.Random(seed)
    x = workloads._conjugate_nilpotent(rng, p, n)
    xm = charp.FpMatrix.from_rows(p, x)
    u = charp.trunc_exp(xm)
    t = rng.randrange(p)
    return p, x, [list(r) for r in u.rows], [list(r) for r in charp.trunc_log(u).rows], t, \
        [list(r) for r in charp.t_power(u, t).rows]


def test_series_accepted_and_entry_off_by_one_rejected():
    p, x, u, log_u, t, u_t = _series()
    check.check_series(p, x, u, log_u, t, u_t)
    for which in range(3):
        mats = [[list(r) for r in m] for m in (u, log_u, u_t)]
        mats[which][0][1] = (mats[which][0][1] + 1) % p
        with pytest.raises(check.CheckError):
            check.check_series(p, x, mats[0], mats[1], t, mats[2])


def test_bch_off_by_one_rejected():
    p, n = 101, 4
    rng = random.Random(5)
    a, b = workloads._strict_upper(rng, p, n), workloads._strict_upper(rng, p, n)
    table = charp.bch_table(p, n - 1)
    z = charp.bch_apply(table, charp.FpMatrix.from_rows(p, a), charp.FpMatrix.from_rows(p, b))
    rows = [list(r) for r in z.rows]
    check.check_bch(p, a, b, rows)
    rows[1][3] = (rows[1][3] + 1) % p
    with pytest.raises(check.CheckError, match="exp"):
        check.check_bch(p, a, b, rows)


def test_heisenberg_wrong_span_rejected():
    rep = charp.heisenberg_module_check(5)
    fields = {k: getattr(rep, k) for k in
              ("p", "shift_order_ok", "commutator_ok", "span_dimension", "spans_full_algebra")}
    check.check_heisenberg(5, fields)
    with pytest.raises(check.CheckError, match="span dimension"):
        check.check_heisenberg(5, {**fields, "span_dimension": 24})


def test_every_cli_round_slot_is_accepted():
    rng = random.Random(11)
    for gen, _, _ in workloads.CLI_ROUND:
        argv = gen(rng)
        check.check_cli(argv, *_cli(argv))


@pytest.mark.parametrize("argv,path", [
    (["basis", "--type", "B", "--rank", "3", "--phi", "3/17,5/13,2/7", "--oracle"], ("weyl_word", 0)),
    (["basis", "--type", "A", "--rank", "2", "--phi", "8/9,8/9", "--oracle"], ("oracle_count",)),
    (["reduce", "--type", "A", "--rank", "3", "--point=4/3,1/3,-5/2"], ("net_translation", 0)),
    (["exp", "--p", "5", "--matrix", "[[0,1,0],[0,0,1],[0,0,0]]"], ("output", "matrix", 0, 2)),
    (["tpower", "--p", "3", "--matrix", "[[1,1],[0,1]]", "--t", "5"], ("output", "matrix", 0, 1)),
    (["minheight", "--type", "F", "--rank", "4"], ("min_height",)),
    (["bch", "--p", "7", "--degree", "4"], ("terms", 3, "coefficient")),
    (["heisenberg", "--p", "5"], ("span_dimension",)),
    (["weightdemo", "--p", "5"], ("total_dim",)),
])
def test_cli_corruptions_rejected(argv, path):
    code, out = _cli(argv)
    check.check_cli(argv, code, out)
    report = json.loads(out)
    node = report["result"]
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    if isinstance(value, str):  # an exact rational "a/b"
        node[path[-1]] = str(Fraction(value) + 1)
    elif argv[0] == "basis" and path[0] == "weyl_word":
        node[path[-1]] = 1 + value % 3
    else:
        node[path[-1]] = value + 1
    with pytest.raises(check.CheckError):
        check.check_cli(argv, code, json.dumps(report))


def test_cli_contract_violations_rejected():
    argv = ["glheight", "--dims", "4,3", "--ms", "2,1", "--p", "7"]
    code, out = _cli(argv)
    check.check_cli(argv, code, out)
    with pytest.raises(check.CheckError, match="exit code"):
        check.check_cli(argv, 1, out)
    with pytest.raises(check.CheckError, match="one JSON object"):
        check.check_cli(argv, code, out + out)


def test_tracer_patches_every_namespace_and_restores():
    import liep

    orig_build, orig_srm = rootsys.build, rootsys.simple_reflection_matrix
    orig_mul = charp.FpMatrix.__mul__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert alcove.simple_reflection_matrix is rootsys.simple_reflection_matrix
        assert alcove.simple_reflection_matrix is not orig_srm
        assert liep.build is rootsys.build is not orig_build
        rs = rootsys.build("A", 3)
        alcove.window_basis_report(rs, alcove.PhiHom((Fraction(1, 2),) * 3))
        charp.trunc_exp(charp.FpMatrix.from_rows(5, [[0, 1], [0, 0]]))
    finally:
        tracer.uninstall()
    assert rootsys.build is orig_build and alcove.simple_reflection_matrix is orig_srm
    assert charp.FpMatrix.__mul__ is orig_mul
    assert tracer.calls["alcove.window_basis_report"] == 1
    assert tracer.calls["charp.from_rows"] >= 1 and tracer.calls["charp.mul"] >= 5
    assert tracer.counters["alcove.word_matrix_letters"] == tracer.counters["alcove.weyl_word_letters"]
    own = tracer.self_seconds()
    total = sum(end - start for name, start, end, parent, _ in tracer.spans if parent < 0)
    leaves = sum(rec[4] for rec in tracer.spans)
    # self times and the leaf time charged to spans partition the time under the root spans
    assert sum(own.values()) + leaves == pytest.approx(total, rel=1e-6, abs=1e-9)
    assert min(own.values()) >= 0
