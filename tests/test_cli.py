"""End-to-end command-line checks: envelopes, exit codes, and determinism."""

import dataclasses
import enum
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liep import acceptance, alcove, charp, cli, heights, rootsys
from liep.charp import FpMatrix
from test_cli_properties import _PRIMES, _SYSTEMS, _bench_check, _checker_argv


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def _no_floats(x):
    if isinstance(x, float):
        return False
    if isinstance(x, list):
        return all(_no_floats(v) for v in x)
    if isinstance(x, dict):
        return all(_no_floats(v) for v in x.values())
    return True


def _drop_elapsed(x):
    if isinstance(x, dict):
        return {k: _drop_elapsed(v) for k, v in x.items() if k != "elapsed_us"}
    if isinstance(x, list):
        return [_drop_elapsed(v) for v in x]
    return x


def test_envelope_schema(capsys):
    code, out, _ = run_cli(capsys, ["coxeter", "--type", "E", "--rank", "8"])
    assert code == 0
    assert set(out) == {"subcommand", "result", "invariants", "elapsed_us"}
    assert out["subcommand"] == "coxeter"
    assert isinstance(out["invariants"], list) and out["invariants"]
    assert isinstance(out["elapsed_us"], int)
    assert _no_floats(out)


def test_coxeter_routes(capsys):
    code, out, _ = run_cli(capsys, ["coxeter", "--type", "E", "--rank", "8"])
    assert code == 0
    r = out["result"]
    assert r["h"] == r["via_marks"] == r["via_rho"] == r["via_element"] == 30
    assert r["agreement"] is True


def test_roots_report(capsys):
    code, out, _ = run_cli(capsys, ["roots", "--type", "E", "--rank", "8"])
    assert code == 0
    r = out["result"]
    assert r["root_count"] == 240
    assert r["coxeter_number"] == 30
    assert len(r["positive_roots"]) == 120


def test_goodprime(capsys):
    code, out, _ = run_cli(capsys, ["goodprime", "--type", "E", "--rank", "8", "--p", "7"])
    assert code == 0 and out["result"]["good"] is True
    code, out, _ = run_cli(capsys, ["goodprime", "--type", "E", "--rank", "8", "--p", "5"])
    assert code == 0 and out["result"]["good"] is False


def test_parabolic(capsys):
    code, out, _ = run_cli(capsys, ["parabolic", "--type", "A", "--rank", "3", "--subset", "1,3"])
    assert code == 0
    assert out["result"]["max_degree"] == 1
    assert any("mark" in s for s in out["invariants"])


def test_height_examples(capsys):
    code, out, _ = run_cli(capsys, ["height", "--type", "A", "--rank", "1", "--weight", "0"])
    assert code == 0 and out["result"]["height"] == 0
    code, out, _ = run_cli(capsys, ["height", "--type", "A", "--rank", "4", "--weight", "1,0,0,1"])
    assert code == 0
    assert out["result"]["height"] == out["result"]["via_difference"] == 8


def test_lowheight(capsys):
    code, out, _ = run_cli(
        capsys, ["lowheight", "--type", "A", "--rank", "4", "--weight", "1,0,0,1", "--p", "11"]
    )
    assert code == 0 and out["result"]["low_height"] is True


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lowheight_matches_library_at_the_edge(capsys, p):
    rs = rootsys.build("A", 2)
    weight = rootsys.WeightVec((1, 0))  # height 2
    code, out, _ = run_cli(capsys, ["lowheight", "--type", "A", "--rank", "2",
                                    "--weight", "1,0", "--p", str(p)])
    assert code == 0 and out["result"]["report"]["height"] == 2
    assert out["result"]["low_height"] is (p > heights.dynkin_height(rs, weight).height) is (p > 2)


def test_lowheight_usage_error_before_contract_error(capsys):
    argv = ["lowheight", "--type", "A", "--rank", "2", "--weight=-1,0", "--p"]
    code, out, _ = run_cli(capsys, argv + ["8"])
    assert code == 1 and out["error"] == {"kind": "usage", "message": "8 is not prime"}
    code, out, _ = run_cli(capsys, argv + ["7"])
    assert code == 2 and out["error"]["kind"] == "contract"


def test_minheight(capsys):
    code, out, _ = run_cli(capsys, ["minheight", "--type", "F", "--rank", "4"])
    assert code == 0
    assert out["result"]["min_height"] == 16
    assert out["result"]["coxeter_number"] == 12


def test_glheight_with_bound(capsys):
    code, out, _ = run_cli(capsys, ["glheight", "--dims", "4", "--ms", "2", "--p", "5"])
    assert code == 0
    assert out["result"]["height"] == 4
    assert out["result"]["bound_ok"] is True


def test_basis_with_oracle(capsys):
    code, out, _ = run_cli(
        capsys, ["basis", "--type", "A", "--rank", "2", "--phi", "1/9,1/9", "--oracle"]
    )
    assert code == 0
    r = out["result"]
    assert r["weyl_word"] == []
    assert r["basis_roots"] == [[1, 0], [0, 1]]
    assert r["oracle_member"] is True
    assert r["oracle_count"] >= 1
    assert sorted(r["critical_roots"]) == [[0, 1], [1, 0], [1, 1]]


def test_critical_boundary_instance(capsys):
    code, out, _ = run_cli(capsys, ["critical", "--type", "A", "--rank", "2", "--phi", "1/3,1/3"])
    assert code == 0
    r = out["result"]
    assert r["window"] == "1/3"
    assert r["critical_roots"] == []
    assert sorted(r["boundary_roots"]) == [[-1, -1], [0, 1], [1, 0]]


def test_reduce_transcript(capsys):
    code, out, _ = run_cli(capsys, ["reduce", "--type", "A", "--rank", "2", "--point", "4/3,1/3"])
    assert code == 0
    r = out["result"]
    assert r["reduced_point"] == ["1/3", "1/3"]
    assert r["weyl_word"] == [2, 1, 2, 1]
    assert r["net_translation"] == [2, -1]
    assert all(s["kind"] in {"translate", "reflect", "affine_reflect"} for s in r["steps"])


def test_exp_frozen(capsys):
    code, out, _ = run_cli(
        capsys, ["exp", "--p", "5", "--matrix", "[[0,1,0],[0,0,1],[0,0,0]]"]
    )
    assert code == 0
    assert out["result"]["output"] == {"p": 5, "matrix": [[1, 1, 3], [0, 1, 1], [0, 0, 1]]}


def test_log_inverts_exp(capsys):
    code, out, _ = run_cli(
        capsys, ["log", "--p", "5", "--matrix", "[[1,1,3],[0,1,1],[0,0,1]]"]
    )
    assert code == 0
    assert out["result"]["output"]["matrix"] == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


def test_tpower(capsys):
    code, out, _ = run_cli(
        capsys, ["tpower", "--p", "3", "--matrix", "[[1,1],[0,1]]", "--t", "5"]
    )
    assert code == 0
    assert out["result"]["output"]["matrix"] == [[1, 2], [0, 1]]


def test_bch_terms_and_application(capsys):
    x = "[[0,1,3],[0,0,1],[0,0,0]]"
    y = "[[0,2,0],[0,0,4],[0,0,0]]"
    code, out, _ = run_cli(capsys, ["bch", "--p", "5", "--degree", "2", "--x", x, "--y", y])
    assert code == 0
    r = out["result"]
    assert {"degree": 2, "word": [0, 1], "coefficient": "1/2"} in r["terms"]
    table = charp.bch_table(5, 2)
    expected = charp.bch_apply(
        table, FpMatrix.from_rows(5, json.loads(x)), FpMatrix.from_rows(5, json.loads(y))
    )
    assert r["applied"]["z"]["matrix"] == [list(row) for row in expected.rows]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_bch_tables_pass_the_independent_group_law_check(capsys, p):
    # check_cli evaluates each table as a group law over 1000003 on its own matrices
    check = _bench_check()
    for degree in range(1, min(p - 1, 8) + 1):
        argv = ["bch", "--p", str(p), "--degree", str(degree)]
        code = cli.main(argv)
        check.check_cli(argv, code, capsys.readouterr().out)


def _flag(rng, name, value):
    """``[name, value]`` or ``[name=value]``; a value that starts with "-" parses only in the second."""
    return [f"{name}={value}"] if value.startswith("-") or rng.random() < 0.5 else [name, value]


def _rationals(rng, n):
    return ",".join(f"{rng.randint(-12, 12)}/{rng.randint(1, 12)}" for _ in range(n))


def _ints(values):
    return ",".join(map(str, values))


def _system_calls(rng, t, n):
    """One call of each system subcommand on ``t`` ``n``, the type in a drawn case."""
    system = ["--type", rng.choice((t, t.lower())), "--rank", str(n)]
    weight = _ints(rng.randint(0, 3) for _ in range(n))  # dominant, as a height needs
    subset = _ints(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
    calls = [["coxeter"], ["roots"], ["minheight"],
             ["goodprime"] + _flag(rng, "--p", str(rng.choice(_PRIMES))),
             ["parabolic"] + (_flag(rng, "--subset", subset) if subset else []),
             ["height"] + _flag(rng, "--weight", weight),
             ["lowheight"] + _flag(rng, "--weight", weight) + _flag(rng, "--p", str(rng.choice(_PRIMES))),
             ["basis"] + _flag(rng, "--phi", _rationals(rng, n)),
             ["critical"] + _flag(rng, "--phi", _rationals(rng, n)),
             ["reduce", f"--point={_rationals(rng, n)}"]]
    if n <= 3:
        calls.append(["basis", "--oracle"] + _flag(rng, "--phi", _rationals(rng, n)))
    return [[call[0]] + system + call[1:] for call in calls]


def _matrix(rng, n, diagonal):
    """``diagonal`` . 1 plus a drawn strictly upper matrix, conjugated by a drawn permutation."""
    rows = [[rng.randint(-3, 20) if c > r else diagonal * (r == c) for c in range(n)] for r in range(n)]
    order = rng.sample(range(n), n)
    return json.dumps([[rows[order[r]][order[c]] for c in range(n)] for r in range(n)])


def _field_calls(rng, p):
    """One call of exp, log, tpower, cycle, pgl-lift and glheight at ``p``."""
    n = rng.randint(1, min(p, 4))
    dims = [rng.randint(1, 8) for _ in range(rng.randint(1, 3))]
    weights = [rng.choice([w for w in range(-p, 3 * p) if w % p]) for _ in range(p)]
    return [["exp", "--p", str(p)] + _flag(rng, "--matrix", _matrix(rng, n, 0)),
            ["log", "--p", str(p)] + _flag(rng, "--matrix", _matrix(rng, n, 1)),
            ["tpower", "--p", str(p), "--matrix", _matrix(rng, n, 1)] + _flag(rng, "--t", str(rng.randint(-20, 40))),
            ["cycle", "--p", str(p)] + _flag(rng, "--t", _ints(weights)),
            ["pgl-lift", "--p", str(p), "--matrix", _matrix(rng, p, rng.randrange(p))],
            ["glheight", "--dims", _ints(dims), "--ms", _ints(rng.randint(0, d) for d in dims)]
            + (["--p", str(p)] if rng.random() < 0.5 else [])]


def _value_corpus():
    """The seeded corpus of calls whose values ``check_cli`` confirms: every subcommand but
    ``selftest`` and ``bch``, on every system of ``test_cli_properties`` and at p <= 13."""
    rng = random.Random(30)
    calls = [call for t, n in _SYSTEMS for call in _system_calls(rng, t, n)]
    for p in _PRIMES:
        for _ in range(3):
            calls += _field_calls(rng, p)
        calls += [["heisenberg", "--p", str(p)]] + ([["weightdemo", "--p", str(p)]] if p > 2 else [])
    return calls


def test_a_seeded_corpus_passes_the_independent_value_check(capsys):
    check = _bench_check()
    corpus = _value_corpus()
    assert {argv[0] for argv in corpus} == set(cli._COMMANDS) - {"selftest", "bch"}
    for argv in corpus:
        code = cli.main(argv)
        check.check_cli(_checker_argv(argv), code, capsys.readouterr().out)


def test_bch_requires_both_operands(capsys):
    code, out, _ = run_cli(capsys, ["bch", "--p", "5", "--degree", "2", "--x", "[[0]]"])
    assert code == 1
    assert out["error"]["kind"] == "usage"


def test_cycle(capsys):
    code, out, _ = run_cli(capsys, ["cycle", "--p", "3", "--t", "1,2,1"])
    assert code == 0
    r = out["result"]
    assert r["matrix"]["matrix"] == [[0, 1, 0], [0, 0, 2], [1, 0, 0]]
    assert r["power_scalar"] == 2
    assert r["is_nilpotent"] is False


def test_pgl_lift(capsys):
    code, out, _ = run_cli(
        capsys, ["pgl-lift", "--p", "3", "--matrix", "[[0,1,0],[0,0,1],[1,0,0]]"]
    )
    assert code == 0
    assert out["result"]["det"] == 1
    assert out["result"]["lift"]["matrix"] == [[2, 1, 0], [0, 2, 1], [1, 0, 2]]


def test_heisenberg(capsys):
    code, out, _ = run_cli(capsys, ["heisenberg", "--p", "5"])
    assert code == 0
    assert out["result"]["span_dimension"] == 25


def test_weightdemo(capsys):
    code, out, _ = run_cli(capsys, ["weightdemo", "--p", "3"])
    assert code == 0
    r = out["result"]
    assert r["component_dims"] == [[0, 2], [3, 3], [6, 3]]
    assert r["alpha_carries_cycle"] is True
    assert r["witness_is_nilpotent"] is False


def test_enc_rejects_a_dataclass_that_holds_a_float():
    result = acceptance.CriterionResult(1, "name", True, "details", 0.5, None)
    with pytest.raises(TypeError, match="floats"):
        cli._layout(result)


def _dumps(x):
    return json.dumps(x, indent=2, sort_keys=True)


# any code point, lone surrogates and control characters included
_TEXT = st.text(st.characters(exclude_categories=()))
_INTS = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
_TREES = st.recursive(
    st.none() | st.booleans() | _INTS | _TEXT | st.lists(_INTS),
    lambda inner: st.lists(inner) | st.dictionaries(_TEXT, inner),
    max_leaves=30)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(tree=_TREES)
def test_the_report_writer_gives_the_bytes_of_json_dumps(tree):
    assert cli._layout(tree) == _dumps(tree)


class _Mark(enum.IntEnum):
    ONE = 1


class _Name(str):
    pass


@pytest.mark.parametrize("tree", [[True, 1], [1, False], [[], {}], {"": []},
                                  {"b": 1, "a": [2]}, [_Mark.ONE, 2], [_Name("\u00e9\n")],
                                  {"k": [[-3, 10**30], [], [None, "x"]]}, (1, 2)])
def test_the_report_writer_lays_out_bools_empties_keys_and_subclasses_as_json_dumps(tree):
    assert cli._layout(tree) == _dumps(tree)


@pytest.mark.parametrize("value", [0.5, [1, 0.5], {"x": object()}])
def test_the_report_writer_refuses_what_enc_never_makes(value):
    with pytest.raises(TypeError):
        cli._layout(value)


def _enc_twin(x):
    """The JSON-safe tree that ``_layout`` writes a library value as, built by a separate
    walk: ``json.dumps(_enc_twin(x), indent=2, sort_keys=True)`` is ``_layout(x)``."""
    if isinstance(x, (int, str)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [_enc_twin(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _enc_twin(v) for k, v in x.items()}
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, FpMatrix):
        return {"p": x.p, "matrix": [list(r) for r in x.rows]}
    if isinstance(x, (rootsys.RootVec, rootsys.WeightVec)):
        return list(x.coords)
    if dataclasses.is_dataclass(x):
        return {f.name: _enc_twin(getattr(x, f.name)) for f in dataclasses.fields(x)}
    raise TypeError(f"cannot encode {type(x).__name__}")


_COORDS = st.lists(_INTS, max_size=4).map(tuple)
_MATRICES = st.tuples(st.sampled_from((2, 3, 13)), st.integers(1, 3)).flatmap(
    lambda pn: st.lists(st.lists(st.integers(0, pn[0] - 1), min_size=pn[1], max_size=pn[1]),
                        min_size=pn[1], max_size=pn[1]).map(partial(FpMatrix.from_rows, pn[0])))
_LIBRARY_LEAVES = st.one_of(
    st.none(), st.booleans(), _INTS, _TEXT, st.sampled_from([_Mark.ONE, _Name("a\u00e9")]),
    st.fractions(), st.integers().map(Fraction), _MATRICES,
    _COORDS.map(rootsys.RootVec), _COORDS.map(rootsys.WeightVec),
    st.builds(heights.HeightReport, _INTS, _INTS, _INTS, _COORDS.map(rootsys.WeightVec)),
    st.builds(charp.HeisenbergReport, _INTS, st.booleans(), st.booleans(), _INTS, st.booleans()))
_LIBRARY_VALUES = st.recursive(
    _LIBRARY_LEAVES,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(_TEXT, inner)),
    max_leaves=30)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(value=_LIBRARY_VALUES)
def test_the_report_writer_lays_out_library_values_as_json_dumps_of_their_tree(value):
    assert cli._layout(value) == _dumps(_enc_twin(value))


# --- error paths -------------------------------------------------------------

def test_contract_violation_exits_2(capsys):
    code, out, _ = run_cli(capsys, ["exp", "--p", "3", "--matrix", "[[1,0],[0,1]]"])
    assert code == 2
    assert out["error"]["kind"] == "contract"
    assert out["subcommand"] == "exp"


def test_nonnilpotent_lift_exits_2(capsys):
    code, out, _ = run_cli(capsys, ["pgl-lift", "--p", "3", "--matrix", "[[1,0,0],[0,2,0],[0,0,0]]"])
    assert code == 2
    assert out["error"]["kind"] == "contract"


def test_malformed_matrix_exits_1(capsys):
    code, out, _ = run_cli(capsys, ["exp", "--p", "5", "--matrix", "not json"])
    assert code == 1
    assert out["error"]["kind"] == "usage"


def test_nonprime_p_exits_1(capsys):
    code, out, _ = run_cli(capsys, ["exp", "--p", "4", "--matrix", "[[0]]"])
    assert code == 1
    assert out["error"]["kind"] == "usage"


def test_malformed_rational_exits_1(capsys):
    code, out, _ = run_cli(capsys, ["basis", "--type", "A", "--rank", "2", "--phi", "x,y"])
    assert code == 1
    assert out["error"]["kind"] == "usage"


def test_rational_past_the_size_limit_exits_1(capsys):
    # the translation by -10^5000 would not survive the int-to-text step of the JSON report
    code, out, err = run_cli(capsys, ["reduce", "--type", "A", "--rank", "1", "--point", "1e5000"])
    assert code == 1 and out["error"]["kind"] == "usage" and "4096 bits" in out["error"]["message"]
    assert err == ""
    # 10^1233 has 4096 bits, 10^1234 has 4100
    assert run_cli(capsys, ["reduce", "--type", "A", "--rank", "1", "--point=-1e1233"])[0] == 0
    assert run_cli(capsys, ["critical", "--type", "A", "--rank", "2", "--phi", "1,1e-1234"])[0] == 1


_NINES = "9" * 4300  # 14284 bits: int() reads it, a report could not print 2 rho^vee times it


@pytest.mark.parametrize("argv,text", [
    (["glheight", "--dims", "1" + "0" * 4000, "--ms", "5" + "0" * 3999], "1" + "0" * 4000),
    (["height", "--type", "A", "--rank", "3", "--weight", f"{_NINES},0,0"], _NINES),
    (["lowheight", "--type", "A", "--rank", "3", "--weight", f"0, {_NINES},0", "--p", "5"], _NINES),
])
def test_integer_flag_past_the_size_limit_exits_1(capsys, argv, text):
    # m (d - m) and the height would pass the interpreter's 4300-digit int-to-text limit
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and err == ""
    assert out == {"subcommand": argv[0],
                   "error": {"kind": "usage", "message": f"integer {text!r} is above 4096 bits"}}


def test_integer_flag_at_the_size_limit_is_reported(capsys):
    # 2^4096 - 1 has 4096 bits, 2^4096 has 4097
    argv = ["height", "--type", "A", "--rank", "1", "--weight"]
    code, out, _ = run_cli(capsys, argv + [str(2**4096 - 1)])
    assert code == 0 and out["result"]["height"] == 2**4096 - 1
    assert run_cli(capsys, argv + [str(-2**4096)])[1]["error"]["kind"] == "usage"


def test_exponent_past_the_size_limit_is_rejected_before_it_is_expanded(capsys):
    # Fraction("1e10000000") would spend seconds building 10^10000000 first
    started = time.perf_counter()
    code, out, err = run_cli(capsys, ["reduce", "--type", "A", "--rank", "1", "--point", "1e10000000"])
    assert time.perf_counter() - started < 1
    assert code == 1 and out["error"]["kind"] == "usage" and err == ""
    assert out["error"]["message"] == (
        "rational '1e10000000' has a numerator or denominator above 4096 bits")


def test_zero_mantissa_is_zero_at_any_exponent(capsys):
    # Fraction("0e10000000") builds 10^10000000 before it multiplies by 0
    for point in ("0e10000000", "-0.000e-10000000"):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, ["reduce", "--type", "A", "--rank", "1", f"--point={point}"])
        assert time.perf_counter() - started < 1
        assert code == 0 and err == "" and out["result"]["reduced_point"] == [0]


@pytest.mark.parametrize("point,zero", [
    ("1_0e10000000", False), ("1e10_000_000", False), ("\u0661e10000000", False),
    ("\u0661.\u0665e-1_0000000", False), ("\u0660e10000000", True), ("0_0.0e1_0000000", True),
])
def test_exponent_forms_in_fraction_grammar_get_their_verdict_early(capsys, point, zero):
    # Fraction reads Unicode digits, and digits joined by single underscores from 3.11 on
    started = time.perf_counter()
    code, out, err = run_cli(capsys, ["reduce", "--type", "A", "--rank", "1", f"--point={point}"])
    assert time.perf_counter() - started < 1
    assert err == ""
    if "_" in point and sys.version_info < (3, 11):
        assert code == 1 and out["error"]["message"].startswith(f"malformed rational {point!r}")
    elif zero:
        assert code == 0 and out["result"]["reduced_point"] == [0]
    else:
        assert code == 1 and out["error"]["message"] == (
            f"rational {point!r} has a numerator or denominator above 4096 bits")


def test_wrong_arity_exits_1(capsys):
    code, out, _ = run_cli(capsys, ["critical", "--type", "A", "--rank", "2", "--phi", "1/3"])
    assert code == 1
    assert out["error"]["kind"] == "usage"


def test_unknown_subcommand_exits_1(capsys):
    code, out, _ = run_cli(capsys, ["frobnicate"])
    assert code == 1
    assert out["error"]["kind"] == "usage"


def test_missing_required_flag_exits_1(capsys):
    code, out, _ = run_cli(capsys, ["coxeter", "--type", "A"])
    assert code == 1
    assert out["error"]["kind"] == "usage"


def test_bad_rank_exits_1(capsys):
    code, out, _ = run_cli(capsys, ["roots", "--type", "D", "--rank", "3"])
    assert code == 1
    assert out["error"]["kind"] == "usage"


# --- each listed invariant is checked where it is computed --------------------

@pytest.mark.parametrize("argv", [
    ["height", "--type", "A", "--rank", "4", "--weight", "1,0,0,1"],
    ["lowheight", "--type", "A", "--rank", "4", "--weight", "1,0,0,1", "--p", "11"],
    ["minheight", "--type", "A", "--rank", "4"],
])
def test_height_reports_exit_2_when_the_routes_disagree(capsys, monkeypatch, argv):
    descend = heights._descend
    alpha_1 = (2, -1, 0, 0)  # alpha_1 of A4 over the fundamental weights

    def one_root_low(rs, weight):  # the steps still give the difference, one height off
        low, steps = descend(rs, weight)
        steps[0] += 1
        return [l - a for l, a in zip(low, alpha_1)], steps

    monkeypatch.setattr(heights, "_descend", one_root_low)
    code, out, _ = run_cli(capsys, argv)
    assert code == 2
    assert out["error"] == {"kind": "contract", "message": "height routes disagree"}


def test_weightdemo_exits_2_when_the_shift_leaves_the_weight_p_component(capsys, monkeypatch):
    shift = charp.cyclic_shift_matrix

    def transposed(p, weights):  # support on weight -p instead of p
        x = shift(p, weights)
        return FpMatrix(p, x.n, tuple(zip(*x.rows)))

    monkeypatch.setattr(charp, "cyclic_shift_matrix", transposed)
    code, out, _ = run_cli(capsys, ["weightdemo", "--p", "5"])
    assert code == 2
    assert out["error"]["message"] == "the cyclic shift leaves the weight-p component"


def test_glheight_exits_2_when_a_factor_height_is_off(capsys, monkeypatch):
    composite = heights.composite_gl_height

    def off_per_factor(dims, ms):
        return composite(dims, ms) + (len(dims) == 1)

    monkeypatch.setattr(heights, "composite_gl_height", off_per_factor)
    code, out, _ = run_cli(capsys, ["glheight", "--dims", "4,3", "--ms", "2,1"])
    assert code == 2
    assert out["error"]["message"] == "per-factor heights do not sum to the total"


# Each post-check of a handler fires when the library function it checks has a wrong twin.
_HEISENBERG_3 = charp.HeisenbergReport(3, True, True, 9, False)
_POST_CHECKS = [
    (rootsys, "coxeter_via_element", lambda f: lambda rs: f(rs) + 1,
     ["coxeter", "--type", "A", "--rank", "2"], "Coxeter routes disagree: 3, 3, 4"),
    (rootsys, "parabolic_degrees", lambda f: lambda rs, s: (f(rs, s)[0], f(rs, s)[1] + 1),
     ["parabolic", "--type", "A", "--rank", "3", "--subset", "1,3"],
     "maximal-parabolic degree does not match the mark"),
    (heights, "dynkin_height",
     lambda f: lambda rs, w: dataclasses.replace(f(rs, w), height=f(rs, w).height - 1),
     ["minheight", "--type", "A", "--rank", "3"], "minimal height fell below h - 1"),
    (alcove, "oracle_valid_bases", lambda f: lambda rs, phi: (),
     ["basis", "--type", "A", "--rank", "2", "--phi", "1/9,1/9", "--oracle"],
     "constructive basis is not among the oracle's valid bases"),
    (charp, "trunc_log", lambda f: lambda u: u,
     ["exp", "--p", "5", "--matrix", "[[0,1],[0,0]]"], "log(exp(x)) != x"),
    (charp, "trunc_exp", lambda f: lambda x: x,
     ["log", "--p", "5", "--matrix", "[[1,1],[0,1]]"], "exp(log(u)) != u"),
    (charp, "t_power", lambda f: lambda u, t: u,
     ["tpower", "--p", "5", "--matrix", "[[1,1],[0,1]]", "--t", "2"],
     "binomial power disagrees with repeated multiplication"),
    (charp, "bch_apply", lambda f: lambda table, x, y: x + y,  # the brackets dropped
     ["bch", "--p", "5", "--degree", "2", "--x", "[[0,1,0],[0,0,0],[0,0,0]]",
      "--y", "[[0,0,0],[0,0,1],[0,0,0]]"], "exp(bch(x, y)) != exp(x) exp(y)"),
    (charp, "heisenberg_module_check",
     lambda f: lambda p: dataclasses.replace(f(p), spans_full_algebra=False),
     ["heisenberg", "--p", "3"], f"relations or spanning failed: {_HEISENBERG_3}"),
]


@pytest.mark.parametrize("module,name,twin,argv,message", _POST_CHECKS,
                         ids=[case[3][0] for case in _POST_CHECKS])
def test_each_post_check_exits_2_on_a_wrong_library_twin(capsys, monkeypatch,
                                                         module, name, twin, argv, message):
    monkeypatch.setattr(module, name, twin(getattr(module, name)))
    code = cli.main(argv)
    printed = capsys.readouterr().out
    report = {"subcommand": argv[0], "error": {"kind": "contract", "message": message}}
    assert code == 2 and printed == _dumps(report) + "\n"


def test_basis_oracle_finds_the_window_roots_twice_not_three_times(capsys, monkeypatch):
    calls = []
    critical = alcove.critical_roots

    def counted(rs, phi):
        calls.append(phi)
        return critical(rs, phi)

    monkeypatch.setattr(alcove, "critical_roots", counted)
    code, out, _ = run_cli(capsys, ["basis", "--type", "A", "--rank", "2", "--phi", "1/9,1/9",
                                    "--oracle"])
    assert code == 0 and sorted(out["result"]["critical_roots"]) == [[0, 1], [1, 0], [1, 1]]
    assert len(calls) == 2  # the window check and the oracle


def test_basis_roots_name_the_printed_weyl_word(capsys):
    # basis_roots is read off the transcript's reduced word, so check it against the printed word
    rng = random.Random("cli-basis-roots")
    for t, n in [("B", 4), ("E", 6), ("A", 12)]:
        rs = rootsys.build(t, n)
        den = 7 * rs.coxeter_number
        phi = ",".join(f"{rng.randrange(den)}/{den}" for _ in range(n))
        code, out, _ = run_cli(capsys, ["basis", "--type", t, "--rank", str(n), "--phi", phi])
        r = out["result"]
        full = alcove.BasisChoice(tuple(r["weyl_word"])).basis_roots(rs)
        assert code == 0 and r["basis_roots"] == [list(a.coords) for a in full]


# --- determinism and the self-test -------------------------------------------

def test_reports_are_deterministic(capsys):
    argv = ["basis", "--type", "B", "--rank", "3", "--phi", "1/7,2/7,3/7", "--oracle"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert _drop_elapsed(first) == _drop_elapsed(second)


def test_selftest_small_is_deterministic(capsys):
    argv = ["selftest", "--seed", "123", "--trials", "3"]
    code1, first, _ = run_cli(capsys, argv)
    code2, second, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert _drop_elapsed(first) == _drop_elapsed(second)


def test_selftest_reports_each_criterion(capsys):
    code, out, err = run_cli(capsys, ["selftest", "--trials", "3"])
    assert code == 0
    assert out["result"]["all_passed"] is True
    assert len(out["result"]["criteria"]) == 11
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 11
    for k, line in enumerate(lines, start=1):
        assert line.startswith(f"PASS criterion {k}: ")
    assert _no_floats(out)


def test_failing_selftest_exits_2_with_the_first_failing_label(capsys, monkeypatch):
    via_rho = rootsys.coxeter_via_rho
    monkeypatch.setattr(rootsys, "coxeter_via_rho", lambda rs: via_rho(rs) + 1)
    code, out, err = run_cli(capsys, ["selftest", "--trials", "1"])
    assert code == 2
    assert out["result"]["all_passed"] is False
    criteria = out["result"]["criteria"]
    assert [c["passed"] for c in criteria] == [False] + [True] * 10
    assert criteria[0]["details"] == "A1: routes disagree (2, 3, 2)"
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 11
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL criterion 1: coxeter-three-routes (A1: routes disagree (2, 3, 2))"]


@pytest.mark.parametrize("argv,sub", [(["--help"], None), (["-h"], None),
                                      (["coxeter", "--help"], "coxeter"),
                                      (["basis", "--type", "A", "-h"], "basis")])
def test_help_is_one_json_report(capsys, argv, sub):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert set(out) == {"subcommand", "result", "invariants", "elapsed_us"}
    assert out["subcommand"] == sub
    assert out["result"]["usage"].startswith("usage: liep" + (f" {sub}" if sub else ""))


def test_main_builds_the_parser_once(capsys, monkeypatch):
    seen = []
    parse_args = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        seen.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    run_cli(capsys, ["coxeter", "--type", "A", "--rank", "2"])
    run_cli(capsys, ["glheight", "--dims", "4,3", "--ms", "2,1"])
    assert len(seen) == 2 and seen[0] is seen[1]


def test_unexpected_exception_is_one_internal_error_report(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("handler bug")

    flags = cli._COMMANDS["coxeter"][1]
    monkeypatch.setitem(cli._COMMANDS, "coxeter", (broken, flags))
    code = cli.main(["coxeter", "--type", "A", "--rank", "2"])
    captured = capsys.readouterr()
    assert code == 2
    out, end = json.JSONDecoder().raw_decode(captured.out)
    assert captured.out[end:].strip() == ""
    assert out == {"subcommand": "coxeter",
                   "error": {"kind": "internal", "message": "RuntimeError: handler bug"}}
    assert "Traceback" in captured.err


@pytest.mark.parametrize("value,message", [({"x": 0.5}, "TypeError: floats are banned from reports"),
                                           (object(), "TypeError: cannot encode object")])
def test_an_unencodable_result_is_one_internal_error_report(capsys, monkeypatch, value, message):
    flags = cli._COMMANDS["coxeter"][1]
    monkeypatch.setitem(cli._COMMANDS, "coxeter", (lambda args: (value, []), flags))
    code, out, err = run_cli(capsys, ["coxeter", "--type", "A", "--rank", "2"])
    assert code == 2
    assert out == {"subcommand": "coxeter", "error": {"kind": "internal", "message": message}}
    assert "Traceback" in err


def test_a_closed_stdout_drops_the_report_without_raising(monkeypatch):
    class Closed:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", Closed())
    assert cli.main(["coxeter", "--type", "A", "--rank", "2"]) == 0


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
def test_digits_past_the_interpreter_limit_are_malformed_not_too_large(capsys):
    # _exponent_form_value leaves a 5000-digit mantissa to Fraction, which int() refuses
    point = "1" * 5000 + "e2000"
    code, out, _ = run_cli(capsys, ["reduce", "--type", "A", "--rank", "1", "--point", point])
    assert code == 1 and out["error"]["kind"] == "usage"
    assert out["error"]["message"].startswith(f"malformed rational {point!r}")


def test_every_prime_gate_gives_one_message(capsys):
    rs = rootsys.build("A", 2)
    gates = [
        lambda p: FpMatrix.from_rows(p, [[1]]),
        lambda p: FpMatrix.identity(p, 2),
        lambda p: charp.bch_table(p, 2),
        lambda p: charp.cyclic_shift_matrix(p, (1,) * 8),
        lambda p: charp.heisenberg_module_check(p),
        lambda p: rootsys.is_good_prime(rs, p),
        lambda p: alcove.mu_pj_restriction(rs, (1, 0), p, 1),
        lambda p: heights.semisimplicity_bound_ok((4,), (2,), p),
    ]
    for p in (8, 7.0):  # a float equal to a prime is no prime
        for gate in gates:
            with pytest.raises(ValueError) as err:
                gate(p)
            assert str(err.value) == f"{p} is not prime"
    with pytest.raises(ValueError, match="p must be an odd prime"):
        charp.weight_space_demo(7.0)
    code, out, _ = run_cli(capsys, ["lowheight", "--type", "A", "--rank", "2",
                                    "--weight", "1,0", "--p", "8"])
    assert code == 1 and out["error"]["message"] == "8 is not prime"


def test_closed_stdout_exits_with_the_report_code_and_no_traceback():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the roots report of A20 (156 KB) overfills a 64 KiB pipe buffer
    for argv, want in ((["heisenberg", "--p", "3"], 0), (["heisenberg", "--p", "4"], 1),
                       (["roots", "--type", "A", "--rank", "20"], 0)):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the report is written
        try:
            done = subprocess.run([sys.executable, "-m", "liep", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert done.returncode == want and done.stderr == b"", done.stderr.decode()
