"""The CLI contract over generated argv: one JSON object on stdout, exit code 0, 1 or 2.

Each subcommand but ``selftest`` gets an argv strategy that mixes well-formed
values with malformed ones (unknown types, bad ranks, non-primes, empty
strings, ``1/0``, stray commas, leading minus signs with and without ``=``,
ragged or non-integer JSON matrices, rationals in exponent form or too large
to report, integers past 4096 bits), run in-process through ``cli.main``.
Every report must be laid out as ``json.dumps(indent=2, sort_keys=True)`` lays
it out; ``bench/check.py`` checks the values of each exit-0 report, and
confirms each series report of exit 2 whose matrix power does not vanish.
Sizes stay small (rank <= 9, p <= 13) so every case is cheap; the cases are
derandomized, so every run draws the same ones.  A second property parses
exponent forms with |e| <= 3000, many of them at the edges of the early
exponent check or with a zero mantissa, some in other digit scripts or with
underscores, and requires the same value or message as ``Fraction`` alone.
"""

import contextlib
import importlib.util
import io
import json
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liep import cli

CASE_SECONDS = 5  # wall-time cap per case

_SYSTEMS = ([("A", n) for n in range(1, 10)] + [(t, n) for t in "BC" for n in range(2, 10)]
            + [("D", n) for n in range(4, 10)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
_PRIMES = (2, 3, 5, 7, 11, 13)
_JUNK = ("", "x", "1/0", " ", "3.0")


def _mostly(good, bad):
    """``good`` in about five cases of six, ``bad`` in the rest.

    Hypothesis favours the ends of a range, so ``bad`` takes a value inside it.
    """
    return st.integers(0, 5).flatmap(lambda k: bad if k == 2 else good)


def _text(ints):
    return ints.map(str)


def _flag(name, values, required=True):
    """``[name, v]`` or ``[name=v]``; a value that starts with "-" parses only in the second form.

    A required flag is left out in about one case in six, an optional one in half.
    """
    spelled = st.tuples(values, st.booleans()).map(
        lambda vb: [f"{name}={vb[0]}"] if vb[1] else [name, vb[0]])
    keep = _mostly(st.just(True), st.just(False)) if required else st.booleans()
    return st.tuples(keep, spelled).map(lambda ks: ks[1] if ks[0] else [])


def _listed(good, bad, size):
    """``size`` comma-joined values; about one case in six mixes in malformed values,
    misses the length by one or ends in a stray comma."""
    ill = st.tuples(st.lists(st.one_of(good, bad), min_size=max(size - 1, 0), max_size=size + 1),
                    st.sampled_from(("", ","))).map(lambda parts: ",".join(parts[0]) + parts[1])
    return _mostly(st.lists(good, min_size=size, max_size=size).map(",".join), ill)


_P = _mostly(_text(st.sampled_from(_PRIMES)),
             st.sampled_from(("-3", "0", "1", "4", "9", "15", str(10**25)) + _JUNK))
_RATIONAL = _mostly(
    st.sampled_from(("0", "1/3", "-1/4", "2/9", "1/9", "7/5", "-3", " 1/2", "5/12")),
    # exponent forms, and numerators or denominators on both sides of the 4096-bit limit
    st.sampled_from(("1e3", "-2.5e-1", "1E-2", "1e1233", "-1e1233", "1e5000", "-1e-5000",
                     "-" + "7" * 1200 + "/9", "1" + "0" * 1300, "3/" + "1" * 1300,
                     "1" + "0" * 5000)))
_BAD = st.sampled_from(_JUNK)
# the integer lists' junk, with values of 4097 bits: past the limit of an integer flag
_BAD_INT = st.sampled_from(_JUNK + (str(2**4096), str(-2**4096)))


@st.composite
def _system(draw, name, *extras):
    """``name --type T --rank n``, usually a valid pair, plus flags that depend on the rank."""
    junk = st.tuples(st.sampled_from(tuple("ABCDEFGH") + ("a", "", "AB")),
                     st.one_of(_text(st.integers(-1, 9)), _BAD))
    kind, rank = draw(_mostly(st.sampled_from(_SYSTEMS).map(lambda s: (s[0], str(s[1]))), junk))
    argv = [name] + draw(_flag("--type", st.just(kind))) + draw(_flag("--rank", st.just(rank)))
    for extra in extras:
        argv += draw(extra(max(_int(rank, 2), 0)))
    return argv


def _phi(n):
    return _flag("--phi", _listed(_RATIONAL, _BAD, n))


def _weight(n):
    return _flag("--weight", _listed(_text(st.integers(-1, 3)), _BAD_INT, n))


def _prime(n=None):
    return _flag("--p", _P)


_BAD_MATRICES = st.sampled_from(("[]", "[[]]", "[[1,2],[3]]", "[[true]]", "[[1.5]]", "null",
                                 "[[null]]", "[[[1]]]", '[["1"]]', "[1,2]", "x", ""))


@st.composite
def _square(draw, size=None):
    """A JSON n x n integer matrix, n <= 7: strictly upper triangular (nilpotent),
    unipotent, c . 1 plus strictly upper, or arbitrary."""
    n = min(max(size or draw(st.integers(1, 3)), 1), 7)
    kind = draw(st.sampled_from(("strict", "unipotent", "shifted", "any")))
    diagonal = {"strict": 0, "unipotent": 1, "shifted": draw(st.integers(0, 4))}
    entries = draw(st.lists(st.integers(-2, 9), min_size=n * n, max_size=n * n))
    return json.dumps([[entries[i * n + j] if kind == "any" or j > i else diagonal[kind] * (i == j)
                        for j in range(n)] for i in range(n)])


def _matrix(size=None):
    return _mostly(_square(size), _BAD_MATRICES)


def _int(text, default):
    """The integer a flag value spells, or ``default`` for a malformed one."""
    return int(text) if text.lstrip("-").isdigit() else default


@st.composite
def _series(draw, name):
    argv = [name] + draw(_flag("--p", _P)) + draw(_flag("--matrix", _matrix()))
    if name == "tpower":
        argv += draw(_flag("--t", _text(st.integers(-20, 40))))
    return argv


@st.composite
def _bch(draw):
    p_text = draw(_P)
    top = min(max(_int(p_text, 3) - 1, 1), 6)  # degrees 1..p-1 tabulate; 6 keeps a case cheap
    degree = _mostly(_text(st.integers(1, top)), _text(st.integers(-1, 7)))
    argv = ["bch"] + draw(_flag("--p", st.just(p_text))) + draw(_flag("--degree", degree))
    n = draw(st.integers(1, 4))
    operands = ["--x", draw(_matrix(n)), "--y", draw(_matrix(n))]
    one = st.sampled_from((operands[:2], operands[2:]))
    return argv + draw(_mostly(st.sampled_from(([], operands)), one))


@st.composite
def _cycle(draw):
    p_text = draw(_P)
    t = _listed(_text(st.integers(-3, 20)), _BAD_INT, min(max(_int(p_text, 3), 1), 13))
    return ["cycle"] + draw(_flag("--p", st.just(p_text))) + draw(_flag("--t", t))


@st.composite
def _pgl_lift(draw):
    p_text = draw(_P)
    p = _int(p_text, 3)
    size = draw(st.sampled_from((p, p, p, p + 1)))
    matrix = _flag("--matrix", _matrix(size))
    return ["pgl-lift"] + draw(_flag("--p", st.just(p_text))) + draw(matrix)


def _glheight():
    dims = _listed(_text(st.integers(0, 8)), _BAD_INT, 2)
    ms = _listed(_text(st.integers(-1, 9)), _BAD_INT, 2)
    flags = st.tuples(_flag("--dims", dims), _flag("--ms", ms), _flag("--p", _P, required=False))
    return flags.map(lambda fs: ["glheight"] + fs[0] + fs[1] + fs[2])


ARGV = {
    "basis": _system("basis", _phi, lambda n: st.sampled_from(([], ["--oracle"]))),
    "critical": _system("critical", _phi),
    "coxeter": _system("coxeter"),
    "roots": _system("roots"),
    "minheight": _system("minheight"),
    "goodprime": _system("goodprime", _prime),
    "parabolic": _system("parabolic", lambda n: _flag("--subset", _listed(
        _text(st.integers(1, max(n, 1))), _text(st.integers(-1, 10)) | _BAD_INT, max(n - 1, 0)),
        required=False)),
    "height": _system("height", _weight),
    "lowheight": _system("lowheight", _weight, _prime),
    "glheight": _glheight(),
    "reduce": _system("reduce", lambda n: _flag("--point", _listed(_RATIONAL, _BAD, n))),
    "exp": _series("exp"),
    "log": _series("log"),
    "tpower": _series("tpower"),
    "bch": _bch(),
    "cycle": _cycle(),
    "pgl-lift": _pgl_lift(),
    "heisenberg": _flag("--p", _P).map(lambda f: ["heisenberg"] + f),
    "weightdemo": _flag("--p", _P).map(lambda f: ["weightdemo"] + f),
}


@lru_cache(maxsize=None)
def _bench_check():
    """bench/check.py, loaded by path: it imports nothing from liep."""
    path = Path(__file__).resolve().parent.parent / "bench" / "check.py"
    spec = importlib.util.spec_from_file_location("liep_bench_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checker_argv(argv):
    """``argv`` with its ``--type`` upper-cased, in either spelling, since ``check_cli`` keys
    its closed forms by it."""
    out = list(argv)
    for i, arg in enumerate(out):
        if arg == "--type":
            out[i + 1] = out[i + 1].upper()
        elif arg.startswith("--type="):
            out[i] = "--type=" + arg[len("--type="):].upper()
    return out


def test_every_subcommand_but_selftest_has_a_strategy():
    assert set(ARGV) == set(cli._COMMANDS) - {"selftest"}


@pytest.mark.parametrize("command", sorted(ARGV))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_argv_gets_one_json_report_and_a_contract_exit_code(command, data):
    argv = data.draw(ARGV[command], label="argv")
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - started

    report = json.loads(out.getvalue())  # exactly one JSON value, nothing after it
    assert isinstance(report, dict)
    assert out.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert code in (0, 1, 2)
    assert ("result" in report) == (code == 0)
    if code:
        assert (report["error"]["kind"], code) in {("usage", 1), ("contract", 2)}, err.getvalue()
    assert elapsed < CASE_SECONDS, f"{argv} took {elapsed:.1f} s"
    if code == 0:  # bench/check.py recomputes the values from closed forms of its own
        _bench_check().check_cli(_checker_argv(argv), code, out.getvalue())
    elif command in ("exp", "log", "tpower") and report["error"]["message"] == _NOT_NILPOTENT:
        _check_power_does_not_vanish(argv)


_NOT_NILPOTENT = "matrix power p does not vanish"


def _check_power_does_not_vanish(argv):
    """bench/check.py confirms a series' exit 2: x^p != 0 for exp, (u - 1)^p != 0 for log
    and tpower, mod p."""
    check = _bench_check()
    flags = check._flags(argv)
    p, m = int(flags["p"]), check._mat(flags, "matrix")
    nil = m if argv[0] == "exp" else check.mat_add(m, check.identity(len(m)), p, -1)
    assert any(map(any, check.mat_pow(nil, p, p))), argv


def _full_parse(text):
    """``cli._parse_fraction`` without its early exponent check: the value, or the error text."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        return f"malformed rational {text!r}: {exc}"
    if max(abs(value.numerator), value.denominator).bit_length() > cli._MAX_BITS:
        return f"rational {text!r} has a numerator or denominator above {cli._MAX_BITS} bits"
    return value


_DIGITS = st.text("0123456789", max_size=6)
# 10^1233, 10^1240 / 5^10 and 10^1261 / 2^93 all have 4096 bits: with these mantissas the
# full parse accepts one step inside each edge of the early check and rejects at the edge
_MANTISSAS = st.one_of(_DIGITS, st.sampled_from(("1", "0001", str(5 ** 10), str(2 ** 93))))
# a zero mantissa is 0 at any exponent, read off its digits before any expansion
_ZEROS = st.sampled_from(("0", "000"))


# zeros of digit scripts that Fraction reads as int() does: ASCII, Arabic-Indic, Devanagari,
# fullwidth and mathematical bold
_SCRIPT_ZEROS = ("0", "\u0660", "\u0966", "\uff10", "\U0001d7ce")


@st.composite
def _styled(draw, group):
    """ASCII ``group`` in a drawn digit script, with an underscore or two drawn into it:
    single ones between digits are Fraction's grammar from 3.11, the rest are malformed."""
    zero = ord(draw(st.sampled_from(_SCRIPT_ZEROS)))
    group = "".join(chr(zero + int(c)) for c in group)
    if group and draw(st.booleans()):
        cut = draw(st.integers(0, len(group)))
        group = group[:cut] + draw(st.sampled_from(("_", "__"))) + group[cut:]
    return group


@st.composite
def _exponent_form(draw):
    whole, decimals = draw(_MANTISSAS | _ZEROS), draw(st.none() | _DIGITS | _ZEROS)
    places = len(decimals or "")
    digits = len((whole + (decimals or "")).lstrip("0"))
    # the edges sit at E = 1234 and -E = digits + 1234, E being the exponent less the places;
    # |e| <= 3000 keeps the full parse cheap
    edge = st.sampled_from((places + 1234, places - digits - 1234))
    exponent = draw(st.one_of(st.integers(-3000, 3000),
                              st.tuples(edge, st.integers(-2, 2)).map(sum)))
    pad = draw(st.sampled_from(("", " ")))
    sign = draw(st.sampled_from(("", "+", "-")))
    e = draw(st.sampled_from("eE"))
    point = "" if decimals is None else "." + draw(_styled(decimals))
    exponent = ("-" if exponent < 0 else "") + draw(_styled(str(abs(exponent))))
    return f"{pad}{sign}{draw(_styled(whole))}{point}{e}{exponent}{pad}"


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(text=_exponent_form())
def test_early_exponent_verdict_matches_the_full_parse(text):
    full = _full_parse(text)
    try:
        verdict = cli._parse_fraction(text)
    except ValueError as exc:
        verdict = str(exc)
    assert verdict == full
    try:
        early = cli._exponent_form_value(text)
    except ValueError as exc:
        early = str(exc)
    assert early is None or early == full
