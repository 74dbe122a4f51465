"""Command-line front end: each call prints one JSON report, laid out in one pass.

A handler returns library values and the invariants it checked; ``main`` lays the report out
with ``_layout``, in the bytes of ``json.dumps(indent=2, sort_keys=True)``, inside its ``try``,
so a failure at any step is one error report, and ``_emit`` prints it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import time
import traceback
from fractions import Fraction
from functools import lru_cache

from . import alcove, charp, heights, rootsys
from .charp import FpMatrix
from .errors import ContractError
from .primes import require_prime

__all__ = ["main"]


class _HelpRequested(Exception):
    """``--help`` was given; carries the subcommand (or None) and the help text."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems and help requests as exceptions, not exits."""

    def error(self, message):
        # argparse quotes the choices it lists after an invalid choice up to 3.13.0 and not
        # in later releases; the only choices are the subcommands, listed here as it did
        head, sep, _ = message.rpartition(" (choose from ")
        if sep:
            message = f"{head} (choose from {', '.join(map(repr, _COMMANDS))})"
        raise ValueError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.prog.partition(" ")[2] or None, self.format_help())


# Reports print exact integers, and CPython refuses to turn one of more than 4300 digits
# (about 14284 bits) into text.  A translation is as large as the point it moves, a product
# m(d - m) of two flag values stays below 2^8192, and a height below 2^4096 |2 rho^vee|.
_MAX_BITS = 4096


# 10^1233 < 2^4096 < 10^1234, so 10^1234 is the least power of ten past the limit
_MAX_DIGITS = len(str(1 << _MAX_BITS))
# Fraction's digit groups: Unicode decimal digits (\d), joined by single underscores from 3.11
_DIGITS = r"\d+(?:_\d+)*" if sys.version_info >= (3, 11) else r"\d+"
_EXPONENT_FORM = re.compile(rf"[+-]?({_DIGITS})?(?:\.({_DIGITS})?)?[eE]([+-]?)({_DIGITS})")


def _exponent_form_value(text: str) -> Fraction | None:
    """The value of an exponent form when its digits alone decide it, else None.

    ``Fraction`` expands 10^|e| before any size check can run, which grows with |e|.  The
    form's value is M 10^E, with E the exponent less the decimal places and M < 10^d the
    mantissa of d significant digits.  M = 0 gives 0 at any exponent.  When M != 0, E >= 1234
    gives a numerator of at least 10^1234, and -E >= d + 1234 a denominator above
    10^(-E - d) >= 10^1234: both past the limit, which raises the size usage error.  Every
    other form is left to ``Fraction``, as are digit groups that ``int`` would refuse under
    the interpreter's digit limit; ``Fraction`` rejects those as malformed before expanding.
    """
    form = _EXPONENT_FORM.fullmatch(text.strip())
    if form is None:
        return None
    whole, decimals, sign, exp = ((g or "").replace("_", "") for g in form.groups())
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and max(len(whole), len(decimals), len(exp)) > limit:
        return None
    mantissa = whole + decimals
    digits = len(mantissa) - next((k for k, c in enumerate(mantissa) if int(c)), len(mantissa))
    if not digits:
        return Fraction(0) if mantissa else None
    shift = int(sign + exp) - len(decimals)
    if shift >= _MAX_DIGITS or -shift >= digits + _MAX_DIGITS:
        raise _too_large(text)
    return None


def _too_large(text: str) -> ValueError:
    return ValueError(f"rational {text!r} has a numerator or denominator above {_MAX_BITS} bits")


def _parse_fraction(text: str) -> Fraction:
    early = _exponent_form_value(text)
    if early is not None:
        return early
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}: {exc}") from None
    if max(abs(value.numerator), value.denominator).bit_length() > _MAX_BITS:
        raise _too_large(text)
    return value


def _parse_fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_fraction(part) for part in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    parts = [part.strip() for part in text.split(",")]
    try:
        values = tuple(map(int, parts))
    except ValueError:
        raise ValueError(f"malformed integer list {text!r}") from None
    for part, value in zip(parts, values):
        if value.bit_length() > _MAX_BITS:
            raise ValueError(f"integer {part!r} is above {_MAX_BITS} bits")
    return values


def _parse_matrix(p: int, text: str) -> FpMatrix:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix payload is not valid JSON: {exc}") from None
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("matrix payload must be a JSON 2-D array")
    return FpMatrix.from_rows(p, data)


def _system(args) -> rootsys.RootSystem:
    return rootsys.build(args.type.upper(), args.rank)


def _cmd_coxeter(args):
    rs = _system(args)
    a = rootsys.coxeter_via_marks(rs)
    b = rootsys.coxeter_via_rho(rs)
    c = rootsys.coxeter_via_element(rs)
    if not a == b == c:
        raise ContractError(f"Coxeter routes disagree: {a}, {b}, {c}")
    result = {"h": a, "agreement": True, "via_marks": a, "via_rho": b, "via_element": c}
    return result, ["marks, dual-pairing, and element-order routes agree"]


def _cmd_roots(args):
    rs = _system(args)
    return rs.to_json_dict(), [
        "roots generated by reflection closure",
        "root count equals rank * h",
        "unique highest root",
    ]


def _cmd_goodprime(args):
    rs = _system(args)
    good = rootsys.is_good_prime(rs, args.p)
    return (
        {"p": args.p, "good": good, "max_mark": max(rs.marks), "marks": rs.marks},
        ["primality validated", "compared against the largest mark"],
    )


def _cmd_parabolic(args):
    rs = _system(args)
    subset = _parse_ints(args.subset) if args.subset else ()
    degrees, max_degree = rootsys.parabolic_degrees(rs, subset)
    entries = [{"root": a, "degree": d} for a, d in degrees.items()]  # in the order of Phi+
    invariants = ["degrees positive outside the parabolic"]
    missing = set(range(1, rs.rank + 1)) - set(subset)
    if len(missing) == 1:
        i = missing.pop()
        if max_degree != rs.marks[i - 1]:
            raise ContractError("maximal-parabolic degree does not match the mark")
        invariants.append("maximal-parabolic top degree equals the corresponding mark")
    return {"subset": sorted(subset), "max_degree": max_degree, "degrees": entries}, invariants


def _of_rank(rs, values: tuple, what: str, unit: str = "coordinates") -> tuple:
    """The one arity check of a per-simple-root argument: ``values`` if there are ``rank``."""
    if len(values) != rs.rank:
        raise ValueError(f"{what} needs {rs.rank} {unit}, got {len(values)}")
    return values


def _weight(args, rs) -> rootsys.WeightVec:
    return rootsys.WeightVec(_of_rank(rs, _parse_ints(args.weight), "weight"))


def _cmd_height(args):
    rs = _system(args)
    return heights.dynkin_height(rs, _weight(args, rs)), ["pairing and difference routes agree"]


def _cmd_lowheight(args):
    rs = _system(args)
    w = _weight(args, rs)
    require_prime(args.p)  # a usage error, so it comes before the height's contract
    report = heights.dynkin_height(rs, w)
    return (
        {"p": args.p, "low_height": args.p > report.height, "report": report},
        ["height computed by two agreeing routes", "compared exactly against p"],
    )


def _cmd_minheight(args):
    rs = _system(args)
    per = [
        {"index": i, "height": heights.dynkin_height(rs, rootsys.fundamental_weight(rs, i)).height}
        for i in range(1, rs.rank + 1)
    ]
    value = min(e["height"] for e in per)
    h = rootsys.coxeter_via_marks(rs)
    if value < h - 1:
        raise ContractError("minimal height fell below h - 1")
    return (
        {"min_height": value, "coxeter_number": h, "per_fundamental": per},
        ["minimum over fundamental weights", "at least h - 1"],
    )


def _cmd_glheight(args):
    dims = _parse_ints(args.dims)
    ms = _parse_ints(args.ms)
    total = heights.composite_gl_height(dims, ms)
    per = [{"dim": d, "m": m, "height": heights.composite_gl_height((d,), (m,))}
           for d, m in zip(dims, ms)]
    if sum(e["height"] for e in per) != total:
        raise ContractError("per-factor heights do not sum to the total")
    result = {"height": total, "per_factor": per}
    invariants = ["per-factor heights m(d - m) sum to the total"]
    if args.p is not None:
        result["p"] = args.p
        result["bound_ok"] = heights.semisimplicity_bound_ok(dims, ms, args.p)
        invariants.append("bound compared exactly against p")
    return result, invariants


def _phi(args, rs) -> alcove.PhiHom:
    return alcove.PhiHom(_of_rank(rs, _parse_fractions(args.phi), "phi", "values"))


def _cmd_basis(args):
    rs = _system(args)
    phi = _phi(args, rs)
    report = alcove.window_basis_report(rs, phi)  # checks every window root is positive
    result = {
        "phi": phi.values,
        "weyl_word": report.basis.weyl_word,
        "basis_roots": report.short_basis.basis_roots(rs),
        "pigeonhole_index": report.pigeonhole_index,
        "reduced_point": report.reduced_point.values,
        "critical_roots": report.critical_roots,
    }
    invariants = ["every window root is positive under the returned basis"]
    if args.oracle:
        valid = alcove.oracle_valid_bases(rs, phi)
        member = any(alcove.same_basis(rs, report.basis, b) for b in valid)
        if not member:
            raise ContractError("constructive basis is not among the oracle's valid bases")
        result["oracle_member"] = True
        result["oracle_count"] = len(valid)
        invariants.append("constructive choice confirmed by chamber enumeration")
    return result, invariants


def _cmd_critical(args):
    rs = _system(args)
    phi = _phi(args, rs)
    return (
        {
            "phi": phi.values,
            "window": Fraction(1, rs.coxeter_number),
            "critical_roots": alcove.critical_roots(rs, phi),
            "boundary_roots": alcove.boundary_roots(rs, phi),
        },
        ["window endpoints tested with exact rationals"],
    )


def _cmd_reduce(args):
    rs = _system(args)
    values = _of_rank(rs, _parse_fractions(args.point), "point")
    reduced, transcript = alcove.reduce_to_alcove(rs, alcove.CoweightPoint(values))
    steps = []
    for step in transcript.steps:
        if step[0] == "translate":
            steps.append({"kind": "translate", "by": step[1]})
        elif step[0] == "reflect":
            steps.append({"kind": "reflect", "index": step[1]})
        else:
            steps.append({"kind": "affine_reflect"})
    return (
        {
            "point": values,
            "reduced_point": reduced.values,
            "steps": steps,
            "weyl_word": transcript.weyl_word,
            "net_translation": transcript.net_translation,
        },
        [
            "reduced point lies in the closed fundamental alcove",
            "some affine coordinate is at least 1/h",
            "transcript recomposes to the reduced point",
        ],
    )


def _cmd_exp(args):
    x = _parse_matrix(args.p, args.matrix)
    u = charp.trunc_exp(x)
    if charp.trunc_log(u) != x:
        raise ContractError("log(exp(x)) != x")
    return (
        {"input": x, "output": u},
        ["input is p-nilpotent", "output is p-unipotent", "log inverts the result"],
    )


def _cmd_log(args):
    u = _parse_matrix(args.p, args.matrix)
    x = charp.trunc_log(u)
    if charp.trunc_exp(x) != u:
        raise ContractError("exp(log(u)) != u")
    return (
        {"input": u, "output": x},
        ["input is p-unipotent", "output is p-nilpotent", "exp inverts the result"],
    )


def _cmd_tpower(args):
    u = _parse_matrix(args.p, args.matrix)
    result = charp.t_power(u, args.t)
    if result != u ** (args.t % u.p):
        raise ContractError("binomial power disagrees with repeated multiplication")
    return (
        {"t": args.t, "input": u, "output": result},
        ["matches repeated multiplication at t mod p"],
    )


def _cmd_bch(args):
    table = charp.bch_table(args.p, args.degree)
    terms = [
        {"degree": len(word), "word": word, "coefficient": coeff}
        for word, coeff in table.terms
    ]
    result = {"p": args.p, "degree": args.degree, "terms": terms}
    invariants = ["denominator primes stay below p"]
    if (args.x is None) != (args.y is None):
        raise ValueError("provide both --x and --y, or neither")
    if args.x is not None:
        x = _parse_matrix(args.p, args.x)
        y = _parse_matrix(args.p, args.y)
        z = charp.bch_apply(table, x, y)
        if charp.trunc_exp(z) != charp.trunc_exp(x) * charp.trunc_exp(y):
            raise ContractError("exp(bch(x, y)) != exp(x) exp(y)")
        result["applied"] = {"x": x, "y": y, "z": z}
        invariants.append("exp of the result equals the product of exponentials")
    return result, invariants


def _cmd_cycle(args):
    weights = _parse_ints(args.t)
    x = charp.cyclic_shift_matrix(args.p, weights)
    scalar = charp.cycle_power_scalar(args.p, weights)
    return (
        {
            "p": args.p,
            "weights": weights,
            "matrix": x,
            "power_scalar": scalar,
            "is_nilpotent": scalar == 0,  # x^p = scalar . 1, checked by cyclic_shift_matrix
        },
        ["p-th power is the scalar product of the weights", "matrix is not nilpotent"],
    )


def _cmd_pgl_lift(args):
    a = _parse_matrix(args.p, args.matrix)
    lifted = charp.pgl_nilpotent_lift(a)
    d = (a - lifted).rows[0][0]  # the lift is a - det(a) . 1
    return (
        {"input": a, "det": d, "lift": lifted},
        ["exterior traces below the determinant vanish", "lift is p-nilpotent"],
    )


def _cmd_heisenberg(args):
    rep = charp.heisenberg_module_check(args.p)
    if not (rep.shift_order_ok and rep.commutator_ok and rep.spans_full_algebra):
        raise ContractError(f"relations or spanning failed: {rep}")
    return (
        rep,
        ["S^p = 1", "[D, S] = S", "products span the full matrix algebra"],
    )


def _cmd_weightdemo(args):
    return (
        charp.weight_space_demo(args.p),
        [
            "component dimensions sum to p^2 - 1",
            "weight-p component carries the cyclic shift",
            "witness is invertible, not nilpotent",
        ],
    )


def _cmd_selftest(args):
    from . import acceptance  # only this subcommand runs the self-test, so no other call loads it

    if args.trials is not None and args.trials < 1:
        raise ValueError("--trials must be positive")
    seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
    results = acceptance.run_all(seed=seed, trials=args.trials)
    payload = []
    for r in results:
        line = f"{'PASS' if r.passed else 'FAIL'} criterion {r.number}: {r.name} ({r.details})"
        print(line, file=sys.stderr)
        payload.append(
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
                "elapsed_us": int(r.elapsed_s * 1_000_000),
            }
        )
    all_passed = all(r.passed for r in results)
    result = {
        "seed": seed,
        "trials": args.trials,
        "criteria": payload,
        "all_passed": all_passed,
    }
    return result, ["each criterion ran to completion"], (0 if all_passed else 2)


_SYSTEM = (
    ("--type", dict(required=True, help="series letter A..G")),
    ("--rank", dict(required=True, type=int)),
)
_P = (("--p", dict(required=True, type=int)),)
_PHI = (("--phi", dict(required=True, help='comma-separated rationals, e.g. "1/9,1/9"')),)
_MATRIX = (("--matrix", dict(required=True)),)
_MATRIX_DOC = (("--matrix", dict(required=True, help="JSON 2-D integer array")),)

# Subcommand -> (handler, flags), in the order `liep --help` lists them.
_COMMANDS = {
    "basis": (_cmd_basis, _SYSTEM + _PHI + (
        ("--oracle", dict(action="store_true",
                          help="confirm against chamber enumeration (rank <= 3)")),)),
    "critical": (_cmd_critical, _SYSTEM + _PHI),
    "coxeter": (_cmd_coxeter, _SYSTEM),
    "roots": (_cmd_roots, _SYSTEM),
    "minheight": (_cmd_minheight, _SYSTEM),
    "goodprime": (_cmd_goodprime, _SYSTEM + _P),
    "parabolic": (_cmd_parabolic, _SYSTEM + (
        ("--subset", dict(default="", help="comma-separated simple indices (1-based)")),)),
    "height": (_cmd_height, _SYSTEM + (
        ("--weight", dict(required=True, help='fundamental coordinates, e.g. "1,0,0,1"')),)),
    "lowheight": (_cmd_lowheight, _SYSTEM + (("--weight", dict(required=True)),) + _P),
    "glheight": (_cmd_glheight, (
        ("--dims", dict(required=True, help='factor dimensions, e.g. "4,3"')),
        ("--ms", dict(required=True, help='wedge degrees, e.g. "2,1"')),
        ("--p", dict(type=int)))),
    "reduce": (_cmd_reduce, _SYSTEM + (
        ("--point", dict(required=True, help='comma-separated rationals, e.g. "4/3,1/3"')),)),
    "exp": (_cmd_exp, _P + _MATRIX_DOC),
    "log": (_cmd_log, _P + _MATRIX_DOC),
    "tpower": (_cmd_tpower, _P + _MATRIX + (("--t", dict(required=True, type=int)),)),
    "bch": (_cmd_bch, _P + (
        ("--degree", dict(required=True, type=int)),
        ("--x", dict(help="optional JSON matrix")),
        ("--y", dict(help="optional JSON matrix")))),
    "cycle": (_cmd_cycle, _P + (
        ("--t", dict(required=True, help='p nonzero weights, e.g. "1,2,1"')),)),
    "pgl-lift": (_cmd_pgl_lift, _P + _MATRIX),
    "heisenberg": (_cmd_heisenberg, _P),
    "weightdemo": (_cmd_weightdemo, _P),
    "selftest": (_cmd_selftest, (
        ("--seed", dict(type=int)),
        ("--trials", dict(type=int)))),
}


_DESCRIPTION = """Command-line front end with machine-readable JSON output.

Every subcommand prints one JSON report to stdout: the subcommand name,
a result payload, the list of invariants that were verified while
building it, and the elapsed time in integer microseconds.  Rationals
are emitted as exact integers or "a/b" strings, never floats.  Exit
codes: 0 success, 1 usage error (bad flags, malformed rational or
matrix), 2 contract violation (well-formed input that fails a
mathematical precondition, or a failed self-test).  Diagnostics go to
stderr; stdout stays valid JSON on every path, including errors.
"""


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The argparse tree for `_COMMANDS`, built once per process.

    The top-level usage is spelled out, as argparse 3.10-3.12 wraps it, since 3.13 wraps
    it differently; the subcommands' ``prog`` is then given, as argparse would read it off
    that usage otherwise.
    """
    usage = "liep [-h]\n            {" + ",".join(_COMMANDS) + "}\n            ..."
    parser = _Parser(prog="liep", usage=usage, description=_DESCRIPTION)
    subs = parser.add_subparsers(dest="command", required=True, prog="liep")
    for name, (_, flags) in _COMMANDS.items():
        sub = subs.add_parser(name)
        for flag, options in flags:
            sub.add_argument(flag, **options)
    return parser


_quote = json.encoder.encode_basestring_ascii  # json.dumps' own quoter under ensure_ascii


def _layout(x, pad: str = "\n") -> str:
    """The one wire format: library values written as ``json.dumps(indent=2, sort_keys=True)``
    writes their exact JSON forms, byte for byte; ``pad`` is the newline and indent before the
    closing bracket.  A list of exact ints (a root, a matrix row, a word) is joined in one
    call; a bool is not an exact int, and ``int.__repr__(True)`` would be "True".
    """
    kind = type(x)
    if kind is str:
        return _quote(x)
    if kind is int:
        return int.__repr__(x)
    if x is None or kind is bool:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, (int, str)):  # a subclass, such as an IntEnum
        return int.__repr__(x) if isinstance(x, int) else _quote(x)
    inner = pad + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        if {*map(type, x)} == {int}:
            items = map(int.__repr__, x)
        else:
            items = [_layout(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [_quote(k) + ": " + _layout(v, inner) for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(x, Fraction):
        n, d = x.numerator, x.denominator
        return int.__repr__(n) if d == 1 else _quote(f"{n}/{d}")
    if isinstance(x, FpMatrix):  # before the dataclass branch: an FpMatrix is a dataclass
        return _layout({"matrix": x.rows, "p": x.p}, pad)
    if isinstance(x, (rootsys.RootVec, rootsys.WeightVec)):
        return _layout(x.coords, pad)
    if dataclasses.is_dataclass(x):
        return _layout({f.name: getattr(x, f.name) for f in dataclasses.fields(x)}, pad)
    if isinstance(x, float):
        raise TypeError("floats are banned from reports")
    raise TypeError(f"cannot encode {kind.__name__}")


def _emit(report: str) -> None:
    """Print one laid-out report; if the reader has closed stdout, drop it without a traceback."""
    try:
        print(report)
        sys.stdout.flush()
    except BrokenPipeError:
        pass


def main(argv=None) -> int:
    started = time.perf_counter()
    command = error = None
    try:
        try:
            args = _parser().parse_args(argv)
            command = args.command
            result, invariants, *code = _COMMANDS[command][0](args)
        except _HelpRequested as req:
            command, text = req.args
            result, invariants, code = {"usage": text}, [], []
        elapsed_us = int((time.perf_counter() - started) * 1_000_000)
        report = _layout({"subcommand": command, "result": result, "invariants": invariants,
                          "elapsed_us": elapsed_us})
        code = code[0] if code else 0
    except ContractError as exc:
        error, code = {"kind": "contract", "message": str(exc)}, 2
    except ValueError as exc:
        error, code = {"kind": "usage", "message": str(exc)}, 1
    except Exception as exc:  # a bug: stdout still carries one report, stderr the traceback
        traceback.print_exc()
        error, code = {"kind": "internal", "message": f"{type(exc).__name__}: {exc}"}, 2
    _emit(report if error is None else _layout({"subcommand": command, "error": error}))
    return code


if __name__ == "__main__":
    sys.exit(main())
