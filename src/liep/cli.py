"""Command-line front end with machine-readable JSON output.

Every subcommand prints one JSON report to stdout: the subcommand name,
a result payload, the list of invariants that were verified while
building it, and the elapsed time in integer microseconds.  Rationals
are emitted as exact integers or "a/b" strings, never floats.  Exit
codes: 0 success, 1 usage error (bad flags, malformed rational or
matrix), 2 contract violation (well-formed input that fails a
mathematical precondition, or a failed self-test).  Diagnostics go to
stderr; stdout stays valid JSON on every path, including errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import traceback
from fractions import Fraction
from functools import lru_cache

from . import acceptance, alcove, charp, heights, rootsys
from .charp import FpMatrix
from .errors import ContractError
from .primes import require_prime

__all__ = ["main"]


class _HelpRequested(Exception):
    """``--help`` was given; carries the subcommand (or None) and the help text."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems and help requests as exceptions, not exits."""

    def error(self, message):
        raise ValueError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.prog.partition(" ")[2] or None, self.format_help())


def _enc(x):
    """The one wire format: ``main`` runs each handler's result (library values, report
    dataclasses, tuples) through here, recursively, into JSON-safe exact forms."""
    if isinstance(x, (int, str)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [_enc(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _enc(v) for k, v in x.items()}
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, FpMatrix):
        return {"p": x.p, "matrix": [list(r) for r in x.rows]}
    if isinstance(x, (rootsys.RootVec, rootsys.WeightVec)):
        return list(x.coords)
    if dataclasses.is_dataclass(x):
        return {f.name: _enc(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, float):
        raise TypeError("floats are banned from reports")
    raise TypeError(f"cannot encode {type(x).__name__}")


# Reports print exact integers, and CPython refuses to turn one of more than 4300 digits
# (about 14284 bits) into text; a translation is as large as the point it moves.
_MAX_BITS = 4096


def _parse_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}: {exc}") from None
    if max(abs(value.numerator), value.denominator).bit_length() > _MAX_BITS:
        raise ValueError(f"rational {text!r} has a numerator or denominator above {_MAX_BITS} bits")
    return value


def _parse_fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_fraction(part) for part in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed integer list {text!r}") from None


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
        "closed under negation and simple reflections",
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
    entries = [
        {"root": a, "degree": d}
        for a, d in sorted(degrees.items(), key=lambda kv: (sum(kv[0].coords), kv[0].coords))
    ]
    invariants = ["degrees positive outside the parabolic"]
    missing = set(range(1, rs.rank + 1)) - set(subset)
    if len(missing) == 1:
        i = missing.pop()
        if max_degree != rs.marks[i - 1]:
            raise ContractError("maximal-parabolic degree does not match the mark")
        invariants.append("maximal-parabolic top degree equals the corresponding mark")
    return {"subset": sorted(subset), "max_degree": max_degree, "degrees": entries}, invariants


def _weight(args, rs) -> rootsys.WeightVec:
    coords = _parse_ints(args.weight)
    if len(coords) != rs.rank:
        raise ValueError(f"weight needs {rs.rank} coordinates, got {len(coords)}")
    return rootsys.WeightVec(coords)


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
    values = _parse_fractions(args.phi)
    if len(values) != rs.rank:
        raise ValueError(f"phi needs {rs.rank} values, got {len(values)}")
    return alcove.PhiHom(values)


def _cmd_basis(args):
    rs = _system(args)
    phi = _phi(args, rs)
    report = alcove.window_basis_report(rs, phi)  # checks every window root is positive
    result = {
        "phi": phi.values,
        "weyl_word": report.basis.weyl_word,
        "basis_roots": report.basis.basis_roots(rs),
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
    values = _parse_fractions(args.point)
    if len(values) != rs.rank:
        raise ValueError(f"point needs {rs.rank} coordinates, got {len(values)}")
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
    if args.trials is not None and args.trials < 1:
        raise ValueError("--trials must be positive")
    results = acceptance.run_all(seed=args.seed, trials=args.trials)
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
        "seed": args.seed,
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
        ("--seed", dict(type=int, default=acceptance.DEFAULT_SEED)),
        ("--trials", dict(type=int)))),
}


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The argparse tree for `_COMMANDS`, built once per process."""
    parser = _Parser(prog="liep", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sub = subs.add_parser(name)
        for flag, options in flags:
            sub.add_argument(flag, **options)
    return parser


def _emit(payload: dict) -> None:
    """Print one report; if the reader has closed stdout, drop it without a traceback."""
    try:
        print(json.dumps(payload, indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that flush go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def main(argv=None) -> int:
    started = time.perf_counter()
    command = None
    try:
        args = _parser().parse_args(argv)
        command = args.command
        outcome = _COMMANDS[command][0](args)
        result, invariants = _enc(outcome[0]), outcome[1]
        code = outcome[2] if len(outcome) > 2 else 0
    except _HelpRequested as req:
        command, text = req.args
        result, invariants, code = {"usage": text}, [], 0
    except ContractError as exc:
        _emit({"subcommand": command, "error": {"kind": "contract", "message": str(exc)}})
        return 2
    except ValueError as exc:
        _emit({"subcommand": command, "error": {"kind": "usage", "message": str(exc)}})
        return 1
    except Exception as exc:  # a bug: stdout still carries one report, stderr the traceback
        traceback.print_exc()
        message = f"{type(exc).__name__}: {exc}"
        _emit({"subcommand": command, "error": {"kind": "internal", "message": message}})
        return 2
    _emit(
        {
            "subcommand": command,
            "result": result,
            "invariants": invariants,
            "elapsed_us": int((time.perf_counter() - started) * 1_000_000),
        }
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
