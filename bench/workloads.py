"""The three workloads: seeded op lists, set-up, op bodies and output checks.

Each workload repeats one *round*: a fixed sequence of op classes whose
contents (phi, weights, matrices, argv values) are drawn from the seed.
The number of rounds in a run depends only on the requested run length,
so a run always completes the whole list it drew.  Set-up imports the
package and builds every root system, bracket table and lazily built
cache the ops use, so no op pays for them.

A round table lists (op class, ops per round, ms): the last column is
the class's cost at reference speed, the median time of the frozen copy
of liep (``liep_frozen``) on an idle host.  ``setup`` takes the package
to run: ``liep`` for the timed ops, or ``liep_frozen`` for the same ops
run beside them (see ``frozen.py``).  ``frozen_setup_s`` is the frozen
copy's set-up time at reference speed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from fractions import Fraction
from math import sqrt

import check

# ------------------------------------------------------------ weyl-large-rank

# One round: (system, ops per round, ms).  Sorted by cost the classes A8 and D8,
# B8, A12, E8 and the rank-12/16 systems hold 25% | 40% | 8% | 24% | 3% of the
# ops, so the median falls inside the B8 class and the 90th percentile inside the
# E8 class, whose 24 ops keep its ratio to the frozen copy steady.
WEYL_ROUND = (
    (("A", 8), 17, 15.1), (("D", 8), 8, 32.7), (("B", 8), 40, 43.0), (("A", 12), 8, 87.8),
    (("E", 8), 24, 121.9), (("A", 16), 1, 376.9), (("B", 12), 1, 259.3), (("D", 12), 1, 243.1),
)


def _modules(pkg: str, *names: str) -> list:
    return [importlib.import_module(f"{pkg}.{name}") for name in names]


def fixed_order(round_spec) -> list[int]:
    """The classes (rows of ``round_spec``) of one round's ops, in one order that no seed changes."""
    slots = [k for k, (_, count, _) in enumerate(round_spec) for _ in range(count)]
    random.Random(0).shuffle(slots)
    return slots


def round_seconds(round_spec) -> float:
    """One round's length at reference speed."""
    return sum(count * ms for _, count, ms in round_spec) / 1000


def draw_ops(workload, ctx, seed: int, rounds: int) -> list:
    """The op list of a run; the same for liep and for the frozen copy."""
    return workload.make_ops(ctx, random.Random(f"{workload.name}:{seed}"), rounds)


def _phi_at_mean_depth(rng: random.Random, t: str, n: int) -> tuple[Fraction, ...]:
    """Uniform phi, kept only when theta(phi) = sum m_i phi_i lies within a quarter standard
    deviation of its mean: every query of one system then starts about equally far
    outside the alcove, which halves the spread of its cost.  Denominators are
    multiples of h, so phi-values can land on the window edge 1/h."""
    marks, h = check.closed_marks(t, n), check.closed_h(t, n)
    band = sqrt(sum(m * m for m in marks) / 12) / 4
    while True:
        den = h * rng.choice((7, 11, 13))
        phi = tuple(Fraction(rng.randrange(den), den) for _ in range(n))
        if abs(sum(m * f for m, f in zip(marks, phi)) - (h - 1) / 2) <= band:
            return phi


class WeylLargeRank:
    name = "weyl-large-rank"
    round_spec = WEYL_ROUND
    frozen_setup_s = 0.2

    def setup(self, pkg: str = "liep"):
        alcove, heights, rootsys = _modules(pkg, "alcove", "heights", "rootsys")

        systems = {}
        for (t, n), _, _ in WEYL_ROUND:
            rs = rootsys.build(t, n)
            # the zero query builds the affine-wall word and the coroot sum
            alcove.window_basis_report(rs, alcove.PhiHom((0,) * n))
            heights.dynkin_height(rs, rootsys.WeightVec((0,) * n))
            systems[(t, n)] = rs
        return {"systems": systems, "alcove": alcove, "heights": heights, "rootsys": rootsys}

    def make_ops(self, ctx, rng: random.Random, rounds: int) -> list:
        PhiHom, WeightVec = ctx["alcove"].PhiHom, ctx["rootsys"].WeightVec
        ops = []
        for _ in range(rounds):
            for k in fixed_order(WEYL_ROUND):
                t, n = WEYL_ROUND[k][0]
                phi = _phi_at_mean_depth(rng, t, n)
                weight = tuple(rng.randrange(4) for _ in range(n))
                ops.append((t, n, phi, weight, PhiHom(phi), WeightVec(weight)))
        return ops

    def run(self, ctx, op):
        t, n, _, _, phi, weight = op
        rs = ctx["systems"][(t, n)]
        alcove = ctx["alcove"]
        report = alcove.window_basis_report(rs, phi)
        crit = alcove.critical_roots(rs, phi)
        bnd = alcove.boundary_roots(rs, phi)
        height = ctx["heights"].dynkin_height(rs, weight)
        return report, crit, bnd, height

    def check(self, ctx, op, out) -> None:
        t, n, phi, weight, _, _ = op
        report, crit, bnd, height = out
        rs = ctx["systems"][(t, n)]
        check.check_system(t, n, rs.coxeter_number, rs.marks, len(rs.positive_roots))
        tr = report.transcript
        check.check_weyl_query(t, n, phi, weight, {
            "basis_word": report.basis.weyl_word,
            "reduced": report.reduced_point.values,
            "weyl_word": tr.weyl_word,
            "net": tr.net_translation,
            "pigeonhole": report.pigeonhole_index,
            "dominance": report.dominance_word,
            "critical": [a.coords for a in crit],
            "boundary": [a.coords for a in bnd],
            "height": height.height,
            "via_pairing": height.via_pairing,
            "via_difference": height.via_difference,
            "lambda_minus": height.lambda_minus.coords,
        })


# ------------------------------------------------------------ charp-large-p

# ("series", p, n) runs trunc_exp, trunc_log, t_power and bch_apply on one
# seeded input; ("heisenberg", p) runs heisenberg_module_check.  Sorted by
# cost: p=101 n=4 and Heisenberg p=7 (26% of the ops) | p=101 n=8 (44%)
# | p=1009 n=3 and Heisenberg p=11, 13 (13%) | p=10007 n=2 (17%): the median
# falls inside the p=101 n=8 class and the 90th percentile inside the top class.
CHARP_ROUND = (
    (("series", 101, 4), 4, 5.41), (("heisenberg", 7), 2, 11.27), (("series", 101, 8), 10, 23.56),
    (("series", 1009, 3), 1, 36.67), (("heisenberg", 11), 1, 77.17),
    (("heisenberg", 13), 1, 162.89), (("series", 10007, 2), 4, 212.98),
)


def _strict_upper(rng: random.Random, p: int, n: int) -> list[list[int]]:
    return [[rng.randrange(p) if c > r else 0 for c in range(n)] for r in range(n)]


def _conjugate_nilpotent(rng: random.Random, p: int, n: int) -> list[list[int]]:
    """g N g^-1 for a seeded strictly upper N and invertible g, so x^n = 0."""
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if check.det(g, p):
            break
    return check.mat_mul(check.mat_mul(g, _strict_upper(rng, p, n), p), check.inverse(g, p), p)


class CharpLargeP:
    name = "charp-large-p"
    round_spec = CHARP_ROUND
    frozen_setup_s = 0.04

    def setup(self, pkg: str = "liep"):
        (charp,) = _modules(pkg, "charp")

        tables = {(p, size[0]): charp.bch_table(p, size[0] - 1)
                  for (kind, p, *size), _, _ in CHARP_ROUND if kind == "series"}
        return {"charp": charp, "tables": tables}

    def make_ops(self, ctx, rng: random.Random, rounds: int) -> list:
        FpMatrix = ctx["charp"].FpMatrix
        ops = []
        for _ in range(rounds):
            for k in fixed_order(CHARP_ROUND):
                kind, p, *size = CHARP_ROUND[k][0]
                if kind == "heisenberg":
                    ops.append((kind, p))
                    continue
                n = size[0]
                x = _conjugate_nilpotent(rng, p, n)
                a, b = _strict_upper(rng, p, n), _strict_upper(rng, p, n)
                t = rng.randrange(3 * p // 4, p)  # t_power's cost grows with t < p
                ops.append((kind, p, n, x, a, b, t,
                            [FpMatrix.from_rows(p, m) for m in (x, a, b)]))
        return ops

    def run(self, ctx, op):
        charp = ctx["charp"]
        if op[0] == "heisenberg":
            return charp.heisenberg_module_check(op[1])
        _, p, n, _, _, _, t, (x, a, b) = op
        u = charp.trunc_exp(x)
        log_u = charp.trunc_log(u)
        u_t = charp.t_power(u, t)
        z = charp.bch_apply(ctx["tables"][(p, n)], a, b)
        return u, log_u, u_t, z

    def check(self, ctx, op, out) -> None:
        if op[0] == "heisenberg":
            check.check_heisenberg(op[1], {
                "p": out.p,
                "shift_order_ok": out.shift_order_ok,
                "commutator_ok": out.commutator_ok,
                "span_dimension": out.span_dimension,
                "spans_full_algebra": out.spans_full_algebra,
            })
            return
        _, p, _, x, a, b, t, _ = op
        u, log_u, u_t, z = (m.rows for m in out)
        check.check_series(p, x, u, log_u, t, u_t)
        check.check_bch(p, a, b, z)


# ------------------------------------------------------------ cli-small

_SMALL = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
          ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2))
_ORACLE = tuple(s for s in _SMALL if s[1] <= 3)
_RANK8 = (("A", 8), ("B", 8), ("C", 8), ("D", 8), ("E", 8), ("E", 7), ("E", 6))
_PRIMES = (2, 3, 5, 7, 11, 13)
_SERIES_P = (3, 5, 7)


def _rationals(rng, k: int, lo: int = 0) -> str:
    """k seeded rationals in [lo, 2) with denominators below 30."""
    out = []
    for _ in range(k):
        den = rng.randrange(2, 30)
        out.append(str(Fraction(rng.randrange(lo * den, 2 * den), den)))
    return ",".join(out)


def _matrix(rows) -> str:
    return json.dumps(rows, separators=(",", ":"))


def _on(systems, name: str, *extras):
    """argv of a subcommand on a seeded system; each extra maps (rng, rank) to more flags."""
    def gen(rng):
        t, n = rng.choice(systems)
        argv = [name, "--type", t, "--rank", str(n)]
        for extra in extras:
            argv += extra(rng, n)
        return argv
    return gen


def _weight(rng, n):
    return ["--weight", ",".join(str(rng.randrange(4)) for _ in range(n))]


def _prime(rng, n=None):
    return ["--p", str(rng.choice(_PRIMES))]


def _phi(rng, n):
    return ["--phi", _rationals(rng, n)]


def _point(rng, n):
    return ["--point=" + _rationals(rng, n, -1)]  # "=" because the point may start with "-"


def _subset(rng, n):
    return ["--subset", ",".join(map(str, sorted(rng.sample(range(1, n + 1), rng.randrange(n)))))]


def _glheight(rng):
    dims = [rng.randrange(1, 9) for _ in range(rng.randrange(1, 4))]
    ms = [rng.randrange(d + 1) for d in dims]
    return ["glheight", "--dims", ",".join(map(str, dims)), "--ms", ",".join(map(str, ms)), *_prime(rng)]


def _series(name: str):
    """exp takes a p-nilpotent matrix; log and tpower take its exponential."""
    def gen(rng):
        p = rng.choice(_SERIES_P)
        x = _conjugate_nilpotent(rng, p, rng.randrange(2, p + 1))
        argv = [name, "--p", str(p), "--matrix", _matrix(x if name == "exp" else check.exp_series(x, p))]
        return argv + (["--t", str(rng.randrange(3 * p))] if name == "tpower" else [])
    return gen


def _bch(rng):
    p = rng.choice(_SERIES_P)
    return ["bch", "--p", str(p), "--degree", str(rng.randrange(1, p))]


def _bch_pair(rng):
    p = rng.choice(_SERIES_P)
    n = rng.randrange(2, p + 1)
    return ["bch", "--p", str(p), "--degree", str(n - 1),
            "--x", _matrix(_strict_upper(rng, p, n)), "--y", _matrix(_strict_upper(rng, p, n))]


def _cycle(rng):
    p = rng.choice((3, 5, 7))
    return ["cycle", "--p", str(p), "--t", ",".join(str(rng.randrange(1, p)) for _ in range(p))]


def _pgl_lift(rng):
    """A p x p matrix c + x with x nilpotent, so its characteristic polynomial is T^p - c."""
    p = rng.choice((2, 3, 5))
    x = _conjugate_nilpotent(rng, p, p)
    c = rng.randrange(p)
    return ["pgl-lift", "--p", str(p), "--matrix",
            _matrix([[(v + c * (i == j)) % p for j, v in enumerate(r)] for i, r in enumerate(x)])]


# (argv generator, calls per round, ms).  The round holds 41 calls of about
# 2-2.7 ms (parser construction and JSON encoding dominate), 5 chamber-oracle
# calls of about 3 ms and 4 of 4-14 ms (rank-8 Coxeter element, weight demo,
# Heisenberg p=5, 7), so the median falls in the first group and the 90th
# percentile in the oracle class.
CLI_ROUND = (
    (_on(_SMALL, "coxeter"), 2, 2.2),
    (_on(_SMALL, "roots"), 2, 2.16),
    (_on(_SMALL + _RANK8, "goodprime", _prime), 3, 2.08),
    (_on(_SMALL, "parabolic", _subset), 2, 2.13),
    (_on(_SMALL, "height", _weight), 3, 2.15),
    (_on(_SMALL, "lowheight", _weight, _prime), 3, 2.33),
    (_glheight, 3, 2.07),
    (_on(_SMALL, "critical", _phi), 3, 2.23),
    (_on(_SMALL, "reduce", _point), 3, 2.63),
    (_series("exp"), 3, 2.16),
    (_series("log"), 3, 2.17),
    (_series("tpower"), 3, 2.23),
    (_bch, 2, 2.2),
    (_bch_pair, 2, 2.3),
    (_cycle, 2, 2.24),
    (_pgl_lift, 1, 2.61),
    (_on(_ORACLE, "basis", _phi, lambda rng, n: ["--oracle"]), 5, 3.13),
    (_on(_SMALL, "minheight"), 1, 2.21),
    (_on(_RANK8, "coxeter"), 1, 4.35),
    (lambda rng: ["weightdemo", "--p", str(rng.choice((11, 13)))], 1, 4.85),
    (lambda rng: ["heisenberg", "--p", "5"], 1, 4.96),
    (lambda rng: ["heisenberg", "--p", "7"], 1, 13.31),
)


class CliSmall:
    name = "cli-small"
    round_spec = CLI_ROUND
    frozen_setup_s = 0.13

    def setup(self, pkg: str = "liep"):
        alcove, bch, cli, heights, rootsys = _modules(pkg, "alcove", "bch", "cli", "heights", "rootsys")

        for t, n in _SMALL + _RANK8:
            rs = rootsys.build(t, n)
            alcove.window_basis_report(rs, alcove.PhiHom((0,) * n))
            heights.dynkin_height(rs, rootsys.WeightVec((0,) * n))
            if n <= 3:
                alcove.oracle_valid_bases(rs, alcove.PhiHom((0,) * n))
        for k in range(1, max(_SERIES_P)):
            bch.bracket_terms(k)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["glheight", "--dims", "1", "--ms", "0"])
        return {"cli": cli}

    def make_ops(self, ctx, rng: random.Random, rounds: int) -> list:
        slots = fixed_order(CLI_ROUND)
        return [CLI_ROUND[k][0](rng) for _ in range(rounds) for k in slots]

    def run(self, ctx, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ctx["cli"].main(argv)
        return code, buf.getvalue()

    def check(self, ctx, argv, out) -> None:
        check.check_cli(argv, *out)


WORKLOADS = {w.name: w for w in (WeylLargeRank(), CharpLargeP(), CliSmall())}
