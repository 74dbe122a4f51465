"""CI's timed end-to-end calls of liep: one table of rows and one runner.

Run ``python tools/ladder.py`` (standard library only, any working directory).
Each row runs ``python <argv>`` with ``PYTHONPATH=src`` under its own wall-time
cap, killed and reaped past it, with stdout and stderr in temporary files. Its
check then runs as ``python -c <check> <args>`` with that stdout file as stdin.
The ladder never reads a row's stdout itself: on Linux a child's ``ru_maxrss``
starts from its parent's RSS at spawn, so a large parent would inflate every
later row's peak (and fail the in-process rows' own ``peak < 80 * 1024``).

One JSON object goes to stdout: the Python version, the CPU count, the ladder's
own peak RSS, and per row ``name``, ``cap_s``, ``wall_s``, ``peak_rss_mb`` and
``verdict`` (``ok``, ``failed`` or ``timeout``); a row that is not ``ok`` also
carries ``stderr``, the last stderr line of the process that failed. The exit
code is 1 if any row is not ``ok``. Wall times depend on the host; the caps
are CI's.
"""
import json
import math
import os
import platform
import random
import resource
import signal
import sys
import tempfile
import time
from typing import NamedTuple

ENV = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


class Row(NamedTuple):
    name: str
    cap_s: float
    argv: tuple  # the child's argv after sys.executable
    check: tuple = ()  # (snippet, *args), run on the child's stdout; () for none
    code: int = 0  # the expected exit code
    quiet: bool = False  # the child's stderr must be empty


def cli(line, *more):
    return ("-m", "liep", *line.split(), *more)


def phi(rank):
    """CI's φ: `rank` draws k/1000 from random.Random(1), comma-separated."""
    rng = random.Random(1)
    return ",".join(f"{rng.randrange(1000)}/1000" for _ in range(rank))


def upper(seed=None):
    """A seeded 13x13 strictly upper triangular matrix over F_13, as JSON; with no seed, every strictly upper entry is 12."""
    rng = random.Random(seed)
    return json.dumps([[(12 if seed is None else rng.randrange(13)) if c > r else 0 for c in range(13)] for r in range(13)])


# bch's applied z against log(exp x . exp y), its x, y and z read back from the report
BCH_APPLIED = 'import json, sys; from liep import charp; a = json.load(sys.stdin)["result"]["applied"]; x, y, z = (charp.FpMatrix.from_rows(13, a[k]["matrix"]) for k in "xyz"); assert z == charp.trunc_log(charp.trunc_exp(x) * charp.trunc_exp(y)), a'


ONE_OBJECT = 'import json, sys; assert isinstance(json.load(sys.stdin), dict)'
# each submodule loads on first use: import liep.charp loads only the characteristic-p modules, and a Weyl call loads no alcove code
LAZY = 'import sys, liep.charp, liep; loaded = lambda: {k for k in sys.modules if k == "liep" or k.startswith("liep.")}; assert loaded() == {"liep", "liep.bch", "liep.charp", "liep.errors", "liep.primes"}, loaded(); liep.build("A", 2); assert "liep.alcove" not in loaded(), loaded()'


ROWS = [
    Row("lazy submodule imports", 10, ("-W", "error", "-c", LAZY)),
    # the entry point: exit 0, stdout one JSON object, and -W error turns any warning from the package into a failure
    Row("liep --help", 120, ("-W", "error", *cli("--help")), (ONE_OBJECT,)),
    Row("selftest", 120, ("-W", "error", *cli("selftest")), (ONE_OBJECT,)),
    Row("selftest seed 1", 120, ("-W", "error", *cli("selftest --seed 1")), (ONE_OBJECT,)),
    Row("coxeter A120", 30, cli("coxeter --type A --rank 120"), ('import json, sys; r = json.load(sys.stdin); assert r["result"]["h"] == 121, r',)),
    Row("coxeter A400", 10, cli("coxeter --type A --rank 400"), ('import json, sys; r = json.load(sys.stdin)["result"]; assert r["h"] == r["via_marks"] == r["via_rho"] == r["via_element"] == 401, r',)),
    Row("no Φ⁺ view on the Coxeter path and no Φ⁻ on the window paths at A200 (in process)", 30, ("-c", 'import random, resource; from fractions import Fraction; from liep import alcove, heights, rootsys; rs = rootsys.build("A", 200); rng = random.Random(1); point = alcove.CoweightPoint(tuple(Fraction(rng.randrange(1000), 1000) for _ in range(200))); assert rootsys.coxeter_via_marks(rs) == rootsys.coxeter_via_rho(rs) == rootsys.coxeter_via_element(rs) == 201; assert heights.min_nontrivial_height(rs) == 200; alcove.reduce_to_alcove(rs, point); assert "positive_roots" not in vars(rs); phi = alcove.PhiHom(point.values); assert alcove.window_basis_report(rs, phi).critical_roots == alcove.critical_roots(rs, phi); alcove.boundary_roots(rs, phi); peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; assert "roots" not in vars(rs) and peak < 80 * 1024, ("roots" in vars(rs), peak)')),
    *(Row(f"coxeter {t}100", 10, cli(f"coxeter --type {t} --rank 100"), ('import json, sys; r = json.load(sys.stdin)["result"]; assert r["h"] == r["via_rho"] == 200, r',)) for t in "BC"),
    Row("coxeter D150", 20, cli("coxeter --type D --rank 150"), ('import json, sys; r = json.load(sys.stdin)["result"]; assert r["h"] == r["via_marks"] == r["via_rho"] == r["via_element"] == 298, r',)),
    Row("roots A100", 10, cli("roots --type A --rank 100"), ('import json, sys; out = sys.stdin.read(); assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\\n" and len(out) > 17_000_000, len(out)',)),
    Row("basis A100", 10, cli(f"basis --type A --rank 100 --phi {phi(100)}"), ('import json, sys; b = json.load(sys.stdin)["result"]["basis_roots"]; assert len(b) == 100 and all(any(r) and (min(r) >= 0 or max(r) <= 0) for r in b), b',)),
    *(Row(f"basis {t}60", 10, cli(f"basis --type {t} --rank 60 --phi {phi(60)}"), ('import json, sys; from liep import rootsys; b = json.load(sys.stdin)["result"]["basis_roots"]; rs = rootsys.build(sys.argv[1], 60); assert len(b) == 60 and all(rs.is_root(rootsys.RootVec(tuple(a))) for a in b), b', t)) for t in "BCD"),
    Row("window basis report A200 (in process)", 10, ("-c", 'import random; from fractions import Fraction; from liep import alcove, rootsys; rs = rootsys.build("A", 200); rng = random.Random(1); phi = alcove.PhiHom(tuple(Fraction(rng.randrange(1000), 1000) for _ in range(200))); t = alcove.window_basis_report(rs, phi).transcript; assert len(t.weyl_word) == 48928 and len(t.reduced_word) <= len(rs.positive_roots), (len(t.weyl_word), len(t.reduced_word))')),
    # the first window report after build: A300's Φ⁻ alone would add about 110 MB
    Row("no Φ⁻ in the window report at A300 (in process)", 20, ("-c", 'import random, resource; from fractions import Fraction; from liep import alcove, rootsys; peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; rs = rootsys.build("A", 300); built = peak(); rng = random.Random(1); phi = alcove.PhiHom(tuple(Fraction(rng.randrange(1000), 1000) for _ in range(300))); window = alcove.window_basis_report(rs, phi).critical_roots; assert window == alcove.critical_roots(rs, phi) and len(window) == 296, len(window); alcove.boundary_roots(rs, phi); grown = peak() - built; assert "roots" not in vars(rs) and grown < 30 * 1024, ("roots" in vars(rs), grown)')),
    Row("reduce A200", 10, cli(f"reduce --type A --rank 200 --point {phi(200)}"), ('import json, sys; out = sys.stdin.buffer.read(); r = json.loads(out); assert len(out) < 3_000_000 and len(r["result"]["reduced_point"]) == 200, len(out)',)),
    Row("README pattern A200 (in process)", 20, ("-c", 'import random; from fractions import Fraction; from liep import alcove, rootsys; rs = rootsys.build("A", 200); rng = random.Random(1); phi = alcove.PhiHom(tuple(Fraction(rng.randrange(1000), 1000) for _ in range(200))); basis = alcove.window_basis(rs, phi); window = alcove.critical_roots(rs, phi); assert len(window) == 171 and all(basis.is_positive(rs, a) for a in window), len(window)')),
    Row("README pattern A60 (in process)", 10, ("-c", 'import random; from fractions import Fraction; from liep import alcove, rootsys; rs = rootsys.build("A", 60); rng = random.Random(1); phi = alcove.PhiHom(tuple(Fraction(rng.randrange(1000), 1000) for _ in range(60))); basis = alcove.window_basis(rs, phi); window = alcove.critical_roots(rs, phi); assert len(window) == 62 and all(basis.is_positive(rs, a) for a in window), len(window)')),
    Row("critical A150", 20, cli(f"critical --type A --rank 150 --phi {phi(150)}"), ('import json, sys; r = json.load(sys.stdin); assert len(r["result"]["critical_roots"]) == 160, r',)),
    *(Row(f"critical {t}100", 10, cli(f"critical --type {t} --rank 100 --phi {phi(100)}"), ('import json, sys; from liep import rootsys; r = json.load(sys.stdin)["result"]["critical_roots"]; rs = rootsys.build(sys.argv[1], 100); assert len(r) == int(sys.argv[2]) and all(rs.is_root(rootsys.RootVec(tuple(a))) for a in r), len(r)', t, n)) for t, n in (("B", "105"), ("C", "92"))),
    Row("minheight A150", 10, cli("minheight --type A --rank 150"), ('import json, sys; r = json.load(sys.stdin); assert r["result"]["min_height"] == 150, r',)),
    *(Row(f"minheight {t}100", 10, cli(f"minheight --type {t} --rank 100"), ('import json, sys; r = json.load(sys.stdin); assert r["result"]["min_height"] == int(sys.argv[1]), r', h)) for t, h in (("B", "200"), ("C", "199"))),
    Row("reduce 0e10000000", 5, cli("reduce --type A --rank 1 --point 0e10000000"), ('import json, sys; r = json.load(sys.stdin); assert r["result"]["reduced_point"] == [0], r',)),
    *(Row(f"reduce {point}", 5, cli(f"reduce --type A --rank 1 --point={point}"), ('import json, sys; r = json.load(sys.stdin); assert r["error"]["kind"] == "usage", r',), code=1) for point in ("1_0e10000000", "١e10000000")),
    *(Row(f"{line.split()[0]} past 4096 bits", 5, cli(line), ('import json, sys; r = json.load(sys.stdin); assert isinstance(r, dict) and r["error"]["kind"] == "usage", r',), code=1, quiet=True) for line in (f"glheight --dims 1{'0' * 4000} --ms 5{'0' * 3999}", f"height --type A --rank 3 --weight {'9' * 4300},0,0")),
    Row("heisenberg 31", 10, cli("heisenberg --p 31"), ('import json, sys; r = json.load(sys.stdin); assert r["result"]["span_dimension"] == 961, r',)),
    Row("heisenberg 97", 5, cli("heisenberg --p 97"), ('import json, sys; r = json.load(sys.stdin); assert r["result"]["span_dimension"] == 9409, r',)),
    Row("goodprime 10^18+3", 10, cli("goodprime --type A --rank 1 --p 1000000000000000003"), ('import json, sys; r = json.load(sys.stdin); assert r["result"]["good"] is True, r',)),
    *(Row(f"{op} 1000003", 5, cli(f"{op} --p 1000003 --matrix {m}"), ('import json, sys; r = json.load(sys.stdin); assert r["result"]["output"]["matrix"] == json.loads(sys.argv[1]), r', want)) for op, m, want in (("exp", "[[0,1],[0,0]]", "[[1,1],[0,1]]"), ("log", "[[1,1],[0,1]]", "[[0,1],[0,0]]"))),
    Row("exp 1000003 not nilpotent", 5, cli("exp --p 1000003 --matrix [[1,0],[0,0]]"), ('import json, sys; r = json.load(sys.stdin); assert r["error"]["message"] == "matrix power p does not vanish", r',), code=2),
    Row("bch apply 13 degree 12", 10, cli("bch --p 13 --degree 12 --x", upper(1), "--y", upper(2)), (BCH_APPLIED,)),
    # x at every residue's largest, the slot bound's worst case; y is drawn, since y = x would make every bracket 0
    Row("bch apply 13 degree 12, x all 12", 10, cli("bch --p 13 --degree 12 --x", upper(), "--y", upper(2)), (BCH_APPLIED,)),
    Row("bch table 17 degree 14", 3, cli("bch --p 17 --degree 14"), ('import json, sys; r = json.load(sys.stdin)["result"]; t = {tuple(e["word"]): e["coefficient"] for e in r["terms"]}; assert len(t) == 7373 and t[(0, 1)] == "1/2" and t[(0, 1, 0)] == "-1/12" and t[(0, 1, 1)] == "1/12", (len(t), [t.get(w) for w in ((0, 1), (0, 1, 0), (0, 1, 1))])',)),
    Row("pgl-lift 31", 10, cli("pgl-lift --p 31 --matrix", json.dumps([[1 + 2 * (i == j) for j in range(31)] for i in range(31)])), ('import json, sys; r = json.load(sys.stdin); assert r["result"]["det"] == 2, r',)),
]


def spawn(argv, cap_s, stdin, stdout, stderr):
    """Run python `argv` on the three files; return its exit code (None past `cap_s`), wall time and peak RSS in MB."""
    streams = [(os.POSIX_SPAWN_DUP2, f.fileno(), fd) for fd, f in enumerate((stdin, stdout, stderr))]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], ENV, file_actions=streams)
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        wall_s = time.monotonic() - start
        if done:
            return os.waitstatus_to_exitcode(status), wall_s, usage.ru_maxrss / 1024
        if wall_s > cap_s:
            os.kill(pid, signal.SIGKILL)
            return None, wall_s, os.wait4(pid, 0)[2].ru_maxrss / 1024
        time.sleep(0.002)


def last_line(f):
    """The last non-blank line of `f`, read from its last 4 kB so a flooded stderr cannot grow the ladder."""
    f.seek(max(0, os.fstat(f.fileno()).st_size - 4096))
    lines = f.read().decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_row(row):
    """Run one row under its cap, then its check; return the row's record."""
    with open(os.devnull, "r+b") as null, tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        code, wall_s, rss_mb = spawn(row.argv, row.cap_s, null, out, err)
        record = {"name": row.name, "cap_s": row.cap_s, "wall_s": round(wall_s, 3), "peak_rss_mb": round(rss_mb, 1)}
        if code is None:
            record["verdict"] = "timeout"
        elif code != row.code or (row.quiet and os.fstat(err.fileno()).st_size):
            record["verdict"] = "failed"
        elif row.check:
            out.seek(0)
            err.seek(0)
            err.truncate()
            record["verdict"] = "ok" if spawn(("-c", *row.check), math.inf, out, null, err)[0] == 0 else "failed"
        else:
            record["verdict"] = "ok"
        if record["verdict"] != "ok":
            record["stderr"] = last_line(err)
        return record


def main(rows=ROWS):
    """Run `rows` one at a time, print the JSON report, and return 1 if any row is not ok, else 0."""
    records = [run_row(row) for row in rows]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {"python": platform.python_version(), "cpus": os.cpu_count(), "ladder_peak_rss_mb": round(peak_mb, 1), "rows": records}
    print(json.dumps(report, indent=2))
    return int(any(r["verdict"] != "ok" for r in records))


if __name__ == "__main__":
    sys.exit(main())
