"""A pinned digest over 200 alcove reductions and window bases.

Each query contributes the repr of everything the constructive route
emits: the reduction transcript, the reduced point, the chosen basis
word, the pigeonhole index, the dominance word and the critical and
boundary roots.  The digest was first computed when the Weyl action still
multiplied out dense reflection matrices and held points as Fractions, so a
faster kernel must reproduce every emitted word byte for byte.  It was
re-pinned once, when the reduction began to take coroot translations between
its simple-wall phases: that moved the steps, words and net translations,
and left the reduced points, pigeonhole indices, dominance words and window
roots as they were.
"""

import hashlib
import random
from fractions import Fraction as F

from liep import alcove, rootsys
from liep.alcove import CoweightPoint, PhiHom

SYSTEMS = [("A", 8), ("B", 8), ("D", 8), ("E", 8), ("A", 12), ("F", 4), ("G", 2)]

GOLDEN_SHA256 = "05f7d74d2d13202bc52138241c079a41f84951c6760d43719c872a7bc3e91b90"


def _entries():
    rng = random.Random("golden-weyl")
    for k in range(180):
        rs = rootsys.build(*SYSTEMS[k % len(SYSTEMS)])
        den = rs.coxeter_number * rng.choice((7, 11, 13))
        phi = PhiHom(tuple(F(rng.randrange(den), den) for _ in range(rs.rank)))
        report = alcove.window_basis_report(rs, phi)
        tr = report.transcript
        yield (
            tr.steps, tr.weyl_word, tr.net_translation, report.reduced_point.values,
            report.basis.weyl_word, report.pigeonhole_index, report.dominance_word,
            tuple(a.coords for a in alcove.critical_roots(rs, phi)),
            tuple(a.coords for a in alcove.boundary_roots(rs, phi)),
        )
    for k in range(20):
        rs = rootsys.build(*SYSTEMS[k % len(SYSTEMS)])
        point = CoweightPoint(
            tuple(F(rng.randrange(-10**6, 10**6), rng.randrange(1, 50)) for _ in range(rs.rank))
        )
        reduced, tr = alcove.reduce_to_alcove(rs, point)
        assert tr.steps[0][0] == "translate"
        yield (tr.steps, tr.weyl_word, tr.net_translation, reduced.values,
               None, None, None, None, None)


def test_emitted_words_match_the_pinned_digest():
    digest = hashlib.sha256()
    for entry in _entries():
        digest.update(repr(entry).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256
