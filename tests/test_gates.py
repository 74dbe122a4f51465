"""The integer gate of every public entry point, pinned to its whole message."""

import pytest

from liep import alcove, charp, rootsys
from liep.charp import FpMatrix
from liep.rootsys import RootVec

_A2 = rootsys.build("A", 2)
_UNIPOTENT = FpMatrix.from_rows(5, [[1, 1], [0, 1]])

# (noun in the message, a call that passes the bad value x where that noun is gated)
_GATES = [
    ("coordinate", lambda x: _A2.reflect(RootVec((x, 0)), 1)),
    ("j", lambda x: alcove.mu_pj_restriction(_A2, (1, 1), 3, x)),
    ("entry", lambda x: FpMatrix.from_rows(5, [[0, x], [0, 0]])),
    ("scalar", lambda x: FpMatrix.identity(5, 2).scale(x)),
    ("exponent", lambda x: charp.t_power(_UNIPOTENT, x)),
    ("max_degree", lambda x: charp.bch_table(5, x)),
    ("weight", lambda x: charp.cycle_power_scalar(3, (1, x, 1))),
]


@pytest.mark.parametrize("bad", [1.5, True, "1"])
@pytest.mark.parametrize("noun, call", _GATES, ids=[noun for noun, _ in _GATES])
def test_every_integer_gate_names_its_argument_and_value(noun, call, bad):
    with pytest.raises(ValueError) as excinfo:
        call(bad)
    assert str(excinfo.value) == f"{noun} {bad!r} is not an integer"


def test_from_rows_names_the_first_bad_entry_in_row_major_order():
    with pytest.raises(ValueError) as excinfo:
        FpMatrix.from_rows(5, [[0, 0.5], [True, 0]])
    assert str(excinfo.value) == "entry 0.5 is not an integer"

