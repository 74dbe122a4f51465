"""The integer gate of every public entry point, pinned to its whole message."""

from fractions import Fraction

import pytest

from liep import alcove, bch, charp, rootsys
from liep.charp import FpMatrix
from liep.rootsys import RootVec

_A2 = rootsys.build("A", 2)
_UNIPOTENT = FpMatrix.from_rows(5, [[1, 1], [0, 1]])

_SYSTEM = ("no irreducible system of type 'A' and rank {}: "
           "valid are A(n>=1), B(n>=2), C(n>=2), D(n>=4), E(6..8), F4, G2")

# (the message, formatted with the bad value x, and a call that passes x where it is gated)
_GATES = [
    ("coordinate {!r} is not an integer", lambda x: _A2.reflect(RootVec((x, 0)), 1)),
    ("j {!r} is not an integer", lambda x: alcove.mu_pj_restriction(_A2, (1, 1), 3, x)),
    ("entry {!r} is not an integer", lambda x: FpMatrix.from_rows(5, [[0, x], [0, 0]])),
    ("scalar {!r} is not an integer", lambda x: FpMatrix.identity(5, 2).scale(x)),
    ("exponent {!r} is not an integer", lambda x: charp.t_power(_UNIPOTENT, x)),
    ("exponent {!r} is not an integer", lambda x: _UNIPOTENT ** x),
    ("max_degree {!r} is not an integer", lambda x: charp.bch_table(5, x)),
    ("max_degree {!r} is not an integer", lambda x: bch.bracket_terms(x)),
    ("max_degree {!r} is not an integer", lambda x: bch.associative_terms(x)),
    ("max_degree {!r} is not an integer", lambda x: bch.max_denominator_prime(x)),
    ("size {!r} is not an integer", lambda x: FpMatrix.identity(5, x)),
    ("weight {!r} is not an integer", lambda x: charp.cycle_power_scalar(3, (1, x, 1))),
    (_SYSTEM, lambda x: rootsys.build("A", x)),
]


# a list is unhashable, so it also shows that each gate runs before any cache
@pytest.mark.parametrize("bad", [1.5, True, "1", [3]])
@pytest.mark.parametrize("message, call", _GATES, ids=[m.split(" {")[0].split()[-1] for m, _ in _GATES])
def test_every_integer_gate_names_its_argument_and_value(message, call, bad):
    with pytest.raises(ValueError) as excinfo:
        call(bad)
    assert str(excinfo.value) == message.format(bad)


def test_from_rows_names_the_first_bad_entry_in_row_major_order():
    with pytest.raises(ValueError) as excinfo:
        FpMatrix.from_rows(5, [[0, 0.5], [True, 0]])
    assert str(excinfo.value) == "entry 0.5 is not an integer"


def test_each_call_gets_its_own_associative_terms():
    bch.associative_terms(3)[2].clear()
    assert bch.associative_terms(3)[2] == {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}


_A3 = rootsys.build("A", 3)
_ROOT = _A3.positive_roots[0]

# each public word function, given a word whose middle letter is the bad value x
_WORD_CALLS = {
    "apply_letters": lambda word: rootsys.apply_letters(_A3, word, [1, 1, 1]),
    "word_matrix": lambda word: alcove.word_matrix(_A3, word),
    "is_positive": lambda word: alcove.BasisChoice(word).is_positive(_A3, _ROOT),
    "basis_roots": lambda word: alcove.BasisChoice(word).basis_roots(_A3),
    "same_basis": lambda word: alcove.same_basis(_A3, alcove.BasisChoice(word), alcove.BasisChoice(())),
}


@pytest.mark.parametrize("bad", [1.0, 2.5, "1", None, True])
@pytest.mark.parametrize("name", list(_WORD_CALLS))
def test_a_letter_that_is_no_int_gets_the_simple_index_message(name, bad):
    with pytest.raises(ValueError) as excinfo:
        _WORD_CALLS[name]((2, bad, 1))
    assert str(excinfo.value) == f"{bad!r} is not a simple-root index in 1..3"


def test_a_letter_of_an_int_subclass_is_applied_as_its_value():
    class Letter(int):
        pass

    assert rootsys.apply_letters(_A3, (Letter(1),), [1, 1, 1]) == rootsys.apply_letters(_A3, (1,), [1, 1, 1])


def test_a_word_that_is_not_iterable_keeps_its_type_error():
    with pytest.raises(TypeError, match="not iterable"):
        rootsys.apply_letters(_A3, 5, [1, 1, 1])
