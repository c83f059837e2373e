"""The sixteen records are tuples: repr, hash, read-only fields, defaults,
every check their constructors make, also through `_make` and `_replace`,
and a launch that imports none of dataclasses, inspect or typing."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import todamass
from todamass import action, algebra, cartan, chains, orbit, perms
from todamass.algebra import AlgebraSpec, LinForm, MassVector
from todamass.action import QuadPoly, Word
from todamass.cartan import CartanMatrix, ConsecutiveSet
from todamass.chains import BlowupResult, ChainPlan, Decomposition
from todamass.errors import DomainError, RankError
from todamass.orbit import CoefficientMatrix, MembershipReport, OrbitNode
from todamass.perms import CyclicRotation, FinitePermutation, SPermC

A3 = AlgebraSpec("affine_a", 3)
CT2 = AlgebraSpec("affine_ct", 2)
HALF = LinForm(Fraction(1, 2), ((1, Fraction(2)),), ())
ZERO_CT2 = MassVector(CT2, (LinForm(),) * 3)
J = ConsecutiveSet(2, 0)
A3_TEXT = "AlgebraSpec(family='affine_a', n=3)"
CT2_TEXT = "AlgebraSpec(family='affine_ct', n=2)"
ZERO_TEXT = "LinForm(const=Fraction(0, 1), mu=(), s=())"
VECTOR_TEXT = "MassVector(spec=%s, entries=(%s))" % (
    CT2_TEXT, ", ".join([ZERO_TEXT] * 3))
J_TEXT = "ConsecutiveSet(start=2, length=0, wrap=False)"

# (record, its fields in order, its repr)
RECORDS = [
    (A3, ("affine_a", 3), A3_TEXT),
    (HALF, (Fraction(1, 2), ((1, Fraction(2)),), ()),
     "LinForm(const=Fraction(1, 2), mu=((1, Fraction(2, 1)),), s=())"),
    (ZERO_CT2, (CT2, (LinForm(),) * 3), VECTOR_TEXT),
    (Word((1, 2)), ((1, 2),), "Word(letters=(1, 2))"),
    (QuadPoly(((((1,), Fraction(-2)),))), ((((1,), Fraction(-2)),),),
     "QuadPoly(terms=(((1,), Fraction(-2, 1)),))"),
    (CartanMatrix("finite_a", 1, ((Fraction(2),),)),
     ("finite_a", 1, ((Fraction(2),),)),
     "CartanMatrix(family='finite_a', size=1, entries=((Fraction(2, 1),),))"),
    (J, (2, 0, False), J_TEXT),
    (ChainPlan(J, Word((2,)), "affine_a"), (J, Word((2,)), "affine_a"),
     "ChainPlan(target_set=%s, word=Word(letters=(2,)), family='affine_a')"
     % J_TEXT),
    (Decomposition(A3, "A-I", (J,), frozenset({1, 3, 4})),
     (A3, "A-I", (J,), frozenset({1, 3, 4})),
     "Decomposition(spec=%s, case_tag='A-I', blocks=(%s,), "
     "null_set=frozenset({1, 3, 4}))" % (A3_TEXT, J_TEXT)),
    (BlowupResult(ZERO_CT2, Word()), (ZERO_CT2, Word()),
     "BlowupResult(vector=%s, word=Word(letters=()))" % VECTOR_TEXT),
    (OrbitNode(ZERO_CT2, Word(), 0), (ZERO_CT2, Word(), 0),
     "OrbitNode(vector=%s, witness=Word(letters=()), level=0)"
     % VECTOR_TEXT),
    (CoefficientMatrix(((Fraction(1),),)), (((Fraction(1),),),),
     "CoefficientMatrix(entries=((Fraction(1, 1),),))"),
    (MembershipReport("member", True, True, Word((1,)), "", 1),
     ("member", True, True, Word((1,)), "", 1),
     "MembershipReport(verdict='member', pohozaev_ok=True, coeffs_ok=True, "
     "word=Word(letters=(1,)), reason='', steps=1)"),
    (CyclicRotation(2), (2,), "CyclicRotation(r=2)"),
    (FinitePermutation((1, 0, 2)), ((1, 0, 2),),
     "FinitePermutation(values=(1, 0, 2))"),
    (SPermC((1, 0)), ((1, 0),), "SPermC(values=(1, 0))"),
]


def test_every_record_is_listed():
    assert sorted(type(r).__name__ for r, _, _ in RECORDS) == sorted(
        name for m in (action, algebra, cartan, chains, orbit, perms)
        for name, value in vars(m).items() if not name.startswith("_")
        and isinstance(value, type) and value.__module__ == m.__name__)


@pytest.mark.parametrize("record, fields, text", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_record_repr_hash_and_fields(record, fields, text):
    assert repr(record) == text
    assert hash(record) == hash(tuple(fields))
    assert tuple(record) == fields and record == fields
    for made in (type(record)._make(fields), record._replace(),
                 record._replace(**dict(zip(record._fields, fields)))):
        assert type(made) is type(record) and made == record
    assert "%s" % (record,) == str(record)
    for name, value in zip(record._fields, fields):
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    if type(record) is not LinForm:  # a form's __dict__ holds its JSON
        with pytest.raises(AttributeError):
            record.extra = 0


def test_a_form_caches_its_json_in_its_dict():
    f = LinForm(Fraction(1, 2), ((1, Fraction(2)),), ())
    assert f.json_compact == '{"const":"1/2","mu":{"1":"2"},"s":{}}'
    assert vars(f) == {"json_compact": f.json_compact}


def test_defaults():
    assert LinForm() == (Fraction(0), (), ())
    assert Word() == ((),) and len(Word()) == 0
    assert QuadPoly() == ((),) and QuadPoly().is_zero
    assert ConsecutiveSet(1, 0) == ConsecutiveSet(start=1, length=0,
                                                  wrap=False)
    assert Decomposition(A3, "A-I", (J,)).null_set == frozenset()
    report = MembershipReport("member", True, True)
    assert (report.word, report.reason, report.steps) == (None, "", 0)


# (constructor, its arguments, the error it raises, the error's text)
REFUSED = [
    (AlgebraSpec, ("affine_b", 3), DomainError, "unknown family 'affine_b'"),
    (AlgebraSpec, ("affine_a", 1), RankError,
     "rank must be at least 2, got 1"),
    (MassVector, (A3, (LinForm(),) * 2), RankError,
     "expected 4 entries, got 2"),
    (MassVector, (CT2, (LinForm(mu=((4, Fraction(1)),)),) + ZERO_CT2[1][1:]),
     DomainError, "index 4 outside 1..3"),
    (MassVector, (CT2, (LinForm(s=((True, Fraction(1)),)),) + ZERO_CT2[1][1:]),
     DomainError, "index True outside 1..3"),
    (ConsecutiveSet, (1, -1), DomainError, "length parameter must be >= 0"),
    (ConsecutiveSet, (0, 1, True), DomainError, "start index must be >= 1"),
    # a set's bounds are ints, and not bools
    (ConsecutiveSet, (1.5, 1), DomainError,
     "start and length must be integers, got 1.5, 1"),
    (ConsecutiveSet, (True, 1), DomainError,
     "start and length must be integers, got True, 1"),
    (ConsecutiveSet, (2, 1.0), DomainError,
     "start and length must be integers, got 2, 1.0"),
    (FinitePermutation, ((0, 2),), DomainError,
     "not a permutation of 0..1: (0, 2)"),
    (SPermC, ((0, 1, 2),), DomainError,
     "not a permutation of 0..2l+1: (0, 1, 2)"),
    (SPermC, ((1, 0, 2, 3),), DomainError,
     "palindromic constraint fails at j=0"),
    # a repeated value, and a permutation that is not palindromic
    (SPermC, ((0, 0, 1, 1),), DomainError,
     "not a permutation of 0..2l+1: (0, 0, 1, 1)"),
    (SPermC, ((0, 2, 1, 3, 4, 5),), DomainError,
     "palindromic constraint fails at j=1"),
    # a permutation's values are ints, and not bools
    (FinitePermutation, ((1.0, 0),), DomainError,
     "not a permutation of 0..1: (1.0, 0)"),
    (SPermC, ((0.0, 1),), DomainError,
     "not a permutation of 0..2l+1: (0.0, 1)"),
    (SPermC, ((True, False),), DomainError,
     "not a permutation of 0..2l+1: (True, False)"),
]


@pytest.mark.parametrize("make, args, error, text", REFUSED)
def test_constructor_checks(make, args, error, text):
    """Positional, by keyword, through `_make` and through `_replace` on a
    valid record of the class."""
    valid = next(r for r, _, _ in RECORDS if type(r) is make)
    for call in (lambda: make(*args),
                 lambda: make(**dict(zip(make._fields, args))),
                 lambda: make._make(args),
                 lambda: valid._replace(**dict(zip(make._fields, args)))):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == text


def test_records_are_tuples():
    assert AlgebraSpec("affine_a", 3) == ("affine_a", 3)
    assert SPermC((1, 0)) == FinitePermutation((1, 0))
    spec, entries = ZERO_CT2
    assert (spec, entries) == (ZERO_CT2[0], ZERO_CT2[-1])
    # _replace and _make call the constructor, whatever a record's len
    assert Word((5,))._replace(letters=(3, 4)) == Word((3, 4))
    assert Word._make([(1, 2)]) == Word((1, 2))


def test_launch_imports_no_dataclasses_inspect_or_typing():
    # -S: no site, so no .pth file imports anything on the package's behalf
    src = os.path.dirname(os.path.dirname(todamass.__file__))
    code = ("import sys; sys.path.insert(0, %r); import todamass.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'typing'} "
            "& set(sys.modules)))" % src)
    child = subprocess.run([sys.executable, "-S", "-c", code],
                           capture_output=True, text=True, check=True)
    assert child.stdout == "\n"
