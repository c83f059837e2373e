import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from todamass.algebra import AlgebraSpec, LinForm, MassVector
from todamass.errors import (DomainError, EvaluationError, FormatError,
                             RankError)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
coeff_maps = st.dictionaries(st.integers(min_value=1, max_value=6), rationals,
                             max_size=4)
linforms = st.builds(LinForm.make, rationals, coeff_maps, coeff_maps)


def replaced(v, i, form):
    """v with entry i (cyclic for affine A) set to form."""
    i = v.spec.wrap(i)
    return MassVector(v.spec, v.entries[:i - 1] + (form,) + v.entries[i:])


def test_spec_validation():
    spec = AlgebraSpec("affine_a", 2)
    assert spec.size == 3
    assert list(spec.indices) == [1, 2, 3]
    with pytest.raises(RankError):
        AlgebraSpec("affine_a", 1)
    with pytest.raises(DomainError):
        AlgebraSpec("affine_b", 3)


def test_cyclic_wrap():
    a = AlgebraSpec("affine_a", 2)
    assert a.wrap(4) == 1
    assert a.wrap(0) == 3
    ct = AlgebraSpec("affine_ct", 2)
    assert ct.wrap(3) == 3
    with pytest.raises(DomainError):
        ct.wrap(4)


@pytest.mark.parametrize("index", ["a", "1", True, False, 1.0, None])
def test_make_rejects_an_index_that_is_not_an_int(index):
    for field in ("mu", "s"):
        with pytest.raises(DomainError, match="not an integer"):
            LinForm.make(**{field: {index: 1}})
        with pytest.raises(DomainError):
            LinForm.make(**{field: {2: 1, index: 2}})


def test_make_accepts_indices_at_and_below_zero():
    f = LinForm.make(mu={0: 1, -2: 3}, s={-1: 2})
    assert str(f) == "3*mu_-2 + 1*mu_0 + 2*s_-1"
    assert f.evaluate({0: 1, -2: 1}, {-1: 1}) == 6


def test_make_zero_and_generic():
    for family, n in (("affine_a", 2), ("affine_ct", 3), ("affine_a", 5)):
        spec = AlgebraSpec(family, n)
        z = MassVector.zero(spec)
        assert z.is_zero and len(z.entries) == n + 1
        g = MassVector.generic(spec)
        assert all(g.entry(i) == LinForm.seed(i) for i in spec.indices)


@given(linforms, linforms, linforms)
def test_addition_is_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + LinForm.zero() == a
    assert (a - a).is_zero


@given(linforms, linforms, rationals)
def test_scaling_distributes(a, b, r):
    assert (a + b).scale(r) == a.scale(r) + b.scale(r)


@given(linforms, linforms)
def test_evaluate_is_additive(a, b):
    mu = {i: Fraction(i, 3) for i in range(1, 7)}
    s = {i: Fraction(-i, 2) for i in range(1, 7)}
    assert (a + b).evaluate(mu, s) == a.evaluate(mu, s) + b.evaluate(mu, s)


def test_evaluate_requires_present_indeterminates():
    f = LinForm.make(0, {1: 2}, {3: 1})
    with pytest.raises(EvaluationError):
        f.evaluate({1: 1})
    assert f.evaluate({1: 1}, {3: 4}) == 6


def test_vector_evaluate():
    spec = AlgebraSpec("affine_a", 2)
    v = MassVector(spec, (LinForm.weight(1, 2), LinForm.zero(),
                          LinForm.zero()))
    assert v.evaluate([1, 1, 1]) == (2, 0, 0)
    g = MassVector.generic(spec)
    assert g.evaluate([7, 7, 7], [1, 2, 3]) == (1, 2, 3)
    w = MassVector(spec, (LinForm.make(0, {1: 2, 2: 2}),
                          LinForm.make(0, {2: 2}), LinForm.zero()))
    half = Fraction(1, 2)
    assert w.evaluate([half, half, 0]) == (2, 1, 0)


def test_canonical_key_matches_equality():
    spec = AlgebraSpec("affine_a", 2)
    a = MassVector(spec, (LinForm.make(0, {1: 2}), LinForm.zero(),
                          LinForm.zero()))
    b = MassVector(spec, (LinForm.make(0, {1: 1}) + LinForm.make(0, {1: 1}),
                          LinForm.zero(), LinForm.zero()))
    assert a == b and a.canonical_key() == b.canonical_key()
    c = replaced(a, 2, LinForm.weight(2))
    assert c.canonical_key() != a.canonical_key()


def test_json_round_trip():
    spec = AlgebraSpec("affine_ct", 3)
    v = MassVector(spec, (LinForm.make(Fraction(-1, 2), {1: 2}, {4: 3}),
                          LinForm.zero(), LinForm.weight(3),
                          LinForm.seed(2, Fraction(5, 7))))
    assert MassVector.from_json(v.to_json()) == v


# each malformed vector text with the message its FormatError (or, for
# a rank below 2, RankError) carries; the CLI prints it as one line
MALFORMED = [
    ("not json", FormatError,
     "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[]", FormatError, "top-level JSON must be an object"),
    ('{"family":"affine_a","n":2}', FormatError, "missing field 'entries'"),
    ('{"n":2,"entries":[]}', FormatError, "missing field 'family'"),
    ('{"family":"nope","n":2,"entries":[{},{},{}]}', FormatError,
     "unknown family 'nope'"),
    ('{"family":"affine_a","n":2,"entries":[{},{}]}', FormatError,
     "expected 3 entries, got 2"),
    ('{"family":"affine_a","n":2,"entries":{}}', FormatError,
     "field 'entries' must be a list"),
    ('{"family":"affine_a","n":2,"entries":[{"const":"x"},{},{}]}',
     FormatError, "bad rational 'x'"),
    ('{"family":"affine_a","n":2,"entries":[{"const":"1/0"},{},{}]}',
     FormatError, "bad rational '1/0'"),
    ('{"family":"affine_a","n":2,"entries":[{"const":2},{},{}]}',
     FormatError, "rational must be a string, got 2"),
    ('{"family":"affine_a","n":2,"entries":[{"mu":{"1":"\u00b2"}},{},{}]}',
     FormatError, "bad rational '\u00b2'"),
    ('{"family":"affine_a","n":2,"entries":[{"mu":{"0":"1"}},{},{}]}',
     FormatError, "index 0 outside 1..3"),
    ('{"family":"affine_a","n":2,"entries":[{"mu":{"x":"1"}},{},{}]}',
     FormatError, "bad index 'x'"),
    ('{"family":"affine_a","n":"2","entries":[{},{},{}]}', FormatError,
     "field 'n' must be an integer"),
    ('{"family":"affine_a","n":true,"entries":[{},{}]}', FormatError,
     "field 'n' must be an integer"),
    ('{"family":"affine_a","n":1,"entries":[{},{}]}', RankError,
     "rank must be at least 2, got 1"),
    ('{"family":"affine_a","n":2,"entries":[{"mu":{"99":"2"}},{},{}]}',
     FormatError, "index 99 outside 1..3"),
    ('{"family":"affine_a","n":2,"entries":[{},{"mu":{"4":"2"}},{}]}',
     FormatError, "index 4 outside 1..3"),
    ('{"family":"affine_a","n":2,"entries":[{},{},{"s":{"4":"1"}}]}',
     FormatError, "index 4 outside 1..3"),
    ('{"family":"affine_a","n":2,"entries":[{},[],{}]}', FormatError,
     "entry must be an object, got []"),
    ('{"family":"affine_a","n":2,"entries":[{"mu":[]},{},{}]}', FormatError,
     "'mu' must be an object"),
]


@pytest.mark.parametrize("text,error,message", MALFORMED,
                         ids=[text for text, _, _ in MALFORMED])
def test_malformed_json_rejected(text, error, message):
    with pytest.raises(error) as info:
        MassVector.from_json(text)
    assert type(info.value) is error and str(info.value) == message


def make_path_from_json(obj, size):
    """Entry parsing as it was: the parsed maps through `LinForm.make`."""

    def coeffs(key):
        return {int(k): Fraction(v) for k, v in obj.get(key, {}).items()}

    return LinForm.make(Fraction(obj.get("const", "0")), coeffs("mu"),
                        coeffs("s"))


# index keys as JSON writes them, and with a leading zero, which names
# the same index: the later key wins on both paths
index_keys = st.integers(1, 5).flatmap(
    lambda i: st.sampled_from([str(i), "0" + str(i)]))
coeff_texts = st.one_of(st.just("0"), st.just("-0"), rationals.map(str))
json_entries = st.fixed_dictionaries(
    {}, optional={"const": coeff_texts,
                  "mu": st.dictionaries(index_keys, coeff_texts, max_size=6),
                  "s": st.dictionaries(index_keys, coeff_texts, max_size=4)})


@given(json_entries)
def test_entry_parsing_matches_make_path(obj):
    text = json.dumps({"family": "affine_a", "n": 4,
                       "entries": [obj, {}, {}, {}, {}]})
    got = MassVector.from_json(text).entries[0]
    assert got == make_path_from_json(obj, 5)
    assert all(c for _, c in got.mu + got.s)
    assert [i for i, _ in got.mu] == sorted({i for i, _ in got.mu})
    assert [i for i, _ in got.s] == sorted({i for i, _ in got.s})


@pytest.mark.parametrize("field", ["mu", "s"])
@pytest.mark.parametrize("family,n", [("affine_a", 2), ("affine_ct", 3)])
def test_a_vector_holds_indices_1_to_n_plus_1_only(field, family, n):
    """An entry naming mu_i or s_i with i outside 1..n+1 (0 or n+2) is
    refused when the vector is built, as `from_json` refuses its JSON;
    indices 1 and n+1 build and round-trip."""
    spec = AlgebraSpec(family, n)
    rest = (LinForm.zero(),) * n
    for i in (0, n + 2):
        entry = LinForm.make(**{field: {1: 1, i: 2}})
        with pytest.raises(DomainError, match="^index %d outside 1..%d$"
                           % (i, n + 1)):
            MassVector(spec, rest + (entry,))
    v = MassVector(spec, (LinForm.make(**{field: {1: 1, n + 1: 2}}),) + rest)
    assert MassVector.from_json(v.to_json()) == v


@pytest.mark.parametrize("field", ["mu", "s"])
@pytest.mark.parametrize("pairs,bad", [
    (((1, 1), (0, 1), (2, 1)), 0), (((1, 1), (4, 1), (2, 1)), 4),
    (((1.5, 1),), 1.5), (((True, 1),), True), (((2, 1), ("1", 1)), "1")])
def test_a_vector_checks_every_index_of_a_hand_built_form(field, pairs,
                                                          bad):
    """A form built as LinForm(...) skips `make`: its pairs may be out of
    order, with a stray index between two good ones, or name an index that
    is not an int (1.5 would print as mu_1 and write the key "1.5").  The
    vector refuses every index that is not an int in 1..n+1."""
    spec = AlgebraSpec("affine_a", 2)
    entry = LinForm(**{field: pairs})
    with pytest.raises(DomainError, match="^index %s outside 1..3$"
                       % re.escape(repr(bad))):
        MassVector(spec, (LinForm.zero(),) * 2 + (entry,))


def test_a_weight_overlay_cannot_name_a_stray_index():
    """`apply_word` under weights naming mu_4 at rank 2 is refused before
    any letter, even where a letter would cancel it or none reads it, as
    letter-by-letter application is; a fourth weight is never read."""
    from todamass.action import Word, apply_generator, apply_word
    spec = AlgebraSpec("affine_a", 2)
    zero, plain = MassVector.zero(spec), [LinForm.weight(i) for i in (1, 2, 3)]
    for stray in (LinForm.weight(4), LinForm.make(s={0: 1})):
        weights = [stray] + plain[1:]
        for w in (Word.of(1), Word.of(1, 1), Word.of(2), Word()):
            with pytest.raises(DomainError, match="^index %d outside 1..3$"
                               % (stray.mu + stray.s)[0][0]):
                apply_word(w, zero, weights)
        with pytest.raises(DomainError, match="outside 1..3"):
            apply_generator(2, zero, weights)
    assert apply_word(Word.of(1, 2), zero, plain + [LinForm.weight(4)]) == \
        apply_word(Word.of(1, 2), zero)
