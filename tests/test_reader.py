"""Differential tests: the integer-row vector reader against the reader
it replaced.

`MassVector.from_json` reads vector JSON straight into integer rows
(`algebra._read_rows`): a vector whose entries all hold ASCII-integer
strings and no s term is read in bulk (`algebra._bulk_row`), any other
field by field, an integral ASCII coefficient string by int(), every
other string through Fraction().  The oracle below is the reader as it
was, which parsed every coefficient through Fraction() and built one
`LinForm` per entry.  On every text both must give the same vector, or
raise the same exception type with the same message; on a valid text
the rows must be those `_int_rows` reads from the vector.
"""

import json
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from todamass.algebra import (FAMILIES, AlgebraSpec, LinForm, MassVector,
                              _bulk_row, _int_rows, _read_rows)
from todamass.errors import FormatError, TodamassError


# -- oracle: the reader as it was ------------------------------------------

def old_frac_from_str(text):
    if not isinstance(text, str):
        raise FormatError("rational must be a string, got %r" % (text,))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError("bad rational %r" % (text,)) from exc


def old_linform_from_json(obj, size):
    if not isinstance(obj, dict):
        raise FormatError("entry must be an object, got %r" % (obj,))
    const = old_frac_from_str(obj.get("const", "0"))

    def coeffs(key):
        raw = obj.get(key, {})
        if not isinstance(raw, dict):
            raise FormatError("%r must be an object" % (key,))
        out = {}
        for k, v in raw.items():
            try:
                idx = int(k)
            except (TypeError, ValueError) as exc:
                raise FormatError("bad index %r" % (k,)) from exc
            if not 1 <= idx <= size:
                raise FormatError("index %d outside 1..%d" % (idx, size))
            out[idx] = old_frac_from_str(v)
        return tuple(sorted((i, c) for i, c in out.items() if c))

    return LinForm(const, coeffs("mu"), coeffs("s"))


def old_from_json_dict(obj):
    if not isinstance(obj, dict):
        raise FormatError("top-level JSON must be an object")
    for key in ("family", "n", "entries"):
        if key not in obj:
            raise FormatError("missing field %r" % key)
    if not isinstance(obj["n"], int) or isinstance(obj["n"], bool):
        raise FormatError("field 'n' must be an integer")
    if obj["family"] not in FAMILIES:
        raise FormatError("unknown family %r" % (obj["family"],))
    spec = AlgebraSpec(obj["family"], obj["n"])
    raw = obj["entries"]
    if not isinstance(raw, list):
        raise FormatError("field 'entries' must be a list")
    if len(raw) != spec.size:
        raise FormatError("expected %d entries, got %d"
                          % (spec.size, len(raw)))
    return MassVector(spec, tuple(old_linform_from_json(e, spec.size)
                                  for e in raw))


def old_from_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("invalid JSON: %s" % exc) from exc
    return old_from_json_dict(obj)


def outcome(read, text):
    """read(text), or the type and message of the package error it raised."""
    try:
        return read(text)
    except TodamassError as exc:
        return type(exc), str(exc)


def assert_same_reading(text):
    want = outcome(old_from_json, text)
    got = outcome(MassVector.from_json, text)
    assert got == want, text
    rows = outcome(_read_rows, text)
    if isinstance(want, MassVector):
        assert rows == (want.spec, *_int_rows(want.entries, None)), text
    else:
        assert rows == want, text


# -- strategies --------------------------------------------------------------

# strings on both sides of the int() shortcut, which only ASCII digits
# after a minus sign take.  Fraction() reads " 3", "+3", "3.0", "1e2" and
# the Arabic-Indic "٣" (and "1_0" from Python 3.11 on); neither it nor
# int() reads the superscript "²", though "²".isdigit() is true
SPECIAL = ["0", "-0", "00", "-00", "7", "-12", "1/0", "0/0", "-", "", "--2",
           "-+2", " 3", "3 ", "\n3", "+3", "1_0", "3.0", ".5", "1e2", "1E-1",
           "٣", "١/٢", "²", "３", "4/2", "-6/4",
           "1/-2", "x", "nan", "inf", "0x10", "9" * 5000, "-" + "9" * 40]
coefficients = st.one_of(
    st.integers(-30, 30).map(str),
    st.fractions(min_value=-20, max_value=20, max_denominator=9).map(str),
    st.sampled_from(SPECIAL),
    st.text(alphabet="0123456789-+/._e ٣²", max_size=5),
    st.one_of(st.integers(-3, 3), st.none(), st.booleans(),
              st.just(1.5), st.just([]), st.just({})))
index_keys = st.one_of(
    st.integers(-1, 7).map(str),
    st.sampled_from(["01", "001", " 1", "+1", "1_0", "١", "²",
                     "x", "", "1.0"]))
coeff_maps = st.one_of(
    st.dictionaries(index_keys, coefficients, max_size=5),
    st.sampled_from([[], "x", 3, None]))
entries = st.one_of(
    st.fixed_dictionaries({}, optional={"const": coefficients,
                                        "mu": coeff_maps, "s": coeff_maps}),
    st.sampled_from([[], 3, "x", None]))
ranks = st.one_of(st.integers(-1, 6),
                  st.sampled_from([True, False, "2", 2.0, None]))


@st.composite
def vector_texts(draw):
    family = draw(st.sampled_from(["affine_a", "affine_ct", "affine_b"]))
    n = draw(ranks)
    size = n + 1 if isinstance(n, int) and 1 <= n <= 6 else 3
    count = draw(st.sampled_from([size, size, size, size - 1, size + 1]))
    obj = {"family": family, "n": n,
           "entries": draw(st.lists(entries, min_size=count,
                                    max_size=count))}
    for key in draw(st.lists(st.sampled_from(["family", "n", "entries"]),
                             max_size=1)):
        del obj[key]
    if draw(st.integers(0, 19)) == 0:
        obj["entries"] = draw(st.sampled_from([{}, "x", None]))
    text = json.dumps(obj)
    if draw(st.integers(0, 19)) == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def dense_vector(family, values, bench_order):
    """Vector JSON of integral entries, each with const, mu and s fields,
    as the benchmark writes it (mu keys in index order, every value) or
    as `MassVector.to_json` does (sorted keys, nonzero values only)."""
    size = len(values)
    if bench_order:
        return {"family": family, "n": size - 1, "entries": [
            {"const": "0", "mu": {str(j): str(c) for j, c in
                                  enumerate(row, 1)}, "s": {}}
            for row in values]}
    return json.loads(MassVector(AlgebraSpec(family, size - 1), tuple(
        LinForm.make(mu=dict(enumerate(row, 1))) for row in values)).to_json())


def perturbed(obj, kind, at, choice):
    """obj with one change of the given kind in entry ``at``, ``choice``
    picking among the kind's `VARIANTS`."""
    entry = obj["entries"][at]
    mu = entry["mu"]
    first = next(iter(mu), "1")
    if kind == "comma":
        mu[first] = "1,2"
    elif kind == "order":
        entry["mu"] = dict(reversed(list(mu.items())))
    elif kind == "repeat":
        pair = [("1", "4"), ("01", "-3")]
        entry["mu"] = dict(pair[::-1] if choice % 2 else pair, **{
            k: c for k, c in mu.items() if k != "1"})
    elif kind == "keys":
        entry["mu"] = {(" 1", "+1", "١")[choice % 3] if k == first else k: c
                       for k, c in mu.items()} or {"+1": "2"}
    elif kind == "zero-s":
        entry["s"] = {"1": "0"}
    elif kind == "const":
        entry["const"] = ("-0", "00", "7")[choice % 3]
    elif kind == "value":
        mu[first] = ("6/3", "1_0")[choice % 2]
    elif kind == "entry":
        obj["entries"][at] = ([], 3, "x", None)[choice % 4]
    return obj


# the changes that keep a dense vector on the bulk read, the others, and
# how many variants each change has
BULK_KINDS = ("order", "repeat", "keys", "const")
FIELD_KINDS = ("comma", "zero-s", "value", "entry")
VARIANTS = {"repeat": 2, "keys": 3, "const": 3, "value": 2, "entry": 4}


@st.composite
def dense_texts(draw):
    """A dense, valid, all-integral vector with at most one change."""
    family = draw(st.sampled_from(["affine_a", "affine_ct"]))
    size = draw(st.integers(3, 9))
    values = draw(st.lists(st.lists(st.integers(-40, 40), min_size=size,
                                    max_size=size),
                           min_size=size, max_size=size))
    obj = dense_vector(family, values, draw(st.booleans()))
    kind = draw(st.sampled_from((None,) + BULK_KINDS + FIELD_KINDS))
    if kind:
        obj = perturbed(obj, kind, draw(st.integers(0, size - 1)),
                        draw(st.integers(0, 11)))
    return json.dumps(obj, indent=draw(st.sampled_from([None, 2])))


def read_in_bulk(text):
    """Whether `_read_rows` takes the bulk read: it asks `_bulk_row` for
    every entry and gets a row each time."""
    rows = []

    def spy(entry, size):
        rows.append(_bulk_row(entry, size))
        return rows[-1]
    with mock.patch("todamass.algebra._bulk_row", spy):
        outcome(_read_rows, text)
    return bool(rows) and None not in rows


# a dense vector of each family as each writer writes it, and each variant
# of each change, in the first or the last entry of one of them
DENSE = [json.dumps(dense_vector(family, [[3 * i - 2 * j + k for j in
                                           range(4)] for i in range(4)],
                                 bench_order))
         for k, family in enumerate(("affine_a", "affine_ct"))
         for bench_order in (True, False)]
DENSE_CHANGED = [
    (json.dumps(perturbed(json.loads(DENSE[k % 4]), kind, k % 2 * 3, v)),
     kind in BULK_KINDS)
    for k, (kind, v) in enumerate((kind, v) for kind in BULK_KINDS
                                  + FIELD_KINDS
                                  for v in range(VARIANTS.get(kind, 1)))]


@settings(max_examples=400, deadline=None)
@given(st.one_of(vector_texts(), dense_texts()))
def test_reader_matches_the_fraction_reader(text):
    assert_same_reading(text)


@given(st.lists(coefficients, min_size=1, max_size=4))
def test_coefficient_strings_read_as_fraction_reads_them(coeffs):
    for c in coeffs:
        # with an s term field by field; without, in bulk where c is an
        # ASCII integer
        for entry in ({"const": c, "mu": {"1": c, "3": c}, "s": {"2": c}},
                      {"const": c, "mu": {"1": c, "3": c}}):
            assert_same_reading(json.dumps({"family": "affine_ct", "n": 2,
                                            "entries": [entry, {}, {}]}))


def test_dense_vectors_take_both_reads():
    # unchanged, or with keys reordered, repeated or written " 1", "+1" or
    # "١", or with const "-0", "00" or "7", a dense vector is read in
    # bulk; a comma in a value, an s term, "6/3" or "1_0", or an entry
    # not an object sends it field by field
    for text in DENSE:
        assert read_in_bulk(text), text
    for text, bulk in DENSE_CHANGED:
        assert read_in_bulk(text) == bulk, text


@pytest.mark.parametrize("text", [
    # a repeated index: the later key wins, also when it is zero
    '{"family":"affine_a","n":2,"entries":[{"mu":{"1":"2","01":"0"}},{},{}]}',
    '{"family":"affine_a","n":2,"entries":[{"mu":{"1":"0","01":"2"}},{},{}]}',
    '{"family":"affine_a","n":2,"entries":[{"s":{"1":"1/3","01":"0"}},{},{}]}',
    '{"family":"affine_a","n":2,"entries":[{"mu":{"1":"x","01":"2"}},{},{}]}',
    # a key written twice in the text: json keeps the later value
    '{"family":"affine_a","n":2,"entries":[{"mu":{"1":"2","1":"1/4"}},{},{}]}',
    '{"family":"affine_a","n":2,"n":3,"entries":[{},{},{}]}',
    # the first failing field in entry order is the one reported
    '{"family":"affine_a","n":2,"entries":[{"mu":{"1":"x"}},'
    '{"mu":{"9":"1"}},{}]}',
    '{"family":"affine_a","n":2,"entries":[{"s":{"9":"1"}},{"const":"x"},{}]}',
    '{"family":"affine_a","n":2,"entries":[{"const":"x","mu":{"9":"1"}},'
    '{},{}]}',
    '{"family":"affine_a","n":2,"entries":[{"mu":{"x":"1/0"}},{},{}]}',
    # the int() shortcut keeps the denominators of the other strings
    '{"family":"affine_ct","n":2,"entries":[{"mu":{"1":"3/6"}},'
    '{"const":"-0","s":{"3":"4"}},{"mu":{"2":"10/4","3":"7"}}]}',
    # dense integral vectors, unchanged or with one change each
    *DENSE, *[text for text, _ in DENSE_CHANGED],
])
def test_reader_edge_cases(text):
    assert_same_reading(text)


def test_underscore_digits_read_as_fraction_reads_them():
    # "1_0" is a valid Fraction string from Python 3.11 on and an error
    # before; either way it never takes the int() shortcut
    text = ('{"family":"affine_a","n":2,"entries":[{"mu":{"1":"1_0"}},'
            '{},{}]}')
    assert_same_reading(text)
    if sys.version_info >= (3, 11):
        assert MassVector.from_json(text).entries[0] == LinForm.weight(1, 10)
    else:
        with pytest.raises(FormatError, match="bad rational '1_0'"):
            MassVector.from_json(text)
