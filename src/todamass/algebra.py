"""Exact symbolic core: algebra descriptors, degree-one forms, mass vectors.

Every coefficient is a `fractions.Fraction`, so all arithmetic in the
package is exact.  A `LinForm` is an affine-linear expression

    const + sum_i c_i * mu_i + sum_i d_i * s_i

in the weight indeterminates mu_1..mu_{n+1} and the generic seed
indeterminates s_1..s_{n+1}.  A `MassVector` is a tuple of n+1 such
forms attached to an `AlgebraSpec`.  Vector JSON is read by one reader,
straight into the integer rows the kernels run on.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import lcm

from .errors import DomainError, EvaluationError, FormatError, RankError

Scalar = int | Fraction

AFFINE_A = "affine_a"
AFFINE_CT = "affine_ct"
FAMILIES = (AFFINE_A, AFFINE_CT)


class AlgebraSpec(namedtuple("AlgebraSpec", "family n")):
    """Which affine family we work in, and at which rank.

    The index set is always I = {1, ..., n+1}.  For family ``affine_a``
    index arithmetic on I is cyclic; for ``affine_ct`` it is not.
    """

    __slots__ = ()

    def __new__(cls, family: str, n: int):
        if family not in FAMILIES:
            raise DomainError("unknown family %r" % (family,))
        if n < 2:
            raise RankError("rank must be at least 2, got %d" % n)
        return super().__new__(cls, family, n)

    @property
    def size(self) -> int:
        return self.n + 1

    @property
    def indices(self) -> range:
        return range(1, self.n + 2)

    def wrap(self, i: int) -> int:
        """Reduce an integer to the index set, cyclically for affine A."""
        if self.family == AFFINE_A:
            return (i - 1) % (self.n + 1) + 1
        if not 1 <= i <= self.n + 1:
            raise DomainError("index %d outside 1..%d" % (i, self.n + 1))
        return i


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


def _clean(items: Iterable[tuple[int, Scalar]]) -> tuple[tuple[int, Fraction], ...]:
    """One nonzero coefficient per index, sorted; adds only on a repeat."""
    acc: dict[int, Fraction] = {}
    for idx, coeff in items:
        c = _as_fraction(coeff)
        acc[idx] = acc[idx] + c if idx in acc else c
    return tuple(sorted((i, c) for i, c in acc.items() if c))


# The form writer reads any object with const, mu and s fields: a `LinForm`
# or an `_Entry` of ints, as str(int) == str(Fraction(int)).  JSON keys come
# in string order ("10" before "2"), as json.dumps(..., sort_keys=True).
def _members(pairs, item: str) -> str:
    return ",".join([item % kv for kv in
                     sorted([(str(i), str(c)) for i, c in pairs])])


def _json_compact(f) -> str:
    """This form's JSON object, sorted keys, no whitespace."""
    return '{"const":"%s","mu":{%s},"s":{%s}}' % (
        f.const, _members(f.mu, '"%s":"%s"'), _members(f.s, '"%s":"%s"'))


def _json_indented(f) -> str:
    """This form's JSON object, sorted keys, indent 2."""
    mu, s = ["{%s\n  }" % _members(p, '\n    "%s": "%s"') if p else "{}"
             for p in (f.mu, f.s)]
    return '{\n  "const": "%s",\n  "mu": %s,\n  "s": %s\n}' % (f.const, mu, s)


def _form_text(f) -> str:
    parts = (["%s*mu_%d" % (c, i) for i, c in f.mu]
             + ["%s*s_%d" % (c, i) for i, c in f.s])
    return " + ".join([str(f.const)] + parts if f.const else parts) or "0"


def _form_value(f, mu: Mapping[int, Scalar] | None = None,
                s: Mapping[int, Scalar] | None = None) -> Fraction:
    """Evaluate at the given indeterminate values; EvaluationError unless
    every indeterminate that actually occurs has one."""
    total = f.const
    for name, pairs, at in (("mu", f.mu, mu or {}), ("s", f.s, s or {})):
        for i, c in pairs:
            if i not in at:
                raise EvaluationError("no value for %s_%d" % (name, i))
            total += c * _as_fraction(at[i])
    return total


def _scaled(at: Mapping[int, Fraction]) -> tuple[dict[int, int], int]:
    """({i: d mu_i}, d) for {i: mu_i}, d the lcm of their denominators."""
    d = lcm(*[x.denominator for x in at.values()])
    return {i: x.numerator * (d // x.denominator) for i, x in at.items()}, d


def _scaled_value(f, scaled: Mapping[int, int], d: int) -> Fraction:
    """`_form_value(f, mu)`, errors too, for (scaled, d) `_scaled(mu)`."""
    try:
        dot = sum([c * scaled[i] for i, c in f.mu])
    except KeyError as exc:
        raise EvaluationError("no value for mu_%d" % exc.args[0]) from None
    if f.s:
        raise EvaluationError("no value for s_%d" % f.s[0][0])
    return f.const + Fraction(dot, d)


class LinForm(namedtuple("LinForm", "const mu s",
                          defaults=(Fraction(0), (), ()))):
    """const + sum c_i mu_i + sum d_i s_i, coefficients exact rationals.

    Instances are immutable and hashable; the stored coefficient tuples
    are sorted by index with zero coefficients dropped, so structural
    equality is semantic equality.  The fields are const, a Fraction, and
    mu and s, tuples of (index, Fraction) pairs.  Unlike the other
    records, a form has a __dict__: it holds the cached JSON below.
    """

    @staticmethod
    def make(const: Scalar = 0,
             mu: Mapping[int, Scalar] | None = None,
             s: Mapping[int, Scalar] | None = None) -> "LinForm":
        mu, s = mu or {}, s or {}
        for i in (*mu, *s):
            if type(i) is not int:  # nor a bool
                raise DomainError("index %r is not an integer" % (i,))
        return LinForm(_as_fraction(const), _clean(mu.items()),
                       _clean(s.items()))

    @staticmethod
    def zero() -> "LinForm":
        return LinForm()

    @staticmethod
    def weight(i: int, coeff: Scalar = 1) -> "LinForm":
        """The form coeff * mu_i."""
        return LinForm.make(mu={i: coeff})

    @staticmethod
    def seed(i: int, coeff: Scalar = 1) -> "LinForm":
        """The form coeff * s_i."""
        return LinForm.make(s={i: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.const and not self.mu and not self.s

    @staticmethod
    def combine(terms: Iterable[tuple[Scalar, "LinForm"]]) -> "LinForm":
        """The sum of k * form over the (k, form) pairs, normalised once."""
        const = Fraction(0)
        mu: list[tuple[int, Fraction]] = []
        s: list[tuple[int, Fraction]] = []
        for k, f in terms:
            k = _as_fraction(k)
            if k:
                const += f.const * k
                mu += [(i, c * k) for i, c in f.mu]
                s += [(i, c * k) for i, c in f.s]
        return LinForm(const, _clean(mu), _clean(s))

    def __add__(self, other: "LinForm") -> "LinForm":
        return LinForm.combine(((1, self), (1, other)))

    def __sub__(self, other: "LinForm") -> "LinForm":
        return LinForm.combine(((1, self), (-1, other)))

    def scale(self, k: Scalar) -> "LinForm":
        return LinForm.combine(((k, self),))

    evaluate = _form_value
    __str__ = _form_text
    # Forms are immutable and vectors share them, so each form writes its
    # JSON object once: compact for canonical keys, at indent 2 on request.
    json_compact = cached_property(_json_compact)
    json_indented = cached_property(_json_indented)


def _linform_to_json(f: LinForm) -> dict:
    return {"const": str(f.const),
            "mu": {str(i): str(c) for i, c in f.mu},
            "s": {str(i): str(c) for i, c in f.s}}


# Forms are read as integer rows over one common denominator d.  A
# layout (d, mu, s) names the columns: column 0 holds d times the
# constant, then come d times the coefficients of the mu_i with i in mu,
# then of the s_i with i in s, each index tuple sorted.
_Layout = tuple[int, tuple[int, ...], tuple[int, ...]]
_Row = tuple[int, ...]
_Rows = tuple[_Row, ...]
# a form's fields as read or as ints, read like a `LinForm`
_Entry = namedtuple("_Entry", "const mu s")
# integers joined by commas, as `_bulk_row` joins an entry's values
_INTEGERS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def _int_rows(forms: Sequence[LinForm],
              weights: Sequence[LinForm] | None = None
              ) -> tuple[_Layout, list[_Row], list[_Row]]:
    """(layout, form rows, weight rows), every form read once.

    The layout has a column for each mu_i and s_i that occurs, and d is
    the lcm of every denominator among the forms and the weights.  Weight
    t stands for mu_{t+1}, and only the first m = len(forms) weights are
    read, fewer being an EvaluationError; None stands for mu_1..mu_m.  A
    form is read through its const, mu and s fields, so anything with
    those fields reads as one.
    """
    m = len(forms)
    if weights is not None and len(weights) < m:
        raise EvaluationError("expected %d weights, got %d"
                              % (m, len(weights)))
    read = [(f.const, f.mu, f.s) for f in
            list(forms) + ([] if weights is None else list(weights)[:m])]
    if weights is None:
        read += [(0, ((i, 1),), ()) for i in range(1, m + 1)]
    dens, mu, s = set(), set(), set()
    for const, f_mu, f_s in read:
        dens.add(const.denominator)
        for i, c in f_mu:
            mu.add(i)
            dens.add(c.denominator)
        for i, c in f_s:
            s.add(i)
            dens.add(c.denominator)
    d, mu, s = layout = (lcm(*dens), tuple(sorted(mu)), tuple(sorted(s)))
    at = {i: p for p, i in enumerate(mu, 1)}
    s_at = {i: p for p, i in enumerate(s, len(mu) + 1)}
    rows = []
    for const, f_mu, f_s in read:
        row = [0] * (len(mu) + len(s) + 1)
        row[0] = const.numerator * (d // const.denominator)
        for i, c in f_mu:
            row[at[i]] = c.numerator * (d // c.denominator)
        for i, c in f_s:
            row[s_at[i]] = c.numerator * (d // c.denominator)
        rows.append(tuple(row))
    return layout, rows[:m], rows[m:]


@lru_cache(maxsize=4096)
def _frac(c: int, d: int) -> Fraction:
    """Fraction(c, d), shared: rows repeat a few small coefficients."""
    return Fraction(c, d)


def _form(row: _Row, layout: _Layout) -> LinForm:
    """The form a row stands for in the layout."""
    d, mu, s = layout
    m = len(mu) + 1
    return LinForm(_frac(row[0], d),
                   tuple((i, _frac(c, d)) for i, c in zip(mu, row[1:m]) if c),
                   tuple((i, _frac(c, d)) for i, c in zip(s, row[m:]) if c))


def _entry(row: _Row, layout: _Layout) -> _Entry:
    """`_form` of a row in a layout with d = 1 and no s, as ints."""
    return _Entry(row[0], [(i, c) for i, c in zip(layout[1], row[1:]) if c],
                  ())


def _rational(text) -> Scalar:
    if not isinstance(text, str):
        raise FormatError("rational must be a string, got %r" % (text,))
    try:
        # int() reads ASCII digits after minus signs as Fraction() would
        # (more than one sign fails in both); all else goes to Fraction()
        if text.isascii() and text.lstrip("-").isdigit():
            return int(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError("bad rational %r" % (text,)) from exc


def _coeffs(entry: dict, key: str, size: int) -> list[tuple[int, Scalar]]:
    """An entry's nonzero mu or s coefficients by index; a repeated index
    (as "1" and "01") keeps its later value."""
    raw = entry.get(key, {})
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
        out[idx] = _rational(v)
    return [(i, c) for i, c in out.items() if c]


def _bulk_row(entry, size: int) -> _Row | None:
    """An entry's row, mu_i at column i, read in bulk; None where `_coeffs`
    must read it.  A repeated index keeps its later value, as there."""
    try:  # an entry not an object has no get(), a mu not one no values
        mu = entry.get("mu", {})
        text = ",".join([entry.get("const", "0"), *dict.values(mu)])
        idx = list(map(int, mu))
        # the count refuses a comma inside a value
        if (entry.get("s", {}) != {} or not _INTEGERS.fullmatch(text)
                or text.count(",") != len(idx)
                or idx and not 0 < min(idx) <= max(idx) <= size):
            return None
        const, *coeffs = map(int, text.split(","))
    except (AttributeError, TypeError, ValueError):  # or past int()'s limit
        return None
    row = [const] + [0] * size
    for i, c in zip(idx, coeffs):
        row[i] = c
    return tuple(row)


def _read_rows(text: str) -> tuple[AlgebraSpec, _Layout, list[_Row],
                                   list[_Row]]:
    """Vector JSON as (spec, layout, entry rows, weight rows), the rows
    `_int_rows(entries, None)` reads: by `_bulk_row` if it reads every
    entry, else field by field, integral strings by int(), not Fraction."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested past the parser's depth
        raise FormatError("invalid JSON: %s" % exc) from exc
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
    rows = [_bulk_row(e, spec.size) for e in raw]
    if None not in rows:  # in the layout (1, (1..n+1), ())
        return spec, (1, tuple(spec.indices), ()), rows, [
            (0,) * t + (1,) + (0,) * (spec.size - t) for t in spec.indices]
    entries = []
    for e in raw:
        if not isinstance(e, dict):
            raise FormatError("entry must be an object, got %r" % (e,))
        entries.append(_Entry(_rational(e.get("const", "0")),
                              _coeffs(e, "mu", spec.size),
                              _coeffs(e, "s", spec.size)))
    return (spec, *_int_rows(entries, None))


def _weight_map(spec: AlgebraSpec, mu_values) -> dict[int, Fraction]:
    """Weight values given by position (mu_1 first) as an index map."""
    if len(mu_values) != spec.size:
        raise EvaluationError("expected %d weight values, got %d"
                              % (spec.size, len(mu_values)))
    return {i + 1: _as_fraction(x) for i, x in enumerate(mu_values)}


class MassVector(namedtuple("MassVector", "spec entries")):
    """A vector of n+1 symbolic entries attached to an algebra."""

    __slots__ = ()

    def __new__(cls, spec: AlgebraSpec, entries: tuple[LinForm, ...]):
        size = spec.size
        if len(entries) != size:
            raise RankError("expected %d entries, got %d"
                            % (size, len(entries)))
        for e in entries:  # every index: a hand-built form's pairs
            for i, _ in e.mu + e.s:  # may be out of order, or not ints
                if type(i) is not int or not 0 < i <= size:  # nor a bool
                    raise DomainError("index %r outside 1..%d" % (i, size))
        return super().__new__(cls, spec, entries)

    @staticmethod
    def zero(spec: AlgebraSpec) -> "MassVector":
        return MassVector(spec, (LinForm.zero(),) * spec.size)

    @staticmethod
    @cache
    def generic(spec: AlgebraSpec) -> "MassVector":
        """Vector with fresh seed indeterminates: entry i equals s_i; built
        once per spec and shared."""
        return MassVector(spec, tuple(LinForm.seed(i) for i in spec.indices))

    def entry(self, i: int) -> LinForm:
        """Entry at 1-based index i (cyclic for affine A)."""
        return self.entries[self.spec.wrap(i) - 1]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def evaluate(self,
                 mu_values,
                 s_values=None) -> tuple[Fraction, ...]:
        """Evaluate every entry at numeric weights (and seeds, if present).

        ``mu_values`` / ``s_values`` are sequences indexed by position
        (value for mu_1 first).  Seeds are only required when some entry
        actually mentions an s-indeterminate.
        """
        mu = _weight_map(self.spec, mu_values)
        s = {}
        if s_values is not None:
            s = {i + 1: _as_fraction(x) for i, x in enumerate(s_values)}
        return tuple(e.evaluate(mu, s) for e in self.entries)

    def canonical_key(self) -> str:
        """Deterministic string key; equal vectors get equal keys."""
        # json.dumps(self.to_json_dict(), sort_keys=True,
        # separators=(",", ":")) byte for byte
        return '{"entries":[%s],"family":"%s","n":%d}' % (
            ",".join([e.json_compact for e in self.entries]),
            self.spec.family, self.spec.n)

    def to_json_dict(self) -> dict:
        return {"family": self.spec.family,
                "n": self.spec.n,
                "entries": [_linform_to_json(e) for e in self.entries]}

    def to_json(self, indent: int | None = None) -> str:
        """json.dumps(self.to_json_dict(), indent=indent, sort_keys=True);
        at indent 2 assembled from each entry's cached rendering."""
        if type(indent) is not int or indent != 2:
            return json.dumps(self.to_json_dict(), indent=indent,
                              sort_keys=True)
        entries = ",\n    ".join([e.json_indented.replace("\n", "\n    ")
                                   for e in self.entries])
        return ('{\n  "entries": [\n    %s\n  ],\n  "family": "%s",\n'
                '  "n": %d\n}' % (entries, self.spec.family, self.spec.n))

    @staticmethod
    def from_json(text: str) -> "MassVector":
        spec, layout, rows, _ = _read_rows(text)
        return MassVector(spec, tuple(_form(row, layout) for row in rows))

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"
