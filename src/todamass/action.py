"""Generator action on mass vectors, words, relations, Pohozaev residuals.

A generator with index i replaces entry i of the vector by

    2*mu_i - sum_t k_{it} sigma_t + sigma_i

where k is the Cartan matrix of the vector's family, and leaves every
other entry alone.  Words are applied right to left: the last letter of
the tuple acts first, so a word reads like the usual product notation
R_{i_s} ... R_{i_1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Iterable, Optional, Sequence

from .algebra import AFFINE_A, AlgebraSpec, LinForm, MassVector, Scalar
from .cartan import CartanMatrix, build
from .errors import DomainError, EvaluationError


@dataclass(frozen=True)
class Word:
    letters: tuple[int, ...] = ()

    @staticmethod
    def of(*letters: int) -> "Word":
        return Word(tuple(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        """Concatenation in product order: (self * other) applies other first."""
        return Word(self.letters + other.letters)

    def power(self, k: int) -> "Word":
        return Word(self.letters * k)

    def __str__(self) -> str:
        return "[" + " ".join(str(i) for i in self.letters) + "]"


@cache
def family_matrix(spec: AlgebraSpec) -> CartanMatrix:
    return build(spec.family, spec.size)


@cache
def _default_weights(spec: AlgebraSpec) -> tuple[LinForm, ...]:
    return tuple(LinForm.weight(i) for i in spec.indices)


def apply_generator(i: int, v: MassVector,
                    weights: Optional[Sequence[LinForm]] = None) -> MassVector:
    """Apply the reflection with index i to v.

    ``weights`` optionally replaces the symbolic weights: entry t is the
    form standing in for mu_{t+1}.  The default is the plain mu basis.
    """
    spec = v.spec
    if not 1 <= i <= spec.size:
        raise DomainError("generator index %d outside 1..%d" % (i, spec.size))
    row = family_matrix(spec).entries[i - 1]
    w_i = weights[i - 1] if weights is not None else LinForm.weight(i)
    return v.replace(i, LinForm.combine(
        [(2, w_i), (1, v.entries[i - 1])]
        + [(-c, e) for c, e in zip(row, v.entries)]))


def apply_word(w: Word, v: MassVector,
               weights: Optional[Sequence[LinForm]] = None) -> MassVector:
    """Right-to-left fold of apply_generator over the word's letters."""
    for i in reversed(w.letters):
        v = apply_generator(i, v, weights)
    return v


def presentation_relations(spec: AlgebraSpec) -> list[tuple[str, Word]]:
    """All defining relations of the family, as words equal to the identity.

    Generators are involutions, so each relation u = v is encoded as the
    single word u * v^{-1} (which here is just u * v reversed).
    """
    n = spec.n
    rels: list[tuple[str, Word]] = []
    for i in spec.indices:
        rels.append(("R%d^2" % i, Word.of(i, i)))
    if spec.family == AFFINE_A:
        for i in spec.indices:
            for j in spec.indices:
                if i >= j:
                    continue
                d = j - i
                if d in (1, n):
                    rels.append(("(R%dR%d)^3" % (i, j),
                                 Word.of(i, j).power(3)))
                    # braid R_i R_j R_i = R_j R_i R_j, moved to one side
                    rels.append(("braid(%d,%d)" % (i, j),
                                 Word.of(i, j, i) * Word.of(j, i, j)))
                elif 1 < d < n:
                    rels.append(("(R%dR%d)^2" % (i, j),
                                 Word.of(i, j).power(2)))
    else:
        for i in spec.indices:
            for j in spec.indices:
                if i >= j:
                    continue
                d = j - i
                if 1 < d <= n:
                    rels.append(("(R%dR%d)^2" % (i, j),
                                 Word.of(i, j).power(2)))
                elif d == 1 and 2 <= i and j <= n:
                    rels.append(("braid(%d,%d)" % (i, j),
                                 Word.of(i, j, i) * Word.of(j, i, j)))
        rels.append(("(R2R1)^4", Word.of(2, 1).power(4)))
        rels.append(("(R%dR%d)^4" % (n, n + 1), Word.of(n, n + 1).power(4)))
    return rels


def verify_relation(w: Word, spec: AlgebraSpec) -> bool:
    """True iff w acts as the identity on the fully generic vector."""
    g = MassVector.generic(spec)
    return apply_word(w, g) == g


Monomial = tuple[int, ...]  # () constant, (i,) mu_i, (i, j) mu_i*mu_j, i<=j


@dataclass(frozen=True)
class QuadPoly:
    """Exact polynomial of degree <= 2 in the mu indeterminates."""

    terms: tuple[tuple[Monomial, Fraction], ...] = ()

    @staticmethod
    def from_dict(d: dict[Monomial, Fraction]) -> "QuadPoly":
        return QuadPoly(tuple(sorted((m, c) for m, c in d.items() if c)))

    def as_dict(self) -> dict[Monomial, Fraction]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @staticmethod
    def of_products(
            terms: Iterable[tuple[Scalar, LinForm, LinForm]]) -> "QuadPoly":
        """The sum of k * a * b over (k, a, b) triples of mu-only forms.

        The products are summed on integers over one common denominator,
        the lcm of every coefficient's and every k's, and divided once.
        """
        terms = list(terms)
        d, offset, rows = _int_rows([f for _, a, b in terms for f in (a, b)],
                                    [k for k, _, _ in terms])
        return _quad([(int(k * d), rows[2 * t], rows[2 * t + 1])
                      for t, (k, _, _) in enumerate(terms)], offset, d ** 3)

    def scale(self, k: Scalar) -> "QuadPoly":
        return QuadPoly.from_dict({m: c * k for m, c in self.terms})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.terms:
            name = "*".join("mu_%d" % i for i in m)
            bits.append(str(c) if not m else "%s*%s" % (c, name))
        return " + ".join(bits)


_IntRow = list[int]


def _int_rows(forms: Sequence[LinForm], scalars: Iterable[Scalar] = ()
              ) -> tuple[int, int, list[_IntRow]]:
    """(d, offset, rows): each mu-only form times d as a dense integer row.

    d is the lcm of every denominator among the forms' coefficients and
    the scalars.  A row holds the constant at position 0 and the
    coefficient of mu_i at position i + offset; the offset is 0 unless
    some form mentions an index below 1.
    """
    dens = {Fraction(k).denominator for k in scalars}
    lo = top = 1
    for f in forms:
        if f.s:
            raise EvaluationError("generic s-indeterminates present; "
                                  "evaluate them before forming residuals")
        if f.mu:
            lo = min(lo, f.mu[0][0])
            top = max(top, f.mu[-1][0])
            dens.update(c.denominator for _, c in f.mu)
        dens.add(f.const.denominator)
    d = lcm(*dens)
    offset = 1 - lo
    rows = []
    for f in forms:
        row = [0] * (top + offset + 1)
        if f.const:
            row[0] = f.const.numerator * (d // f.const.denominator)
        for i, c in f.mu:
            row[i + offset] = c.numerator * (d // c.denominator)
        rows.append(row)
    return d, offset, rows


def _quad(products: Sequence[tuple[int, _IntRow, _IntRow]], offset: int,
          denom: int) -> QuadPoly:
    """The sum of k * a * b over integer-row (k, a, b), divided by denom."""
    if not products:
        return QuadPoly()
    width = len(products[0][1])
    acc = [[0] * width for _ in range(width)]
    for k, a, b in products:
        nz = [(q, y) for q, y in enumerate(b) if y]
        for p, x in enumerate(a):
            if x:
                x *= k
                out = acc[p]
                for q, y in nz:
                    out[q] += x * y
    names = [()] + [(p - offset,) for p in range(1, width)]
    terms = {}
    for p in range(width):
        row = acc[p]
        for q in range(p, width):
            c = row[q] + acc[q][p] if q != p else row[p]
            if c:
                terms[names[p] + names[q]] = Fraction(c, denom)
    return QuadPoly.from_dict(terms)


def linform_product(a: LinForm, b: LinForm) -> QuadPoly:
    """Exact product of two mu-only linear forms."""
    return QuadPoly.of_products([(1, a, b)])


def _residual_rows(v: MassVector, weights: Optional[Sequence[LinForm]]
                   ) -> tuple[int, int, list[_IntRow], list[_IntRow]]:
    """(d, offset, entry rows, weight rows) over one common denominator."""
    size = v.spec.size
    # only the first n+1 weights take part, as entries' partners
    w = (tuple(weights)[:size] if weights is not None
         else _default_weights(v.spec))
    d, offset, rows = _int_rows(v.entries + w)
    return d, offset, rows[:size], rows[size:]


def _minus(a: _IntRow, b: _IntRow) -> _IntRow:
    return [x - y for x, y in zip(a, b)]


def pohozaev_residual(v: MassVector,
                      weights: Optional[Sequence[LinForm]] = None) -> QuadPoly:
    """The quadratic constraint residual; identically zero on the orbit.

    Affine A:  sum_i s_i^2 - sum_i s_i s_{i+1} - 2 sum_i mu_i s_i  (cyclic)
    Affine Ct: sum_{i<=n} (s_i - s_{i+1})^2
               - 2 (mu_1 s_1 + 2 sum_{2<=i<=n} mu_i s_i + mu_{n+1} s_{n+1})

    ``weights`` optionally substitutes forms for the plain mu_i, which is
    what the folding map needs.  The entries and weights are read once
    as integer rows over their common denominator, as in
    `QuadPoly.of_products`.
    """
    spec = v.spec
    d, offset, e, w = _residual_rows(v, weights)
    if spec.family == AFFINE_A:
        # s_i^2 - s_i s_{i+1} = s_i (s_i - s_{i+1})
        products = [(1, a, _minus(a, b)) for a, b in zip(e, e[1:] + e[:1])]
        products += [(-2, w[i], e[i]) for i in range(spec.size)]
    else:
        products = [(1, diff, diff) for diff in map(_minus, e, e[1:])]
        # the pairing weighs the two end entries once and the others twice
        products += [(-2 if i in (0, spec.n) else -4, w[i], e[i])
                     for i in range(spec.size)]
    return _quad(products, offset, d * d)


def pohozaev_residual_cyclic_difference(
        v: MassVector,
        weights: Optional[Sequence[LinForm]] = None) -> QuadPoly:
    """Affine A residual in the squared-difference form.

    sum_i (s_i - s_{i+1})^2 - 4 sum_i mu_i s_i, cyclic in i.  This equals
    exactly twice the band-form residual and is the shape the folding
    argument compares against.
    """
    spec = v.spec
    if spec.family != AFFINE_A:
        raise EvaluationError("difference form is specific to affine A")
    d, offset, e, w = _residual_rows(v, weights)
    products = [(1, diff, diff) for diff in map(_minus, e, e[1:] + e[:1])]
    products += [(-4, w[i], e[i]) for i in range(spec.size)]
    return _quad(products, offset, d * d)
