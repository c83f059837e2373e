"""Generator action on mass vectors, words, relations, Pohozaev residuals.

A generator with index i replaces entry i of the vector by

    2*mu_i - sum_t k_{it} sigma_t + sigma_i

where k is the Cartan matrix of the vector's family, and leaves every
other entry alone.  Words are applied right to left: the last letter of
the tuple acts first, so a word reads like the usual product notation
R_{i_s} ... R_{i_1}.

Words, orbits and descents share one rule: a vector is read once into
integer rows over a common denominator, packed one int a row, each
letter updates one row (`_letter`, looped by `_fold`), and the result is
decoded and written back once.  `_packing` is the one packer: its caller
names the slot width by the fold rule (`_fold_width`) or the mass rule
(`_width`).  Packing and decoding touch every slot, which costs more
than a short word's letters at high rank.

`_fold` takes checked 0-based letters in acting order.  `_letters` checks
a word only where it enters (`apply_word`, `apply_generator` and
`verify_relation`); the words the code builds go unchecked (`_acting`).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from itertools import chain
from math import isqrt

from .algebra import (AFFINE_A, AlgebraSpec, LinForm, MassVector, Scalar,
                      _form, _int_rows, _Layout, _record, _Row, _Rows)
from .cartan import build
from .errors import DomainError, EvaluationError


class Word(_record("Word", "letters", defaults=((),))):
    """A word in the generators, its letters a tuple of indices; its
    length is the number of letters."""

    __slots__ = ()

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
        return "[" + " ".join(map(str, self.letters)) + "]"


# per generator i (0-based), the (t, k_it) with t != i and k_it != 0
_Neighbours = tuple[tuple[tuple[int, int], ...], ...]
# per generator i, the nonzero (column, value) pairs of the row of 2 w_i
_Lifts = tuple[tuple[tuple[int, int], ...], ...]


@cache
def _neighbours(spec: AlgebraSpec) -> _Neighbours:
    k = build(spec.family, spec.size)
    return tuple(tuple((t - 1, int(k[i, t])) for t in spec.indices
                       if t != i and k[i, t])
                 for i in spec.indices)


@cache
def _columns(spec: AlgebraSpec) -> tuple[dict[int, int], ...]:
    """Per generator i, {t: k_ti} over t != i with k_ti != 0: column i of
    the Cartan matrix, which in Ct differs from row i."""
    return tuple({t: k for t, nb in enumerate(_neighbours(spec))
                  for j, k in nb if j == i} for i in range(spec.size))


def _kernel_rows(v: MassVector, weights: Sequence[LinForm] | None = None
                 ) -> tuple[_Layout, _Rows, _Lifts]:
    """v's entry rows, and each weight's lift, for `_packing`."""
    layout, rows, w = _int_rows(v.entries, weights)
    return layout, tuple(rows), _lifts(w)


def _lifts(w: Sequence[_Row]) -> _Lifts:
    """Each weight row's lift: the nonzero (column, value) pairs of 2w."""
    return tuple(tuple((p, 2 * c) for p, c in enumerate(r) if c) for r in w)


def _letter(rows, i: int, nbrs: _Neighbours, lifts) -> int:
    """R_{i+1}'s new row i on rows and lifts packed one int each: row_i <-
    2 w_i - row_i - sum_{t != i} k_it row_t, lifts[i] the row of 2 w_i."""
    row = lifts[i] - rows[i]
    for t, k in nbrs[i]:
        row -= k * rows[t]
    return row


def apply_generator(i: int, v: MassVector,
                    weights: Sequence[LinForm] | None = None) -> MassVector:
    """Apply the reflection with index i to v: the one-letter word."""
    return apply_word(Word((i,)), v, weights)


def _letters(w: Word, spec: AlgebraSpec) -> list[int]:
    """The word's letters, 0-based, in the order they act (right to left)."""
    size = spec.size
    for i in reversed(w.letters):
        if type(i) is not int or not 1 <= i <= size:  # nor a bool
            raise DomainError("generator index %r outside 1..%d" % (i, size))
    return [i - 1 for i in reversed(w.letters)]


def _acting(w: Word) -> list[int]:
    """`_letters` of a word the code built itself, so left unchecked."""
    return [i - 1 for i in reversed(w.letters)]


def _packing(rows: _Rows, lifts: _Lifts, b: int) -> tuple:
    """(rows, lifts, b, width): each row, and each lift's (column, value)
    pairs, as one int, column p at bit b*p (Kronecker substitution), then
    b and the rows' width.  Packing is linear over Z, so only the final
    rows need fit."""
    packed = [tuple([sum(c << b * p for p, c in row if c) for row in pairs])
              for pairs in (map(enumerate, rows), lifts)]
    return (*packed, b, len(rows[0]) if rows else 0)


def _unpack(xs, packing: tuple) -> list[_Row]:
    """The rows of ``packing``'s width in the ints xs, exact where every
    |value| < 2^(b-1): lifted by 2^(b-1), a slot is 0..2^b-1."""
    b, width = packing[2:]
    half, mask, slots = 1 << b - 1, (1 << b) - 1, range(0, b * width, b)
    lift = ((1 << b * width) - 1) // mask << b - 1  # half in every slot
    return [tuple([(x >> p & mask) - half for p in slots])
            for x in [x + lift for x in xs]]


def _peaks(rows: _Rows, lifts: _Lifts = ()) -> tuple[int, int]:
    """The largest |entry| of the rows and of the lifts."""
    return (max(map(abs, chain.from_iterable(rows)), default=0),
            max((abs(c) for lift in lifts for _, c in lift), default=0))


@cache
def _growth(spec: AlgebraSpec) -> int:
    """g = 1 + max_i sum_{t != i} |k_it|, 3 for A and Ct."""
    return 1 + max(sum(abs(k) for _, k in nb) for nb in _neighbours(spec))


def _reach(spec: AlgebraSpec, length: int, m: int, l: int) -> int:
    """`_fold_width`'s bound P after ``length`` letters, roots rounded up."""
    L, n0 = length, isqrt(9 * spec.size * m * m) + 1
    return (m + L * l + isqrt(2 * (L * n0 + l * L * (L - 1)) ** 2) + 1
            + isqrt(spec.n * (n0 + 2 * L * l) ** 2) + 1)


def _fold_width(spec: AlgebraSpec, length: int, m: int, l: int) -> int:
    """The fold rule: two bits past P, the `_reach` of ``length`` letters
    on rows at most M = m with lifts at most l, so a difference fits.
    Proof of P: letter i maps a column x of the rows (x_t in row t) to
    s_i x + c e_i, where s_i x = x - (Kx)_i e_i and |c| <= l.
    q(x) = x^T D K x is s_i-invariant and positive semidefinite with
    kernel (1,...,1): sum_cyclic (x_i - x_{i+1})^2 for A, 2 sum_path
    (x_i - x_{i+1})^2 for Ct.  So N = sqrt(q) gains at most |c| sqrt(2 d_i)
    <= 2l a letter, from N_0 <= 3 sqrt(n+1) M; x_1 moves only under R_1,
    by at most l + sqrt(2) N; each |x_t - x_1| <= sqrt(n) N.  So within L
    letters no |x_t| passes M + L l + sqrt(2) (L N_0 + l L (L-1))
    + sqrt(n) (N_0 + 2 L l), quadratic in L."""
    return _reach(spec, length, m, l).bit_length() + 2


def _width(e: int, m: int, l: int = 0, g: int = 0) -> int:
    """The mass rule: a slot width b with |c| < 2^(b-1) for each c of a row
    at most m plus the masses of e shifted weights (lifts at most l, g the
    `_growth`) or, if l = g = 0, of e rows: a summand is at most S = l +
    (g + 1) m, and a mass adds e prefix differences of e summands, so |c|
    <= m + e^2 S."""
    return (m + e * e * (l + (g + 1) * m)).bit_length() + 1


def _fold(letters: list[int], spec: AlgebraSpec, packing: tuple) -> list[int]:
    """``packing``'s rows (at `_fold_width` for as many letters) after the
    checked 0-based letters in acting order, each a few big-int ops."""
    nbrs, rows, lifts = _neighbours(spec), list(packing[0]), packing[1]
    for i in letters:
        rows[i] = _letter(rows, i, nbrs, lifts)
    return rows


def _applied(letters, spec: AlgebraSpec, layout, rows, lifts) -> MassVector:
    """Rows in layout after the checked letters: packed, folded, decoded."""
    packing = _packing(rows, lifts,
                       _fold_width(spec, len(letters), *_peaks(rows, lifts)))
    return MassVector(spec, tuple(_form(row, layout) for row in _unpack(
        _fold(letters, spec, packing), packing)))


def apply_word(w: Word, v: MassVector,
               weights: Sequence[LinForm] | None = None) -> MassVector:
    """Apply the word's letters right to left, under optional weights.

    ``weights`` optionally replaces the plain mu basis: entry t is the
    form, on indices 1..n+1 only, standing in for mu_{t+1}.
    """
    layout, rows, lifts = _kernel_rows(v, weights)
    if weights is not None:  # refused before any letter, like a vector's
        MassVector(v.spec, tuple(weights[:v.spec.size]))
    return _applied(_letters(w, v.spec), v.spec, layout, rows, lifts)


def presentation_relations(spec: AlgebraSpec) -> list[tuple[str, Word]]:
    """All defining relations of the family, as words equal to the identity.

    Generators are involutions, so each relation u = v is encoded as the
    single word u * v^{-1} (which here is just u * v reversed).  R_i R_j
    has order 2, 3 (a braid) or 4 as k_ij k_ji is 0, 1 or 2; the order-4
    relations come last, each led by the letter i with k_ij = -1.
    """
    cols = _columns(spec)
    rels = [("R%d^2" % i, Word.of(i, i)) for i in spec.indices]
    fourth = []
    for i, col in enumerate(cols, 1):
        for j in range(i + 1, spec.size + 1):
            kji = col.get(j - 1)  # column i holds the k_ji
            if not kji:
                rels.append(("(R%dR%d)^2" % (i, j), Word.of(i, j).power(2)))
            elif kji * cols[j - 1][i - 1] == 1:
                if spec.family == AFFINE_A:
                    rels.append(("(R%dR%d)^3" % (i, j),
                                 Word.of(i, j).power(3)))
                rels.append(("braid(%d,%d)" % (i, j),
                             Word.of(i, j, i) * Word.of(j, i, j)))
            else:
                a, b = (j, i) if kji == -1 else (i, j)
                fourth.append(("(R%dR%d)^4" % (a, b),
                               Word.of(a, b).power(4)))
    return rels + fourth


@cache
def _generic_rows(spec: AlgebraSpec) -> tuple[_Layout, _Rows, _Lifts]:
    """The generic vector's `_kernel_rows`, read once per spec (tuples)."""
    return _kernel_rows(MassVector.generic(spec))


@cache
def _generic_packing(spec: AlgebraSpec, length: int) -> tuple:
    """`_packing` of the generic rows at the fold width for ``length``: the
    one packing of its width, shared by every length of that width."""
    _, rows, lifts = _generic_rows(spec)
    return _generic_packed(spec, _fold_width(spec, length,
                                             *_peaks(rows, lifts)))


@cache
def _generic_packed(spec: AlgebraSpec, b: int) -> tuple:
    """`_packing` of the generic rows at slot width b, built once."""
    _, rows, lifts = _generic_rows(spec)
    return _packing(rows, lifts, b)


def verify_relation(w: Word, spec: AlgebraSpec) -> bool:
    """True iff w acts as the identity on the fully generic vector."""
    packing = _generic_packing(spec, len(w))
    return tuple(_fold(_letters(w, spec), spec, packing)) == packing[0]


Monomial = tuple[int, ...]  # () constant, (i,) mu_i, (i, j) mu_i*mu_j, i<=j


class QuadPoly(_record("QuadPoly", "terms", defaults=((),))):
    """Exact polynomial of degree <= 2 in the mu indeterminates: terms is
    a sorted tuple of (Monomial, Fraction) pairs."""

    __slots__ = ()

    @staticmethod
    def from_dict(d: dict[Monomial, Fraction]) -> "QuadPoly":
        return QuadPoly(tuple(sorted((m, c) for m, c in d.items() if c)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

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


def _quad(products: Sequence[tuple[int, _Row, _Row]],
          layout: _Layout) -> QuadPoly:
    """The sum of k * a * b over integer-row (k, a, b), divided by d^2."""
    if layout[2]:
        raise EvaluationError("generic s-indeterminates present; "
                              "evaluate them before forming residuals")
    width, denom = len(layout[1]) + 1, layout[0] ** 2
    acc = [[0] * width for _ in range(width)]
    for k, a, b in products:
        nz = [(q, y) for q, y in enumerate(b) if y]
        for p, x in enumerate(a):
            if x:
                x *= k
                out = acc[p]
                for q, y in nz:
                    out[q] += x * y
    names = [()] + [(i,) for i in layout[1]]
    terms = {}
    for p in range(width):
        row = acc[p]
        for q in range(p, width):
            c = row[q] + acc[q][p] if q != p else row[p]
            if c:
                terms[names[p] + names[q]] = Fraction(c, denom)
    return QuadPoly.from_dict(terms)


def pohozaev_residual(v: MassVector,
                      weights: Sequence[LinForm] | None = None) -> QuadPoly:
    """The quadratic constraint residual; identically zero on the orbit.

    1/2 s^T D K s - 2 sum_i d_i mu_i s_i for both families, where K is
    the Cartan matrix and D its symmetriser.  ``weights`` optionally
    substitutes forms for the plain mu_i, which the folding map needs.
    """
    return _residual(v.spec, *_int_rows(v.entries, weights))


def _residual(spec: AlgebraSpec, layout: _Layout, e: Sequence[_Row],
              w: Sequence[_Row]) -> QuadPoly:
    """`pohozaev_residual` on entry rows e and weight rows w: the sum over
    i of d_i e_i (e_i - 2 w_i + sum_{t>i} k_it e_t), where d_1 = 1."""
    d, cols, products = 1, _columns(spec), []
    for i, nb in enumerate(_neighbours(spec)):
        if i:  # d_{i+1} = d_i k_{i,i+1} / k_{i+1,i}, so DK is symmetric
            d = d * cols[i][i - 1] // cols[i - 1][i]
        row = [a - 2 * b for a, b in zip(e[i], w[i])]
        for t, k in nb:
            if t > i:
                row = [a + k * b for a, b in zip(row, e[t])]
        products.append((d, e[i], row))
    return _quad(products, layout)


def pohozaev_residual_cyclic_difference(
        v: MassVector,
        weights: Sequence[LinForm] | None = None) -> QuadPoly:
    """Affine A residual in the squared-difference form.

    sum_i (s_i - s_{i+1})^2 - 4 sum_i mu_i s_i, cyclic in i: the shape
    the folding argument compares against, and twice `pohozaev_residual`.
    """
    if v.spec.family != AFFINE_A:
        raise EvaluationError("difference form is specific to affine A")
    return pohozaev_residual(v, weights).scale(2)
