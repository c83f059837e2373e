"""Cyclic rotations, permutation mass formulas, and Ct <-> A folding.

Three kinds of permutation appear: cyclic rotations of the affine A
index cycle, arbitrary permutations of {0..m} feeding the finite A
partial-sum mass formula, and palindromic permutations of {0..2l+1}
classifying the boundary-block masses of affine Ct.

`_half_masses` is the only place the partial-sum mass formula is summed,
on rows packed one int each; `finite_a_mass`, `sigma_f_ct` and every
chain target read it.  Each packs once, at the `_width` of a bound on its
coefficients (1 + 6 E^2 for a chain target on the generic rows, which
chain --verify sums on the rows packed for its fold and compares packed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from typing import Iterator, Optional, Sequence

from .algebra import (AFFINE_A, AFFINE_CT, AlgebraSpec, LinForm, MassVector,
                      _form, _int_rows, _Rows)
from .action import (Word, _generic_rows, _growth, _kernel_rows, _letter,
                     _letters, _Lifts, _neighbours, _pack, _peaks, _unpack)
from .cartan import ConsecutiveSet
from .errors import DomainError, EvaluationError, SymmetryError


def _block(J: ConsecutiveSet, spec: AlgebraSpec) -> list[int]:
    """J's elements, which must not cover the whole index set; only
    affine A has wrap-around blocks."""
    if J.wrap and spec.family != AFFINE_A:
        raise DomainError("affine Ct has no wrap-around blocks")
    idx = J.indices(spec.n)
    if len(idx) >= spec.size:
        raise DomainError("block must be a proper subset of the index set")
    return idx


def _star_rows(rows: Sequence[int], lifts: Sequence[int], spec: AlgebraSpec,
               idx: Sequence[int]) -> Iterator[int]:
    """Per s in idx, the packed row of 2 mu*_s = 2 w_s - sum_t k_st
    sigma_t from packed entry rows and lifts: what R_s adds to entry s."""
    nbrs = _neighbours(spec)
    for s in idx:
        yield _letter(rows, s - 1, nbrs, lifts) - rows[s - 1]


def _width(e: int, m: int, l: int = 0, g: int = 0) -> int:
    """A slot width b with |c| < 2^(b-1) for each c of a row at most m plus
    the masses of e shifted weights (lifts at most l, g the `_growth`) or,
    if l = g = 0, of e rows: a summand is at most S = l + (g + 1) m, and a
    mass adds e prefix differences of e summands, so |c| <= m + e^2 S."""
    return (m + e * e * (l + (g + 1) * m)).bit_length() + 1


def mu_star(v: MassVector) -> list[LinForm]:
    """Shifted weights mu*_s = mu_s - (1/2) sum_t k_{st} sigma_t."""
    (d, mu, s), rows, lifts = _kernel_rows(v)
    b = _width(1, *_peaks(rows, lifts), _growth(v.spec))
    stars = _star_rows(_pack(map(enumerate, rows), b), _pack(lifts, b),
                       v.spec, v.spec.indices)
    return [_form(row, (2 * d, mu, s))
            for row in _unpack(stars, b, len(rows[0]))]


@dataclass(frozen=True)
class CyclicRotation:
    """The rotation of I = {1..n+1} sending position 1 to value r."""

    r: int

    def apply(self, i: int, n: int) -> int:
        return (self.r - 1 + i - 1) % (n + 1) + 1

    def invert(self, i: int, n: int) -> int:
        return (i - self.r) % (n + 1) + 1


def _rotation(rot: CyclicRotation, spec: AlgebraSpec) -> list[int]:
    """f(1), ..., f(n+1), once rot is checked to rotate spec's cycle."""
    if spec.family != AFFINE_A:
        raise DomainError("rotations are an affine A diagram symmetry")
    n = spec.n
    if not 1 <= rot.r <= n + 1:
        raise DomainError("rotation offset %d outside 1..%d" % (rot.r, n + 1))
    return [rot.apply(i, n) for i in spec.indices]


def rotate_vector(v: MassVector, rot: CyclicRotation) -> MassVector:
    """Entry i of the output is entry f(i) of the input."""
    return MassVector(v.spec,
                      tuple(v.entry(j) for j in _rotation(rot, v.spec)))


def rotation_covariance(word: Word, rot: CyclicRotation,
                        spec: AlgebraSpec) -> Word:
    """Relabel a word letterwise through the inverse rotation.

    The relabeled word, applied to zero under the rotated weights
    mu'_i = mu_{f(i)}, reproduces the rotation of the original word's
    result.
    """
    _rotation(rot, spec)
    # reversed, so the letters are checked, and come back, in word order
    letters = _letters(Word(word.letters[::-1]), spec)
    return Word(tuple(rot.invert(i + 1, spec.n) for i in letters))


def rotated_weights(rot: CyclicRotation, spec: AlgebraSpec) -> list[LinForm]:
    """The weight overlay mu'_i = mu_{f(i)} as forms."""
    return [LinForm.weight(j) for j in _rotation(rot, spec)]


@dataclass(frozen=True)
class FinitePermutation:
    """A bijection of {0, 1, ..., m}, stored as its value tuple."""

    values: tuple[int, ...]

    def __post_init__(self):
        m = len(self.values) - 1
        if sorted(self.values) != list(range(m + 1)):
            raise DomainError("not a permutation of 0..%d: %r"
                              % (m, self.values))

    def __call__(self, j: int) -> int:
        return self.values[j]

    @property
    def top(self) -> int:
        return len(self.values) - 1


def _half_masses(f: Sequence[int], rows: Sequence[int],
                 count: int) -> list[int]:
    """Half the first ``count`` partial-sum masses of the permutation with
    values f over packed rows: row i-1 is sum_{l<i} (P[f[l]] - P[l]), P[j]
    the sum of rows[:j]."""
    P = list(accumulate(rows, initial=0))
    return list(accumulate(P[f[j]] - P[j] for j in range(count)))


def finite_a_mass(f: FinitePermutation,
                  weights: Sequence[LinForm]) -> list[LinForm]:
    """Partial-sum masses of a finite A system from a permutation.

    With f on {0..m} and weights w_1..w_m, entry i (1-based) is

        2 * sum_{l=0}^{i-1} ( sum_{j<=f(l)} w_j  -  sum_{j<=l} w_j ).

    The prefix sums run on the weights' integer rows, packed once.
    """
    m = len(weights)
    if f.top != m:
        raise DomainError("permutation must act on 0..%d" % m)
    layout, rows, _ = _int_rows(weights)
    # twice the half masses of rows at most M: the masses of rows at most 2M
    b, width = _width(m, 2 * _peaks(rows)[0]), sum(map(len, layout[1:])) + 1
    masses = _half_masses(f.values, _pack(map(enumerate, rows), b), m)
    return [_form(row, layout)
            for row in _unpack([2 * x for x in masses], b, width)]


def _block_rows(rows: _Rows, lifts: _Lifts, spec: AlgebraSpec,
                J: ConsecutiveSet, f: Optional[FinitePermutation] = None,
                packing: Optional[tuple] = None) -> tuple:
    """({s: entry row s plus its gain} for s in J packed, the same
    decoded): the partial-sum masses of f (by default the longest element)
    over J's shifted weights, mirror-extended on a head or tail block of
    affine Ct, summed on ``packing`` (`_packing` of these rows and lifts),
    whose slots must hold their `_width`, or without one on the rows
    packed at that width."""
    order = ext = _block(J, spec)
    if spec.family == AFFINE_CT and not J.is_interior(spec.n):
        # J in the order its entries take the masses, then mirrored
        order = order[::-1] if J.is_head(spec.n) else order
        ext = order + order[-2::-1]
    b = _width(len(ext), *(packing[4:] if packing else _peaks(rows, lifts)),
               _growth(spec))
    if packing and b > packing[3]:
        raise DomainError("block targets need %d-bit slots, the packing "
                          "has %d" % (b, packing[3]))
    packed, packed_lifts, b = (*packing[:2], packing[3]) if packing else (
        _pack(map(enumerate, rows), b), _pack(lifts, b), b)
    stars = dict(zip(order, _star_rows(packed, packed_lifts, spec, order)))
    f = f.values if f else range(len(ext), -1, -1)
    gains = _half_masses(f, [stars[s] for s in ext], len(order))
    new = {s: packed[s - 1] + g for s, g in zip(order, gains)}
    return new, dict(zip(new, _unpack(new.values(), b, len(rows[0]))))


def _block_masses(v: MassVector, J: ConsecutiveSet,
                  f: Optional[FinitePermutation] = None) -> MassVector:
    """v with each entry s in J written once from its target row."""
    layout, rows, lifts = _kernel_rows(v)
    new = _block_rows(rows, lifts, v.spec, J, f)[1]
    return MassVector(v.spec, tuple(_form(new[s], layout) if s in new else e
                                    for s, e in enumerate(v.entries, 1)))


@cache
def _formats(spec: AlgebraSpec) -> tuple[str, ...]:
    """Column formats of a form's text in the generic layout (d = 1)."""
    _, mu, s = _generic_rows(spec)[0]
    return ("%d",) + tuple("%%d*mu_%d" % i for i in mu) \
        + tuple("%%d*s_%d" % i for i in s)


def _generic_text(spec: AlgebraSpec, new: dict) -> str:
    """str(MassVector.generic(spec)) with entry s the form of row new[s] in
    the generic layout, written straight from the ints."""
    formats = _formats(spec)
    return "(%s)" % ", ".join([
        " + ".join([f % c for f, c in zip(formats, new[s]) if c]) or "0"
        if s in new else "1*s_%d" % s for s in spec.indices])


@dataclass(frozen=True)
class SPermC(FinitePermutation):
    """A permutation of {0..2l+1} with f(j) + f(2l+1-j) = 2l+1."""

    def __post_init__(self):
        top = len(self.values) - 1
        if len(self.values) % 2 or sorted(self.values) != list(range(top + 1)):
            raise DomainError("not a permutation of 0..2l+1: %r"
                              % (self.values,))
        for j in range(top + 1):
            if self.values[j] + self.values[top - j] != top:
                raise DomainError("palindromic constraint fails at j=%d" % j)

    @property
    def l(self) -> int:
        return len(self.values) // 2 - 1

    @staticmethod
    def identity(l: int) -> "SPermC":
        return SPermC(tuple(range(2 * l + 2)))

    @staticmethod
    def reversal(l: int) -> "SPermC":
        return SPermC(tuple(range(2 * l + 1, -1, -1)))

    def compose(self, other: "SPermC") -> "SPermC":
        """self after other: (self . other)(j) = self(other(j))."""
        if self.l != other.l:
            raise DomainError("cannot compose permutations of 0..%d and 0..%d"
                              % (self.top, other.top))
        return SPermC(tuple(self.values[other.values[j]]
                            for j in range(len(self.values))))


def sc_simple(i: int, l: int) -> SPermC:
    """The i-th simple palindromic involution of {0..2l+1}, 0 <= i <= l."""
    if not 0 <= i <= l:
        raise DomainError("simple index %d outside 0..%d" % (i, l))
    # swaps i, i+1 and their mirrors 2l-i, 2l+1-i, the same pair at i = l
    vals = list(range(2 * l + 2))
    for j in (i, 2 * l - i):
        vals[j], vals[j + 1] = j + 1, j
    return SPermC(tuple(vals))


def sigma_f_ct(v: MassVector, f: SPermC, J: ConsecutiveSet) -> MassVector:
    """Permutation masses on a boundary block of affine Ct.

    Entries inside the head block {1..l0+1} (or tail block {i0..n+1})
    gain the partial-sum masses of f over the shifted weights
    mu-bar_t = mu_t - (1/2) sum_s k_{ts} sigma_s, read through the
    block's mirror extension; entries outside J are unchanged.
    """
    spec = v.spec
    if spec.family != AFFINE_CT:
        raise DomainError("sigma_f_ct needs an affine Ct spec")
    _block(J, spec)
    if f.l != J.length:
        raise DomainError("permutation acts on 0..%d, block needs 0..%d"
                          % (2 * f.l + 1, 2 * J.length + 1))
    if J.is_interior(spec.n):
        raise DomainError("interior blocks have no boundary mass formula")
    return _block_masses(v, J, f)


def fold_ct_to_a(v: MassVector,
                 weights: Optional[Sequence[LinForm]] = None
                 ) -> tuple[MassVector, list[LinForm]]:
    """Mirror a rank-n Ct vector into a rank-(2n-1) affine A vector.

    Entry i of the output is entry min(i, 2n+2-i) of the input; the
    returned weight overlay folds the same way, so the output's Pohozaev
    residual should be taken against those weights.
    """
    if v.spec.family != AFFINE_CT:
        raise DomainError("folding starts from an affine Ct vector")
    n = v.spec.n
    if weights is None:
        weights = [LinForm.weight(i) for i in v.spec.indices]
    elif len(weights) < v.spec.size:
        raise EvaluationError("expected %d weights, got %d"
                              % (v.spec.size, len(weights)))
    src = [min(i, 2 * n + 2 - i) for i in range(1, 2 * n + 1)]
    return (MassVector(AlgebraSpec(AFFINE_A, 2 * n - 1),
                       tuple(v.entry(i) for i in src)),
            [weights[i - 1] for i in src])


def unfold_a_to_ct(w: MassVector) -> MassVector:
    """Invert the fold; requires the mirror symmetry w_i = w_{2n+2-i}."""
    if w.spec.family != AFFINE_A:
        raise DomainError("unfolding starts from an affine A vector")
    if w.spec.n % 2 == 0:
        raise DomainError("unfolding needs an odd affine A rank 2n-1")
    n = (w.spec.n + 1) // 2
    for i in range(2, n + 1):
        if w.entry(i) != w.entry(2 * n + 2 - i):
            raise SymmetryError("entries %d and %d differ" % (i, 2 * n + 2 - i))
    spec_ct = AlgebraSpec(AFFINE_CT, n)
    return MassVector(spec_ct, tuple(w.entry(i) for i in range(1, n + 2)))
