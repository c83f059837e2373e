"""Cyclic rotations, permutation mass formulas, and Ct <-> A folding.

Three kinds of permutation appear: cyclic rotations of the affine A
index cycle, arbitrary permutations of {0..m} feeding the finite A
partial-sum mass formula, and palindromic permutations of {0..2l+1}
classifying the boundary-block masses of affine Ct.

`_half_masses` is the only place the partial-sum mass formula is summed,
on rows packed one int each; `finite_a_mass`, `sigma_f_ct` and every
chain target read it.  Each packs once, by `action._packing` at the mass
rule's width (chain --verify: at its fold's, which holds it too).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import cache
from itertools import accumulate

from .algebra import (AFFINE_A, AFFINE_CT, AlgebraSpec, LinForm, MassVector,
                      _form, _int_rows)
from .action import (Word, _generic_rows, _growth, _kernel_rows, _letter,
                     _letters, _neighbours, _packing, _peaks, _unpack, _width)
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


def _extension(J: ConsecutiveSet, spec: AlgebraSpec) -> tuple[list, list]:
    """(order, ext): `_block`'s J in the order its entries take the masses,
    and that order mirror-extended on a head or tail block of affine Ct."""
    order = ext = _block(J, spec)
    if spec.family == AFFINE_CT and not J.is_interior(spec.n):
        order = order[::-1] if J.is_head(spec.n) else order
        ext = order + order[-2::-1]
    return order, ext


def _star_rows(packing: tuple, spec: AlgebraSpec,
               idx: Sequence[int]) -> Iterator[int]:
    """Per s in idx, the packed row of 2 mu*_s = 2 w_s - sum_t k_st
    sigma_t from ``packing``'s rows and lifts: what R_s adds to entry s."""
    nbrs, rows, lifts = _neighbours(spec), packing[0], packing[1]
    for s in idx:
        yield _letter(rows, s - 1, nbrs, lifts) - rows[s - 1]


def mu_star(v: MassVector) -> list[LinForm]:
    """Shifted weights mu*_s = mu_s - (1/2) sum_t k_{st} sigma_t."""
    (d, mu, s), rows, lifts = _kernel_rows(v)
    packing = _packing(rows, lifts,
                       _width(1, *_peaks(rows, lifts), _growth(v.spec)))
    return [_form(row, (2 * d, mu, s)) for row in _unpack(
        _star_rows(packing, v.spec, v.spec.indices), packing)]


class CyclicRotation(namedtuple("CyclicRotation", "r")):
    """The rotation of I = {1..n+1} sending position 1 to value r."""

    __slots__ = ()

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


class FinitePermutation(namedtuple("FinitePermutation", "values")):
    """A bijection of {0, 1, ..., m}, stored as its value tuple."""

    __slots__ = ()

    def __new__(cls, values: tuple[int, ...]):
        cls._check(values)
        return super().__new__(cls, values)

    @staticmethod
    def _check(values) -> None:
        m = len(values) - 1
        if sorted(values) != list(range(m + 1)):
            raise DomainError("not a permutation of 0..%d: %r" % (m, values))

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
    packing = _packing(rows, (), _width(m, 2 * _peaks(rows)[0]))
    masses = _half_masses(f.values, packing[0], m)
    return [_form(row, layout)
            for row in _unpack([2 * x for x in masses], packing)]


def _block_rows(packing: tuple, spec: AlgebraSpec, extension: tuple,
                f: FinitePermutation | None = None) -> tuple:
    """({s: entry row s plus its gain} for s in J packed, the same
    decoded): the partial-sum masses of f (by default the longest element)
    over J's shifted weights in the order of ``extension``, J's
    `_extension`, summed on ``packing`` (entry rows and lifts at slots
    that hold `_width` of ext's length)."""
    order, ext = extension
    stars = dict(zip(order, _star_rows(packing, spec, order)))
    f = f.values if f else range(len(ext), -1, -1)
    gains = _half_masses(f, [stars[s] for s in ext], len(order))
    new = {s: packing[0][s - 1] + g for s, g in zip(order, gains)}
    return new, dict(zip(new, _unpack(new.values(), packing)))


def _block_masses(v: MassVector, extension: tuple,
                  f: FinitePermutation | None = None) -> MassVector:
    """v with each entry s in J written once from its target row, for
    ``extension`` J's `_extension`."""
    layout, rows, lifts = _kernel_rows(v)
    b = _width(len(extension[1]), *_peaks(rows, lifts), _growth(v.spec))
    new = _block_rows(_packing(rows, lifts, b), v.spec, extension, f)[1]
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


class SPermC(FinitePermutation):
    """A permutation of {0..2l+1} with f(j) + f(2l+1-j) = 2l+1."""

    __slots__ = ()

    @staticmethod
    def _check(values) -> None:
        top = len(values) - 1
        if len(values) % 2 or sorted(values) != list(range(top + 1)):
            raise DomainError("not a permutation of 0..2l+1: %r" % (values,))
        for j in range(top + 1):
            if values[j] + values[top - j] != top:
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
        values = self.values
        return SPermC(tuple([values[j] for j in other.values]))


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
    extension = _extension(J, spec)
    if f.l != J.length:
        raise DomainError("permutation acts on 0..%d, block needs 0..%d"
                          % (2 * f.l + 1, 2 * J.length + 1))
    if J.is_interior(spec.n):
        raise DomainError("interior blocks have no boundary mass formula")
    return _block_masses(v, extension, f)


def fold_ct_to_a(v: MassVector,
                 weights: Sequence[LinForm] | None = None
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
