"""Generalized and finite Cartan matrices, consecutive index sets, inverses.

All matrices are stored densely as tuples of tuples of Fractions so that
inverses are exact.  Families:

  affine_a   circulant (n+1)x(n+1), corner entries -1
  affine_ct  band (n+1)x(n+1) with -2 in rows 1 and n+1
  finite_a   tridiagonal 2/-1
  finite_b   tridiagonal with -2 at (m-1, m)
  finite_c   tridiagonal with -2 at (m, m-1)
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AFFINE_A, AFFINE_CT, _record
from .errors import DomainError, RankError, SingularError

FINITE_A = "finite_a"
FINITE_B = "finite_b"
FINITE_C = "finite_c"

MATRIX_FAMILIES = (AFFINE_A, AFFINE_CT, FINITE_A, FINITE_B, FINITE_C)


class CartanMatrix(_record("CartanMatrix", "family size entries")):
    """A size x size matrix of the family, its entries a tuple of rows of
    Fractions; m[i, j] reads them 1-based."""

    __slots__ = ()

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        """1-based entry access: m[i, j]."""
        i, j = ij
        return self.entries[i - 1][j - 1]


def _rows(size, entry) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(entry(i, j)) for j in range(1, size + 1))
                 for i in range(1, size + 1))


def build(family: str, size: int) -> CartanMatrix:
    """The Cartan matrix of the given family and size, exact integers."""
    if family not in MATRIX_FAMILIES:
        raise DomainError("unknown matrix family %r" % (family,))
    if family in (AFFINE_A, AFFINE_CT) and size < 3:
        raise RankError("affine families need size >= 3, got %d" % size)
    if family in (FINITE_B, FINITE_C) and size < 2:
        raise RankError("%s needs size >= 2, got %d" % (family, size))
    if family == FINITE_A and size < 1:
        raise RankError("finite_a needs size >= 1, got %d" % size)

    doubled = {AFFINE_CT: ((1, 2), (size, size - 1)),
               FINITE_B: ((size - 1, size),),
               FINITE_C: ((size, size - 1),)}.get(family, ())

    def entry(i, j):
        if i == j:
            return 2
        if (i, j) in doubled:
            return -2
        # neighbours on the path, and the two ends of the affine A cycle
        gap = abs(i - j)
        return -1 if gap == 1 or family == AFFINE_A and gap == size - 1 else 0

    return CartanMatrix(family, size, _rows(size, entry))


def inverse_finite_a(l: int) -> CartanMatrix:
    """Closed-form inverse of the finite A Cartan matrix of size l.

    Entry (i, j) is min(i,j) * (l+1 - max(i,j)) / (l+1).
    """
    if l < 1:
        raise RankError("size must be >= 1, got %d" % l)

    def entry(i, j):
        return Fraction(min(i, j) * (l + 1 - max(i, j)), l + 1)

    return CartanMatrix(FINITE_A, l, _rows(l, entry))


class ConsecutiveSet(_record("ConsecutiveSet", "start length wrap")):
    """The index block {j, j+1, ..., j+l}, possibly wrapping past n+1.

    ``start`` is j and ``length`` is l >= 0: the set has l+1 elements.
    Wrap sets (affine A only) list their elements in the order
    r2, r2+1, ..., n+1, 1, ..., r1; ``start`` is then r2 and the last
    element is r1 = start + length - (n+1).
    """

    __slots__ = ()

    def __new__(cls, start: int, length: int, wrap: bool = False):
        if type(start) is not int or type(length) is not int:  # nor a bool
            raise DomainError("start and length must be integers, got %r, %r"
                              % (start, length))
        if length < 0:
            raise DomainError("length parameter must be >= 0")
        if start < 1:
            raise DomainError("start index must be >= 1")
        return super().__new__(cls, start, length, wrap)

    @property
    def size(self) -> int:
        return self.length + 1

    def indices(self, n: int) -> list[int]:
        """The ordered element list inside I = {1..n+1}; validates shape."""
        top = n + 1
        if not self.wrap:
            if self.start + self.length > top:
                raise DomainError("set {%d..%d} exceeds index %d"
                                  % (self.start, self.start + self.length, top))
            return list(range(self.start, self.start + self.length + 1))
        r2 = self.start
        r1 = self.start + self.length - top
        if not (1 <= r1 < r2 - 1 <= n):
            raise DomainError("wrap set needs 1 <= r1 < r2-1 <= n, got "
                              "r1=%d r2=%d" % (r1, r2))
        return list(range(r2, top + 1)) + list(range(1, r1 + 1))

    def is_head(self, n: int) -> bool:
        return not self.wrap and self.start == 1

    def is_tail(self, n: int) -> bool:
        return not self.wrap and self.start + self.length == n + 1

    def is_interior(self, n: int) -> bool:
        return not self.wrap and self.start > 1 and self.start + self.length < n + 1


def principal_submatrix(m: CartanMatrix, J: ConsecutiveSet) -> CartanMatrix:
    """Restriction of m to the rows and columns of J, in J's listed order."""
    n = m.size - 1
    idx = J.indices(n)
    if len(idx) >= m.size:
        raise DomainError("index set must be a proper subset of I")
    rows = tuple(tuple(m[i, j] for j in idx) for i in idx)
    return CartanMatrix(m.family, len(idx), rows)


def inverse(m: CartanMatrix) -> CartanMatrix:
    """Exact inverse by Gaussian elimination over the rationals."""
    k = m.size
    aug = [list(m.entries[i]) + [Fraction(int(i == j)) for j in range(k)]
           for i in range(k)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            raise SingularError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    rows = tuple(tuple(aug[i][k:]) for i in range(k))
    return CartanMatrix(m.family, k, rows)


def inverse_submatrix(m: CartanMatrix, J: ConsecutiveSet) -> CartanMatrix:
    """Exact inverse of the principal submatrix of m at J.

    No chain target reads an inverse: each is a permutation mass.
    """
    return inverse(principal_submatrix(m, J))

