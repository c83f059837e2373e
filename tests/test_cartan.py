from fractions import Fraction

import pytest

from todamass.cartan import (FINITE_A, CartanMatrix, ConsecutiveSet, build,
                             inverse, inverse_finite_a, inverse_submatrix,
                             principal_submatrix)
from todamass.errors import DomainError, RankError, SingularError


def matmul(a: CartanMatrix, b: CartanMatrix) -> CartanMatrix:
    assert a.size == b.size
    k = a.size
    rows = tuple(tuple(sum((a.entries[i][t] * b.entries[t][j]
                            for t in range(k)), Fraction(0))
                       for j in range(k)) for i in range(k))
    return CartanMatrix(a.family, k, rows)


def identity_matrix(size: int) -> CartanMatrix:
    return CartanMatrix(FINITE_A, size,
                        tuple(tuple(Fraction(int(i == j)) for j in range(size))
                              for i in range(size)))


def _as_ints(m):
    return [[int(x) for x in row] for row in m.entries]


def test_affine_a_size3():
    m = build("affine_a", 3)
    assert _as_ints(m) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_affine_ct_size3():
    m = build("affine_ct", 3)
    assert _as_ints(m) == [[2, -2, 0], [-1, 2, -1], [0, -2, 2]]


def test_finite_families():
    assert _as_ints(build("finite_a", 1)) == [[2]]
    assert _as_ints(build("finite_a", 3)) == [[2, -1, 0], [-1, 2, -1],
                                              [0, -1, 2]]
    b = build("finite_b", 3)
    assert b[2, 3] == -2 and b[3, 2] == -1
    c = build("finite_c", 3)
    assert c[3, 2] == -2 and c[2, 3] == -1


def test_build_rank_errors():
    with pytest.raises(RankError):
        build("affine_a", 2)
    with pytest.raises(RankError):
        build("finite_b", 1)
    with pytest.raises(DomainError):
        build("finite_e", 6)


def test_affine_a_is_circulant():
    for size in (3, 4, 6):
        m = build("affine_a", size)
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                i2 = i % size + 1
                j2 = j % size + 1
                assert m[i, j] == m[i2, j2]


def test_inverse_finite_a_closed_form():
    assert inverse_finite_a(1).entries == ((Fraction(1, 2),),)
    m = inverse_finite_a(3)
    assert m[1, 2] == Fraction(1, 2)
    assert m[1, 3] == Fraction(1, 4)
    # cross-check the formula against direct elimination
    for l in range(1, 8):
        assert inverse_finite_a(l).entries == inverse(build("finite_a", l)).entries


def test_inverse_finite_a_identities():
    # row/column sum identities of the closed-form inverse, all n <= 12
    for n in range(1, 13):
        a = inverse_finite_a(n)
        for i in range(1, n + 1):
            assert a[i, 1] + a[i, n] == 1
            assert a[1, i] + a[n, i] == 1
            for j in range(1, n + 1):
                assert a[i, j] == a[j, i]


def test_inverse_roundtrip():
    for family, size in (("finite_a", 4), ("finite_b", 4), ("finite_c", 5),
                         ("affine_ct", 4)):
        m = build(family, size)
        try:
            mi = inverse(m)
        except SingularError:
            continue
        assert matmul(m, mi).entries == identity_matrix(size).entries


def test_affine_a_matrix_is_singular():
    with pytest.raises(SingularError):
        inverse(build("affine_a", 4))


def test_consecutive_set_indices():
    assert ConsecutiveSet(2, 2).indices(4) == [2, 3, 4]
    assert ConsecutiveSet(4, 2, wrap=True).indices(4) == [4, 5, 1]
    with pytest.raises(DomainError):
        ConsecutiveSet(4, 3).indices(4)
    with pytest.raises(DomainError):
        # r1 = r2 - 1 is consecutive, not a wrap shape
        ConsecutiveSet(3, 4, wrap=True).indices(4)


def test_head_tail_interior():
    J = ConsecutiveSet(1, 2)
    assert J.is_head(4) and not J.is_tail(4) and not J.is_interior(4)
    T = ConsecutiveSet(3, 2)
    assert T.is_tail(4) and not T.is_interior(4)
    M = ConsecutiveSet(2, 1)
    assert M.is_interior(4)


def test_principal_submatrix_examples():
    a4 = build("affine_a", 5)  # n = 4
    sub = principal_submatrix(a4, ConsecutiveSet(1, 1))
    assert _as_ints(sub) == [[2, -1], [-1, 2]]
    wrap = principal_submatrix(a4, ConsecutiveSet(4, 2, wrap=True))
    assert _as_ints(wrap) == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    ct = build("affine_ct", 4)  # n = 3
    tail = principal_submatrix(ct, ConsecutiveSet(3, 1))
    assert _as_ints(tail) == [[2, -1], [-2, 2]]


def test_submatrix_must_be_proper():
    m = build("affine_a", 3)
    with pytest.raises(DomainError):
        principal_submatrix(m, ConsecutiveSet(1, 2))


def test_inverse_submatrix_examples():
    a = build("affine_a", 4)
    assert inverse_submatrix(a, ConsecutiveSet(1, 0)).entries == \
        ((Fraction(1, 2),),)
    two = inverse_submatrix(a, ConsecutiveSet(1, 1))
    assert two.entries == ((Fraction(2, 3), Fraction(1, 3)),
                           (Fraction(1, 3), Fraction(2, 3)))
    ct = build("affine_ct", 3)
    k = inverse_submatrix(ct, ConsecutiveSet(2, 1))
    assert k.entries == ((Fraction(1), Fraction(1, 2)),
                         (Fraction(1), Fraction(1)))


def test_interior_submatrices_are_finite_a():
    for n in range(2, 7):
        a = build("affine_a", n + 1)
        ct = build("affine_ct", n + 1)
        for j in range(2, n + 1):
            for l in range(0, n - j + 1):
                J = ConsecutiveSet(j, l)
                want = build("finite_a", l + 1).entries
                assert principal_submatrix(a, J).entries == want
                assert principal_submatrix(ct, J).entries == want
