import random

import pytest

from todamass.algebra import AlgebraSpec, LinForm, MassVector
from todamass.action import (Word, apply_generator, apply_word,
                             pohozaev_residual,
                             pohozaev_residual_cyclic_difference)
from todamass.cartan import ConsecutiveSet
from todamass.chains import closed_form_ct
from todamass.errors import DomainError, EvaluationError, SymmetryError
from todamass.perms import (CyclicRotation, FinitePermutation, SPermC,
                            finite_a_mass, fold_ct_to_a, rotate_vector,
                            rotated_weights, rotation_covariance, sc_simple,
                            sigma_f_ct, unfold_a_to_ct)


def a_spec(n=2):
    return AlgebraSpec("affine_a", n)


def ct_spec(n=2):
    return AlgebraSpec("affine_ct", n)


def test_rotation_values():
    r = CyclicRotation(2)
    assert [r.apply(i, 2) for i in (1, 2, 3)] == [2, 3, 1]
    assert [r.invert(r.apply(i, 2), 2) for i in (1, 2, 3)] == [1, 2, 3]
    one = CyclicRotation(1)
    assert [one.apply(i, 4) for i in range(1, 6)] == [1, 2, 3, 4, 5]


def test_rotate_vector_example():
    v = MassVector(a_spec(), (LinForm.weight(1, 2), LinForm.zero(),
                              LinForm.zero()))
    assert rotate_vector(v, CyclicRotation(1)) == v
    rotated = rotate_vector(v, CyclicRotation(2))
    assert str(rotated) == "(0, 0, 2*mu_1)"
    # rotate by r then by its inverse offset
    n = 2
    inv = CyclicRotation((1 - 2) % (n + 1) + 1)
    assert rotate_vector(rotated, inv) == v


def test_rotate_rejects_ct():
    spec, rot = ct_spec(), CyclicRotation(2)
    calls = (lambda: rotate_vector(MassVector.zero(spec), rot),
             lambda: rotation_covariance(Word.of(1), rot, spec),
             lambda: rotated_weights(rot, spec))
    for call in calls:
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == "rotations are an affine A diagram symmetry"


def test_rotation_covariance_single_letter():
    spec = a_spec()
    rot = CyclicRotation(2)
    w = rotation_covariance(Word.of(1), rot, spec)
    assert w == Word.of(3)
    lhs = apply_word(w, MassVector.zero(spec),
                     weights=rotated_weights(rot, spec))
    rhs = rotate_vector(apply_word(Word.of(1), MassVector.zero(spec)), rot)
    assert lhs == rhs


def test_rotation_covariance_random():
    random.seed(5)
    for _ in range(100):
        n = random.randint(2, 5)
        spec = a_spec(n)
        word = Word(tuple(random.randint(1, n + 1)
                          for _ in range(random.randint(0, 5))))
        rot = CyclicRotation(random.randint(1, n + 1))
        relabeled = rotation_covariance(word, rot, spec)
        lhs = apply_word(relabeled, MassVector.zero(spec),
                         weights=rotated_weights(rot, spec))
        rhs = rotate_vector(apply_word(word, MassVector.zero(spec)), rot)
        assert lhs == rhs


@pytest.mark.parametrize("r", (-1, 0, 4, 9))
def test_rotation_functions_share_one_offset_check(r):
    spec, rot = a_spec(), CyclicRotation(r)
    calls = (lambda: rotate_vector(MassVector.zero(spec), rot),
             lambda: rotation_covariance(Word.of(1), rot, spec),
             lambda: rotated_weights(rot, spec))
    for call in calls:
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == "rotation offset %d outside 1..3" % r


@pytest.mark.parametrize("letter", (-1, 0, 4, 9))
def test_rotation_covariance_rejects_a_letter_outside_the_index_set(letter):
    spec = a_spec()
    with pytest.raises(DomainError) as exc:
        rotation_covariance(Word.of(1, letter), CyclicRotation(2), spec)
    # the message applying the word gives
    with pytest.raises(DomainError) as applied:
        apply_word(Word.of(1, letter), MassVector.zero(spec))
    assert str(exc.value) == str(applied.value) \
        == "generator index %d outside 1..3" % letter


@pytest.mark.parametrize("letter", ("1", 1.0, True, None))
def test_rotation_covariance_rejects_a_letter_that_is_not_an_int(letter):
    spec = a_spec(3)
    with pytest.raises(DomainError) as exc:
        rotation_covariance(Word((letter,)), CyclicRotation(2), spec)
    with pytest.raises(DomainError) as applied:
        apply_word(Word((letter,)), MassVector.zero(spec))
    assert str(exc.value) == str(applied.value) \
        == "generator index %r outside 1..4" % (letter,)


def test_rotation_covariance_names_the_first_bad_letter_in_word_order():
    spec, rot = a_spec(), CyclicRotation(2)
    with pytest.raises(DomainError) as exc:
        rotation_covariance(Word.of(1, 7, 2, 0, 3), rot, spec)
    assert str(exc.value) == "generator index 7 outside 1..3"


def test_finite_permutation_validation():
    with pytest.raises(DomainError):
        FinitePermutation((0, 0, 2))


def test_finite_a_mass_identity_is_zero():
    w = [LinForm.weight(i) for i in (1, 2, 3)]
    out = finite_a_mass(FinitePermutation((0, 1, 2, 3)), w)
    assert all(x.is_zero for x in out)


def test_finite_a_mass_swap():
    out = finite_a_mass(FinitePermutation((1, 0)), [LinForm.weight(1)])
    assert out == [LinForm.weight(1, 2)]


def test_finite_a_mass_reversal():
    # reverse map on {0,1,2}: sigma_1 = 2(mu_1+mu_2) and the second step
    # telescopes to zero since f(1) = 1
    w = [LinForm.weight(1), LinForm.weight(2)]
    out = finite_a_mass(FinitePermutation((2, 1, 0)), w)
    both = LinForm.make(0, {1: 2, 2: 2})
    assert out == [both, both]


def test_sperm_constraint():
    with pytest.raises(DomainError):
        SPermC((1, 0, 2, 3))  # 1+3 != 3 at j=0
    f = SPermC.reversal(2)
    assert [f(j) for j in range(6)] == [5, 4, 3, 2, 1, 0]


def test_sc_simple_examples():
    f0 = sc_simple(0, 1)
    assert f0.values == (1, 0, 3, 2)
    f1 = sc_simple(1, 1)
    assert f1.values == (0, 2, 1, 3)
    for l in range(0, 4):
        for i in range(0, l + 1):
            f = sc_simple(i, l)
            assert f.compose(f).values == SPermC.identity(l).values
    with pytest.raises(DomainError):
        sc_simple(3, 2)


def test_sperm_closure_under_products():
    random.seed(9)
    for l in range(1, 5):
        f = SPermC.identity(l)
        for _ in range(20):
            f = f.compose(sc_simple(random.randint(0, l), l))
            top = 2 * l + 1
            assert all(f(j) + f(top - j) == top for j in range(top + 1))


@pytest.mark.parametrize("l,m", ((1, 2), (2, 1), (0, 3)))
def test_compose_rejects_permutations_of_different_sizes(l, m):
    with pytest.raises(DomainError) as exc:
        SPermC.identity(l).compose(SPermC.identity(m))
    assert str(exc.value) == ("cannot compose permutations of 0..%d and 0..%d"
                              % (2 * l + 1, 2 * m + 1))


def test_sigma_f_identity_permutation():
    for n in (2, 3, 4):
        spec = ct_spec(n)
        g = MassVector.generic(spec)
        for J in (ConsecutiveSet(1, 1), ConsecutiveSet(n, 1)):
            assert sigma_f_ct(g, SPermC.identity(1), J) == g


def test_sigma_f_reversal_matches_chain_target():
    spec = ct_spec(2)
    z = MassVector.zero(spec)
    J = ConsecutiveSet(2, 1)
    got = sigma_f_ct(z, SPermC.reversal(1), J)
    assert got == closed_form_ct(z, J)
    assert str(got.entry(2)) == "4*mu_2 + 2*mu_3"


def test_sigma_f_rejects_interior():
    with pytest.raises(DomainError):
        sigma_f_ct(MassVector.zero(ct_spec(4)), SPermC.identity(1),
                   ConsecutiveSet(2, 1))


def test_sigma_f_simple_recursion():
    # composing with a simple permutation equals one extra reflection
    random.seed(13)
    for n in (2, 3, 4, 5):
        spec = ct_spec(n)
        g = MassVector.generic(spec)
        for l0 in range(0, min(3, n - 1) + 1):
            head = ConsecutiveSet(1, l0)
            tail = ConsecutiveSet(n + 1 - l0, l0)
            fs = [SPermC.identity(l0), SPermC.reversal(l0)]
            for _ in range(2):
                f = SPermC.identity(l0)
                for _ in range(4):
                    f = f.compose(sc_simple(random.randint(0, l0), l0))
                fs.append(f)
            for f in fs:
                for i in range(0, l0 + 1):
                    fi = sc_simple(i, l0)
                    assert sigma_f_ct(g, f.compose(fi), head) == \
                        apply_generator(l0 + 1 - i, sigma_f_ct(g, f, head))
                    if tail.start >= 2:
                        assert sigma_f_ct(g, f.compose(fi), tail) == \
                            apply_generator(i + tail.start,
                                            sigma_f_ct(g, f, tail))


def test_fold_example():
    spec = ct_spec(2)
    g = MassVector.generic(spec)
    folded, weights = fold_ct_to_a(g)
    assert folded.spec == AlgebraSpec("affine_a", 3)
    assert [str(e) for e in folded.entries] == \
        ["1*s_1", "1*s_2", "1*s_3", "1*s_2"]
    assert [str(w) for w in weights] == \
        ["1*mu_1", "1*mu_2", "1*mu_3", "1*mu_2"]
    z, _ = fold_ct_to_a(MassVector.zero(spec))
    assert z.is_zero


def test_fold_residual_transfer():
    random.seed(21)
    for _ in range(60):
        n = random.randint(2, 4)
        spec = ct_spec(n)
        word = Word(tuple(random.randint(1, n + 1)
                          for _ in range(random.randint(0, 8))))
        v = apply_word(word, MassVector.zero(spec))
        folded, weights = fold_ct_to_a(v)
        band = pohozaev_residual(folded, weights=weights)
        diff = pohozaev_residual_cyclic_difference(folded, weights=weights)
        ct_residual = pohozaev_residual(v)
        assert band == ct_residual
        assert diff == ct_residual.scale(2)
        assert diff.is_zero


def test_fold_intertwines_generators():
    for n in range(2, 6):
        spec = ct_spec(n)
        g = MassVector.generic(spec)
        base, weights = fold_ct_to_a(g)
        for i in range(1, n + 2):
            lhs, _ = fold_ct_to_a(apply_generator(i, g))
            if i in (1, n + 1):
                rhs = apply_generator(i, base, weights=weights)
            else:
                rhs = apply_generator(
                    i, apply_generator(2 * n + 2 - i, base, weights=weights),
                    weights=weights)
            assert lhs == rhs


@pytest.mark.parametrize("count", (0, 1, 3))
def test_fold_rejects_too_few_weights(count):
    v = MassVector.generic(ct_spec(3))
    with pytest.raises(EvaluationError) as exc:
        fold_ct_to_a(v, [LinForm.weight(i) for i in range(1, count + 1)])
    assert str(exc.value) == "expected 4 weights, got %d" % count
    # weights past the first n+1 are not read
    extra = [LinForm.weight(i) for i in range(1, 6)]
    assert fold_ct_to_a(v, extra) == fold_ct_to_a(v)


def test_unfold_round_trip():
    g = MassVector.generic(ct_spec(3))
    folded, _ = fold_ct_to_a(g)
    assert unfold_a_to_ct(folded) == g


def test_unfold_rejects_asymmetric():
    spec = AlgebraSpec("affine_a", 3)
    v = MassVector(spec, (LinForm.seed(1), LinForm.seed(2), LinForm.seed(3),
                          LinForm.seed(4)))
    with pytest.raises(SymmetryError):
        unfold_a_to_ct(v)
    with pytest.raises(DomainError):
        unfold_a_to_ct(MassVector.zero(AlgebraSpec("affine_a", 4)))
