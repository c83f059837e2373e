import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from todamass.algebra import (AFFINE_A, AlgebraSpec, LinForm, MassVector,
                              _int_rows)
from todamass.action import (Word, _generic_rows, _kernel_rows, _quad,
                             _residual, apply_generator, apply_word,
                             pohozaev_residual,
                             pohozaev_residual_cyclic_difference,
                             presentation_relations, verify_relation)
from todamass.cartan import build
from todamass.errors import DomainError, EvaluationError
from todamass.perms import CyclicRotation, fold_ct_to_a, rotated_weights


# -- oracles: the family rules as they were written out per family, before
# both were read off the Cartan matrix and its symmetriser --------------

def branching_relations(spec):
    """`presentation_relations` with the bonds written out per family."""
    n = spec.n
    cyclic = spec.family == AFFINE_A
    rels = [("R%d^2" % i, Word.of(i, i)) for i in spec.indices]
    for i in spec.indices:
        for j in range(i + 1, n + 2):
            if j - i == 1 or cyclic and j - i == n:
                if cyclic:
                    rels.append(("(R%dR%d)^3" % (i, j),
                                 Word.of(i, j).power(3)))
                # braid R_i R_j R_i = R_j R_i R_j, moved to one side; the
                # doubled bonds at the ends of Ct have order 4 instead
                if cyclic or 2 <= i and j <= n:
                    rels.append(("braid(%d,%d)" % (i, j),
                                 Word.of(i, j, i) * Word.of(j, i, j)))
            else:
                rels.append(("(R%dR%d)^2" % (i, j), Word.of(i, j).power(2)))
    if not cyclic:
        rels += [("(R2R1)^4", Word.of(2, 1).power(4)),
                 ("(R%dR%d)^4" % (n, n + 1), Word.of(n, n + 1).power(4))]
    return rels


def _minus(a, b):
    return [x - y for x, y in zip(a, b)]


def branching_residual(spec, layout, e, w):
    """`action._residual` with each family's form written out:
    A   sum_i s_i^2 - sum_i s_i s_{i+1} - 2 sum_i mu_i s_i  (cyclic)
    Ct  sum_{i<=n} (s_i - s_{i+1})^2
        - 2 (mu_1 s_1 + 2 sum_{2<=i<=n} mu_i s_i + mu_{n+1} s_{n+1})"""
    if spec.family == AFFINE_A:
        # s_i^2 - s_i s_{i+1} = s_i (s_i - s_{i+1})
        products = [(1, a, _minus(a, b)) for a, b in zip(e, e[1:] + e[:1])]
        products += [(-2, w[i], e[i]) for i in range(spec.size)]
    else:
        products = [(1, diff, diff) for diff in map(_minus, e, e[1:])]
        # the pairing weighs the two end entries once and the others twice
        products += [(-2 if i in (0, spec.n) else -4, w[i], e[i])
                     for i in range(spec.size)]
    return _quad(products, layout)


def a_spec(n=2):
    return AlgebraSpec("affine_a", n)


def ct_spec(n=2):
    return AlgebraSpec("affine_ct", n)


def test_generator_on_zero():
    v = apply_generator(1, MassVector.zero(a_spec()))
    assert v.entry(1) == LinForm.weight(1, 2)
    assert v.entry(2).is_zero and v.entry(3).is_zero


def test_generator_chain_example():
    v = apply_generator(1, MassVector.zero(a_spec()))
    v = apply_generator(2, v)
    assert v.entry(2) == LinForm.make(0, {1: 2, 2: 2})


def test_generator_ct_example():
    v = MassVector(ct_spec(), (LinForm.zero(), LinForm.zero(),
                               LinForm.weight(3, 2)))
    w = apply_generator(2, v)
    assert w.entry(2) == LinForm.make(0, {2: 2, 3: 2})
    assert w.entry(3) == LinForm.weight(3, 2)


def test_generator_index_range():
    with pytest.raises(DomainError):
        apply_generator(4, MassVector.zero(a_spec()))
    with pytest.raises(DomainError):
        apply_generator(0, MassVector.zero(ct_spec()))


def test_generator_is_involution():
    random.seed(11)
    for _ in range(30):
        n = random.randint(2, 5)
        spec = random.choice([a_spec(n), ct_spec(n)])
        entries = tuple(
            LinForm.make(random.randint(-2, 2),
                         {j: random.randint(-3, 3) for j in spec.indices},
                         {j: random.randint(-3, 3) for j in spec.indices})
            for _ in spec.indices)
        v = MassVector(spec, entries)
        i = random.randint(1, n + 1)
        assert apply_generator(i, apply_generator(i, v)) == v


def test_empty_word_is_identity():
    g = MassVector.generic(a_spec(3))
    assert apply_word(Word(), g) == g


def test_word_applies_right_to_left():
    # letters (2, 1): generator 1 acts first
    v = apply_word(Word.of(2, 1), MassVector.zero(a_spec()))
    assert v.entry(1) == LinForm.weight(1, 2)
    assert v.entry(2) == LinForm.make(0, {1: 2, 2: 2})


def test_three_letter_word_example():
    v = apply_word(Word.of(1, 2, 1), MassVector.zero(a_spec()))
    both = LinForm.make(0, {1: 2, 2: 2})
    assert v.entries == (both, both, LinForm.zero())


def test_relation_lists():
    names_a2 = [name for name, _ in presentation_relations(a_spec(2))]
    # at n = 2 every pair is adjacent on the cycle: no commutation words
    assert not any(name.startswith("(R") and name.endswith("^2")
                   for name in names_a2)
    names_a4 = [name for name, _ in presentation_relations(a_spec(4))]
    assert "(R1R3)^2" in names_a4
    names_ct3 = [name for name, _ in presentation_relations(ct_spec(3))]
    assert "(R2R1)^4" in names_ct3 and "(R3R4)^4" in names_ct3


def test_all_relations_verify():
    for n in range(2, 7):
        for spec in (a_spec(n), ct_spec(n)):
            for name, word in presentation_relations(spec):
                assert verify_relation(word, spec), (spec.family, n, name)


def test_verify_relation_rejects_wrong_order():
    assert verify_relation(Word.of(1, 1), a_spec(3))
    assert verify_relation(Word.of(1, 3).power(2), a_spec(3))
    assert not verify_relation(Word.of(1, 2).power(2), a_spec(3))


def test_verify_relation_rejects_non_relations():
    for spec in (a_spec(3), ct_spec(3)):
        assert not verify_relation(Word.of(1, 2), spec)
    # braid(1,2) holds on A, but the bond 1-2 of Ct is doubled
    braid = Word.of(1, 2, 1) * Word.of(2, 1, 2)
    assert verify_relation(braid, a_spec(3))
    assert not verify_relation(braid, ct_spec(3))


def test_verify_relation_agrees_across_interleaved_calls():
    # the oracle rebuilds the generic vector on every call
    def fresh(word, spec):
        g = MassVector.generic(spec)
        return apply_word(word, g) == g

    rng = random.Random(17)
    calls = []
    for spec in [make(n) for make in (a_spec, ct_spec) for n in (2, 3, 5)]:
        calls += [(spec, w) for _, w in presentation_relations(spec)]
        calls += [(spec, Word(tuple(rng.choices(spec.indices,
                                                k=rng.randint(1, 6)))))
                  for _ in range(20)]
    rng.shuffle(calls)
    verdicts = [verify_relation(w, spec) for spec, w in calls]
    assert verdicts == [fresh(w, spec) for spec, w in calls]
    assert any(verdicts) and not all(verdicts)
    # a verdict cannot see rows moved along the orbit, so compare the
    # shared rows themselves with a fresh read
    for spec, _ in calls:
        assert _generic_rows(spec) == _kernel_rows(MassVector.generic(spec))


def test_pohozaev_zero_vector():
    assert pohozaev_residual(MassVector.zero(a_spec())).is_zero
    assert pohozaev_residual(MassVector.zero(ct_spec(4))).is_zero


def test_pohozaev_orbit_example():
    v = MassVector(a_spec(), (LinForm.weight(1, 2),
                              LinForm.make(0, {1: 2, 2: 2}), LinForm.zero()))
    assert pohozaev_residual(v).is_zero


def test_pohozaev_constant_example():
    v = MassVector(a_spec(), (LinForm.make(1), LinForm.zero(),
                              LinForm.zero()))
    r = pohozaev_residual(v)
    assert dict(r.terms) == {(): Fraction(1), (1,): Fraction(-2)}


def test_pohozaev_rejects_seeds():
    with pytest.raises(EvaluationError):
        pohozaev_residual(MassVector.generic(a_spec()))


def test_orbit_words_have_zero_residual():
    random.seed(7)
    for fam in ("affine_a", "affine_ct"):
        for _ in range(40):
            n = random.randint(2, 4)
            spec = AlgebraSpec(fam, n)
            word = Word(tuple(random.randint(1, n + 1)
                              for _ in range(random.randint(0, 8))))
            v = apply_word(word, MassVector.zero(spec))
            assert pohozaev_residual(v).is_zero


def test_difference_form_is_double():
    random.seed(8)
    for _ in range(20):
        n = random.randint(2, 4)
        spec = a_spec(n)
        entries = tuple(LinForm.make(random.randint(-2, 2),
                                     {j: random.randint(-3, 3)
                                      for j in spec.indices})
                        for _ in spec.indices)
        v = MassVector(spec, entries)
        band = pohozaev_residual(v)
        assert pohozaev_residual_cyclic_difference(v) == band.scale(2)


def test_difference_form_is_specific_to_affine_a():
    # the family is checked before the entries are read, so a seeded Ct
    # vector gets the family message too
    for v in (MassVector.zero(ct_spec(3)), MassVector.generic(ct_spec(2))):
        with pytest.raises(EvaluationError) as exc:
            pohozaev_residual_cyclic_difference(v)
        assert str(exc.value) == "difference form is specific to affine A"


@pytest.mark.parametrize("call", [
    lambda v, w: apply_word(Word.of(1, 2), v, w),
    lambda v, w: apply_generator(3, v, w),
    pohozaev_residual, pohozaev_residual_cyclic_difference])
def test_too_few_weights_is_an_evaluation_error(call):
    v = MassVector.zero(a_spec(2))
    for weights in ([LinForm.weight(1)], [LinForm.weight(1)] * 2, [], ()):
        with pytest.raises(EvaluationError) as exc:
            call(v, weights)
        assert str(exc.value) == "expected 3 weights, got %d" % len(weights)
    # weights past the n+1 that are read are ignored, as before
    plain = [LinForm.weight(i) for i in range(1, 4)]
    extra = plain + [LinForm.seed(1)]
    assert call(v, extra) == call(v, plain) == call(v, None)


def test_relations_match_the_branching_oracle():
    # names, words and order: the relations verb prints them as they come
    for n in range(2, 41):
        for spec in (a_spec(n), ct_spec(n)):
            assert presentation_relations(spec) == branching_relations(spec), \
                (spec.family, n)


def test_residual_diagonal_symmetrises_the_cartan_matrix():
    # the residual of the constant vector e_i is 1/2 e_i^T D K e_i = d_i,
    # and DK must be symmetric
    for n in range(2, 41):
        for spec in (a_spec(n), ct_spec(n)):
            d = [dict(pohozaev_residual(MassVector(spec, tuple(
                LinForm.make(int(t == i)) for t in spec.indices))).terms)[()]
                 for i in spec.indices]
            k = build(spec.family, spec.size)
            assert d[0] == 1
            assert all(d[i - 1] * k[i, j] == d[j - 1] * k[j, i]
                       for i in spec.indices for j in spec.indices), \
                (spec.family, n, d)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def forms(size, seeded, stray=True):
    """Forms with constants, Fractions, negative coefficients and, if
    ``stray``, mu indices outside 1..size; s-terms only when ``seeded``."""
    index = st.integers(-1, size + 2) if stray else st.integers(1, size)
    return st.builds(
        LinForm.make, rationals,
        st.dictionaries(index, rationals, max_size=4),
        st.dictionaries(st.integers(1, size), rationals,
                        max_size=2 if seeded else 0))


def residual_outcome(spec, entries, weights):
    """Both residuals of the rows, or the error each raises."""
    got = []
    for residual in (_residual, branching_residual):
        try:
            got.append(residual(spec, *_int_rows(entries, weights)))
        except EvaluationError as exc:
            got.append((EvaluationError, str(exc)))
    return got


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["affine_a", "affine_ct"]), st.integers(2, 10),
       st.sampled_from(["plain", "random", "fold", "rotated"]),
       st.booleans(), st.data())
def test_residual_matches_the_branching_oracle(family, n, overlay, seeded,
                                               data):
    spec = AlgebraSpec(family, n)
    size = spec.size
    # a Ct vector to fold holds mu indices 1..size only
    entries = data.draw(st.lists(forms(size, seeded, overlay != "fold"),
                                 min_size=size, max_size=size))
    weights = None
    if overlay == "random":
        weights = data.draw(st.lists(forms(size, seeded), min_size=size,
                                     max_size=size))
    elif overlay == "rotated" and family == AFFINE_A:
        r = data.draw(st.integers(1, size))
        weights = rotated_weights(CyclicRotation(r), spec)
    elif overlay == "fold" and family != AFFINE_A:
        # the mirrored A vector under the folded overlay
        v, weights = fold_ct_to_a(MassVector(spec, tuple(entries)))
        spec, entries = v.spec, v.entries
    new, old = residual_outcome(spec, entries, weights)
    assert new == old
    if any(f.s for f in list(entries) + list(weights or ())):
        assert new == (EvaluationError,
                       "generic s-indeterminates present; "
                       "evaluate them before forming residuals")
    elif all(1 <= i <= spec.size for f in entries for i, _ in f.mu):
        v = MassVector(spec, tuple(entries))
        assert pohozaev_residual(v, weights) == old
    else:  # rows may hold any index, a vector only 1..n+1
        with pytest.raises(DomainError, match="outside 1..%d" % spec.size):
            MassVector(spec, tuple(entries))


@pytest.mark.parametrize("letter", ["1", 1.0, True, None, Fraction(1)])
def test_letters_that_are_not_ints_are_domain_errors(letter):
    spec = a_spec(2)
    message = "generator index %r outside 1..3" % (letter,)
    # a short word folds packed rows and a long one the tuple rows; the
    # letter is checked before either
    for word in (Word((1, letter, 2)), Word((letter,) + (1, 2) * 200)):
        for call in (lambda: verify_relation(word, spec),
                     lambda: apply_word(word, MassVector.zero(spec))):
            with pytest.raises(DomainError) as exc:
                call()
            assert str(exc.value) == message
