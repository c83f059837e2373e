"""Differential tests: integer-row kernels against symbolic oracles.

`LinForm.combine` normalises a whole linear combination once, and the
oracle folds it one binary `+`/`-`/`scale` at a time.  `finite_a_mass`
sums prefix rows on integers, and every chain target reads it as the
mass of the longest element.  Their oracles are the implementations
that folded every sum one binary step at a time, including the
triple-loop `closed_form_ct`, the per-call prefix closures of
`finite_a_mass` and `sigma_f_ct`, and the inverse-matrix
`closed_form_a`.

Both Pohozaev residual forms come from one integer kernel,
`action._quad`: the cyclic-difference form is twice the band form.
Each form has one oracle, which sums its products term by term in
Fractions: `fraction_residual` and `fraction_cyclic_difference`, both
through `fraction_of_products`.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_algebra import replaced
from test_chains import closed_form_a_blocks

from todamass.algebra import AlgebraSpec, LinForm, MassVector, _clean
from todamass.action import (QuadPoly, Word, apply_generator, apply_word,
                             pohozaev_residual,
                             pohozaev_residual_cyclic_difference)
from todamass.cartan import ConsecutiveSet, build, inverse_finite_a
from todamass.errors import EvaluationError
from todamass.chains import closed_form_a, closed_form_ct
from todamass.perms import (FinitePermutation, SPermC, finite_a_mass,
                            mu_star, sc_simple, sigma_f_ct)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
coeff_maps = st.dictionaries(st.integers(min_value=1, max_value=6), rationals,
                             max_size=4)
linforms = st.builds(LinForm.make, rationals, coeff_maps, coeff_maps)
terms = st.lists(st.tuples(st.one_of(st.integers(-4, 4), rationals), linforms),
                 max_size=8)


# -- oracles -------------------------------------------------------------

def fold_combine(pairs):
    acc = LinForm.zero()
    for k, f in pairs:
        acc = acc + f.scale(k)
    return acc


def old_apply_generator(i, v):
    k = build(v.spec.family, v.spec.size)
    new = LinForm.weight(i).scale(2)
    for t in v.spec.indices:
        c = k[i, t]
        if c:
            new = new - v.entry(t).scale(c)
    new = new + v.entry(i)
    return replaced(v, i, new)


def old_mu_star(v):
    k = build(v.spec.family, v.spec.size)
    out = []
    for s in v.spec.indices:
        f = LinForm.weight(s)
        for t in v.spec.indices:
            c = k[s, t]
            if c:
                f = f - v.entry(t).scale(Fraction(c, 2))
        out.append(f)
    return out


def old_closed_form_ct(v, J):
    spec = v.spec
    l = J.length
    out = v
    if J.is_head(spec.n):
        for s in range(1, l + 2):
            acc = LinForm.zero()
            for t in range(1, l + 2):
                acc = acc + LinForm.weight(t, 2 * (l + 2 - s))
            for q in range(0, l + 2 - s):
                for t in range(l + 2, 2 * l + 2 - q):
                    acc = acc + LinForm.weight(t - l, 2)
                for t in range(1, q + 1):
                    acc = acc - LinForm.weight(l + 2 - t, 2)
            acc = acc - v.entry(s) + v.entry(l + 2).scale(2)
            out = replaced(out, s, acc)
    else:
        i = J.start
        for s in range(i, spec.n + 2):
            acc = LinForm.zero()
            for q in range(0, s - i + 1):
                for t in range(1, l + 2):
                    acc = acc + LinForm.weight(t + i - 1, 2)
                for t in range(l + 2, 2 * l + 2 - q):
                    acc = acc + LinForm.weight(2 * l + i + 1 - t, 2)
                for t in range(1, q + 1):
                    acc = acc - LinForm.weight(t + i - 1, 2)
            acc = acc - v.entry(s) + v.entry(i - 1).scale(2)
            out = replaced(out, s, acc)
    return out


def old_closed_form_a(v, J, stars):
    """sigma_{s_p} + 2 sum_q (K[p,q] + K[p,m+1-q]) mu*_{s_q} on J, where
    K inverts the finite A Cartan matrix of size m = |J| and stars are
    v's shifted weights."""
    idx = J.indices(v.spec.n)
    m = len(idx)
    K = inverse_finite_a(m)
    out = v
    for p, s_p in enumerate(idx, 1):
        out = replaced(out, s_p, LinForm.combine(
            [(1, v.entry(s_p))]
            + [(2 * (K[p, q] + K[p, m + 1 - q]), stars[s_q - 1])
               for q, s_q in enumerate(idx, 1)]))
    return out


def old_finite_a_mass(f, weights):
    m = len(weights)

    def prefix(k):
        acc = LinForm.zero()
        for j in range(1, k + 1):
            acc = acc + weights[j - 1]
        return acc

    out = []
    acc = LinForm.zero()
    for i in range(1, m + 1):
        acc = acc + (prefix(f(i - 1)) - prefix(i - 1)).scale(2)
        out.append(acc)
    return out


def old_sigma_f_ct(v, f, J):
    spec = v.spec
    l0 = J.length
    bar = old_mu_star(v)
    if J.is_head(spec.n):
        def hat(r):
            if r <= l0 + 1:
                return bar[l0 + 2 - r - 1]
            return bar[r - l0 - 1]

        lo, span = 1, lambda i: l0 + 1 - i
    else:
        i0 = J.start

        def hat(r):
            if r <= l0 + 1:
                return bar[r + i0 - 1 - 1]
            return bar[2 * l0 + 1 + i0 - r - 1]

        lo, span = i0, lambda i: i - i0

    def prefix(k):
        acc = LinForm.zero()
        for r in range(1, k + 1):
            acc = acc + hat(r)
        return acc

    out = v
    for i in range(lo, lo + l0 + 1):
        acc = v.entry(i)
        for j in range(0, span(i) + 1):
            acc = acc + (prefix(f(j)) - prefix(j)).scale(2)
        out = replaced(out, i, acc)
    return out


def full_sigma_f_ct(v, f, J):
    """sigma_f_ct as it summed all 2 l0 + 1 masses of f over the mirror
    extension, of which the block reads only the first l0 + 1."""
    spec, l0 = v.spec, J.length
    block = old_mu_star(v)[J.start - 1:J.start + l0]
    if J.is_head(spec.n):
        hats, lo, span = block[::-1] + block[1:], 1, lambda i: l0 + 1 - i
    else:
        hats, lo, span = block + block[-2::-1], J.start, lambda i: i - J.start
    T = finite_a_mass(f, hats)
    assert len(T) == 2 * l0 + 1
    out = v
    for i in range(lo, lo + l0 + 1):
        out = replaced(out, i, v.entry(i) + T[span(i)])
    return out


def old_clean(items):
    acc = {}
    for idx, coeff in items:
        c = acc.get(idx, Fraction(0)) + Fraction(coeff)
        if c:
            acc[idx] = c
        elif idx in acc:
            del acc[idx]
    return tuple(sorted(acc.items()))


def fraction_factors(f):
    """The nonzero (monomial, coefficient) terms of a mu-only form."""
    if f.s:
        raise EvaluationError("generic s-indeterminates present; "
                              "evaluate them before forming residuals")
    out = [((i,), c) for i, c in f.mu]
    if f.const:
        out.append(((), f.const))
    return out


def fraction_of_products(terms):
    """The sum of k * a * b over (k, a, b) triples of forms, as a Fraction
    loop over the forms' terms."""
    d = {}
    for k, a, b in terms:
        fb = fraction_factors(b)
        for ma, ca in fraction_factors(a):
            if k != 1:
                ca *= k
            for mb, cb in fb:
                m = ma + mb if ma <= mb else mb + ma
                d[m] = d.get(m, 0) + ca * cb
    return QuadPoly.from_dict(d)


def fraction_residual(v, w):
    """`pohozaev_residual` as its triples summed by the Fraction loop."""
    spec = v.spec
    e = v.entries
    if spec.family == "affine_a":
        return fraction_of_products(
            [(1, a, a) for a in e]
            + [(-1, a, b) for a, b in zip(e, e[1:] + e[:1])]
            + [(-2, w[i], e[i]) for i in range(spec.size)])
    diffs = [a - b for a, b in zip(e, e[1:])]
    return fraction_of_products(
        [(1, d, d) for d in diffs]
        + [(-2 if i in (0, spec.n) else -4, w[i], e[i])
           for i in range(spec.size)])


def fraction_cyclic_difference(v, w):
    e = v.entries
    diffs = [a - b for a, b in zip(e, e[1:] + e[:1])]
    return fraction_of_products(
        [(1, d, d) for d in diffs]
        + [(-4, w[i], e[i]) for i in range(v.spec.size)])


def outcome(call):
    """A call's result, or its error type and message."""
    try:
        return call()
    except EvaluationError as exc:
        return EvaluationError, str(exc)


# -- LinForm.combine -------------------------------------------------------

def is_canonical(items):
    return (all(c for _, c in items)
            and [i for i, _ in items] == sorted({i for i, _ in items}))


@settings(max_examples=60)
@given(terms)
def test_combine_equals_binary_fold(pairs):
    got = LinForm.combine(pairs)
    assert got == fold_combine(pairs)
    assert is_canonical(got.mu) and is_canonical(got.s)
    mu = {i: Fraction(i, 7) for i in range(1, 7)}
    s = {i: Fraction(-i, 5) for i in range(1, 7)}
    assert got.evaluate(mu, s) == \
        sum((k * f.evaluate(mu, s) for k, f in pairs), Fraction(0))


@settings(max_examples=80)
@given(st.lists(st.tuples(st.integers(1, 4),
                          st.one_of(st.integers(-3, 3), rationals)),
                max_size=10))
def test_clean_matches_the_zero_seeded_sum(items):
    # few indices and small integers: repeats and cancellations are common
    assert _clean(items) == old_clean(items)
    assert all(type(c) is Fraction for _, c in _clean(items))


def test_combine_of_nothing_is_zero():
    assert LinForm.combine([]) == LinForm.zero()
    f = LinForm.make(3, {1: 2}, {2: -1})
    assert LinForm.combine([(0, f)]) == LinForm.zero()
    assert LinForm.combine([(1, f), (-1, f)]).is_zero


def random_vector(spec, rng):
    def form():
        mu = {i: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
              for i in rng.sample(list(spec.indices), 2)}
        s = {rng.choice(list(spec.indices)): rng.randint(-3, 3)}
        return LinForm.make(rng.randint(-2, 2), mu, s)
    return MassVector(spec, tuple(form() for _ in spec.indices))


@pytest.mark.parametrize("family", ["affine_a", "affine_ct"])
def test_generator_and_mu_star_match_folds(family):
    rng = random.Random(3)
    for n in range(2, 8):
        spec = AlgebraSpec(family, n)
        for v in (MassVector.generic(spec), random_vector(spec, rng)):
            assert mu_star(v) == old_mu_star(v)
            for i in spec.indices:
                assert apply_generator(i, v) == old_apply_generator(i, v)


# -- closed forms and permutation masses ----------------------------------

def boundary_blocks(n):
    for l in range(n):
        yield ConsecutiveSet(1, l)
        yield ConsecutiveSet(n + 1 - l, l)


@pytest.mark.parametrize("n", range(2, 11))
def test_closed_form_ct_matches_triple_loop(n):
    spec = AlgebraSpec("affine_ct", n)
    g = MassVector.generic(spec)
    for J in boundary_blocks(n):
        assert closed_form_ct(g, J) == old_closed_form_ct(g, J), (n, J)


def test_closed_form_a_matches_the_inverse_matrix():
    # every block closed_form_a accepts at ranks 2..12: 1,012 in all
    rng = random.Random(11)
    blocks = 0
    for n in range(2, 13):
        vectors = {}
        for spec, J in closed_form_a_blocks(n):
            if spec not in vectors:
                vectors[spec] = [(v, mu_star(v)) for v in (
                    MassVector.generic(spec), random_vector(spec, rng))]
            for v, stars in vectors[spec]:
                assert closed_form_a(v, J) == \
                    old_closed_form_a(v, J, stars), (spec, J)
            blocks += 1
    assert blocks == 1012


def cancelling_weights(rng, m):
    """m weights with fractional mu coefficients, some of which cancel:
    a zero weight, and weights that undo the one before them."""
    weights = [LinForm.make(rng.randint(-2, 2),
                            {j: Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                             rng.randint(1, 9): 1},
                            {j: Fraction(1, rng.randint(1, 4))})
               for j in range(1, m + 1)]
    for k in range(1, m):
        if rng.random() < 0.3:
            weights[k] = weights[k - 1].scale(-1)
    if m and rng.random() < 0.5:
        weights[rng.randrange(m)] = LinForm.zero()
    return weights


def test_finite_a_mass_matches_prefix_recompute():
    rng = random.Random(5)
    for size in range(1, 10):
        m = size - 1
        plain = [LinForm.make(rng.randint(-2, 2),
                              {j: rng.randint(-3, 3), rng.randint(1, 9): 1},
                              {j: Fraction(1, rng.randint(1, 4))})
                 for j in range(1, m + 1)]
        for weights in (plain, cancelling_weights(rng, m),
                        cancelling_weights(rng, m)):
            for _ in range(6):
                values = list(range(size))
                rng.shuffle(values)
                f = FinitePermutation(tuple(values))
                assert finite_a_mass(f, weights) == \
                    old_finite_a_mass(f, weights)
    # a permutation whose steps cancel: the masses are all zero forms
    w = [LinForm.weight(1, Fraction(2, 3)), LinForm.weight(1, Fraction(-2, 3))]
    assert finite_a_mass(FinitePermutation((2, 1, 0)), w) == \
        old_finite_a_mass(FinitePermutation((2, 1, 0)), w) == \
        [LinForm.zero(), LinForm.zero()]


def test_finite_a_mass_reads_palindromic_permutations():
    # SPermC is a FinitePermutation, so sigma_f_ct passes f on as it is
    rng = random.Random(7)
    for l in range(6):
        f = SPermC.reversal(l)
        assert isinstance(f, FinitePermutation) and f.top == 2 * l + 1
        for _ in range(3):
            w = cancelling_weights(rng, 2 * l + 1)
            assert finite_a_mass(f, w) == old_finite_a_mass(f, w)
            g = f.compose(sc_simple(rng.randint(0, l), l))
            assert finite_a_mass(g, w) == old_finite_a_mass(g, w)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sigma_f_ct_matches_prefix_recompute(data):
    n = data.draw(st.integers(2, 7))
    l0 = data.draw(st.integers(0, n - 1))
    head = data.draw(st.booleans())
    J = ConsecutiveSet(1, l0) if head else ConsecutiveSet(n + 1 - l0, l0)
    f = SPermC.identity(l0)
    for i in data.draw(st.lists(st.integers(0, l0), max_size=3 * l0 + 3)):
        f = f.compose(sc_simple(i, l0))
    spec = AlgebraSpec("affine_ct", n)
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    for v in (MassVector.generic(spec), random_vector(spec, rng)):
        assert sigma_f_ct(v, f, J) == old_sigma_f_ct(v, f, J)


def test_sigma_f_ct_matches_the_full_length_sum():
    # every head and tail block at ranks 2..12, two random f on each
    rng = random.Random(13)
    for n in range(2, 13):
        spec = AlgebraSpec("affine_ct", n)
        vectors = (MassVector.generic(spec), random_vector(spec, rng))
        for J in boundary_blocks(n):
            l0 = J.length
            for _ in range(2):
                f = SPermC.identity(l0)
                for _ in range(3 * l0 + 3):
                    f = f.compose(sc_simple(rng.randint(0, l0), l0))
                for v in vectors:
                    assert sigma_f_ct(v, f, J) == full_sigma_f_ct(v, f, J), \
                        (n, J, f)


# -- Pohozaev residuals ----------------------------------------------------

def test_products_with_seeds_raise_the_same_error():
    ct = MassVector.generic(AlgebraSpec("affine_ct", 3))
    a = MassVector.generic(AlgebraSpec("affine_a", 3))
    for call in (lambda: pohozaev_residual(ct),
                 lambda: pohozaev_residual(a),
                 lambda: pohozaev_residual_cyclic_difference(a)):
        with pytest.raises(EvaluationError) as exc:
            call()
        assert str(exc.value) == ("generic s-indeterminates present; "
                                  "evaluate them before forming residuals")


def random_form(rng, size, seeded=False):
    """A form with a constant, negative and fractional mu coefficients
    over up to all n+1 indices, and seed terms if asked."""
    def coeff():
        return Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 12]))
    mu = {i: coeff() for i in rng.sample(range(1, size + 1),
                                         rng.randint(0, size))}
    s = {rng.randint(1, size): coeff() or 1} if seeded else {}
    return LinForm.make(coeff() if rng.random() < 0.5 else 0, mu, s)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["affine_a", "affine_ct"]), st.integers(2, 10),
       st.sampled_from(["orbit", "random", "seeded entry"]),
       st.sampled_from(["plain", "single weights", "overlay",
                        "seeded overlay"]),
       st.integers(0, 10 ** 6))
def test_integer_kernel_matches_the_fraction_loop(family, n, vector, weights,
                                                  seed):
    spec = AlgebraSpec(family, n)
    size = spec.size
    rng = random.Random(seed)
    if vector == "orbit":
        word = [rng.choice(spec.indices) for _ in range(rng.randint(0, 12))]
        v = apply_word(Word(tuple(word)), MassVector.zero(spec))
    else:
        v = MassVector(spec, tuple(random_form(rng, size) for _ in range(size)))
        if vector == "seeded entry":
            v = replaced(v, rng.randint(1, size), random_form(rng, size, True))
    overlay = None
    w = [LinForm.weight(i) for i in spec.indices]
    if weights == "single weights":
        # a constant plus one plain weight each
        overlay = [LinForm.make(rng.randint(-1, 1), {rng.randint(1, size): 1})
                   for _ in range(size)]
        w = overlay
    elif weights != "plain":
        overlay = [random_form(rng, size) for _ in range(size)]
        if weights == "seeded overlay":
            overlay[rng.randrange(size)] = random_form(rng, size, True)
        w = overlay
    assert outcome(lambda: pohozaev_residual(v, weights=overlay)) == \
        outcome(lambda: fraction_residual(v, w))
    if vector == "orbit" and weights == "plain":
        assert pohozaev_residual(v).is_zero
    if family == "affine_a":
        assert outcome(lambda: pohozaev_residual_cyclic_difference(
            v, weights=overlay)) == \
            outcome(lambda: fraction_cyclic_difference(v, w))


def test_seed_terms_raise_the_fraction_loop_message():
    spec = AlgebraSpec("affine_a", 3)
    seeded = LinForm.make(1, {2: 3}, {4: Fraction(1, 2)})
    v = MassVector(spec, (LinForm.weight(1, 2),) * 4)
    weights = [LinForm.weight(i) for i in spec.indices]
    calls = [
        (lambda: pohozaev_residual(replaced(v, 3, seeded)),
         lambda: fraction_residual(replaced(v, 3, seeded), weights)),
        (lambda: pohozaev_residual(v, weights=weights[:2] + [seeded] * 2),
         lambda: fraction_residual(v, weights[:2] + [seeded] * 2)),
        (lambda: pohozaev_residual_cyclic_difference(replaced(v, 1, seeded)),
         lambda: fraction_cyclic_difference(replaced(v, 1, seeded), weights)),
    ]
    for new, old in calls:
        got = outcome(new)
        assert got == outcome(old)
        assert got[0] is EvaluationError
