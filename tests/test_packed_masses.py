"""Differential tests: the packed partial-sum kernels against dense rows.

`perms._star_rows`, `_half_masses` and `_block_rows` sum on rows packed
one int each (`action._packing`), at a slot width `action._width` fixes
from a bound before anything is summed (chain --verify: the wider of that
and `action._fold_width`), and `action._unpack` decodes them (`decoded`).
The list versions below are the kernels as they ran on dense rows, one
list per row; they share no code with the packed ones but the Cartan
table.  Every chain block at ranks 2-20, every palindromic permutation
with l <= 3, every permutation of 0..m for m <= 5, `mu_star` and drawn
rows are checked against them, and every chain target against the bound
and the packing chain --verify builds for it.
"""

import io
import random
from fractions import Fraction
from functools import cache
from itertools import accumulate, permutations

import pytest
from hypothesis import given, settings, strategies as st
from test_orbit_kernel import (chain_blocks, forms, growth, kronecker,
                               slot_bits)

from todamass.algebra import (AlgebraSpec, LinForm, MassVector, _form,
                              _int_rows)
from todamass.action import (_fold_width, _generic_packed, _generic_packing,
                             _generic_rows, _kernel_rows, _neighbours,
                             _packing, _peaks, _unpack, _width)
from todamass.cartan import ConsecutiveSet
from todamass.cli import run
from todamass.chains import chain_word_a, chain_word_ct
from todamass.perms import (FinitePermutation, SPermC, _block_rows,
                            _extension, finite_a_mass, mu_star, sigma_f_ct)

FAMILIES = ("affine_a", "affine_ct")


def add(a, b):
    return [x + y for x, y in zip(a, b)]


def dense_star_rows(rows, lifts, spec, idx):
    """Per s in idx, the row of 2 mu*_s = 2 w_s - sum_t k_st sigma_t."""
    nbrs = _neighbours(spec)
    for s in idx:
        star = [-2 * a for a in rows[s - 1]]
        for t, k in nbrs[s - 1]:
            star = [a - k * b for a, b in zip(star, rows[t])]
        for p, c in lifts[s - 1]:
            star[p] += c
        yield star


def dense_half_masses(f, rows, count):
    """Half the first ``count`` partial-sum masses of f over rows."""
    zero = [0] * len(rows[0]) if rows else []
    P = list(accumulate(rows, add, initial=zero))
    return list(accumulate(([x - y for x, y in zip(P[f(j)], P[j])]
                            for j in range(count)), add))


def extension(J, spec):
    """J in the order its entries take the masses, and mirror-extended on
    a head or tail block of affine Ct: `perms._extension`'s oracle."""
    order = ext = J.indices(spec.n)
    if spec.family == "affine_ct" and not J.is_interior(spec.n):
        order = order[::-1] if J.is_head(spec.n) else order
        ext = order + order[-2::-1]
    return order, ext


def dense_block_rows(rows, lifts, spec, J, f=None):
    """{s: entry row s plus its gain} for s in J, as tuples."""
    order, ext = extension(J, spec)
    stars = dict(zip(order, dense_star_rows(rows, lifts, spec, order)))
    f = f or FinitePermutation(tuple(range(len(ext), -1, -1)))
    gains = dense_half_masses(f, [stars[s] for s in ext], len(order))
    return {s: tuple(add(rows[s - 1], g)) for s, g in zip(order, gains)}


def decoded(new, packing):
    """`_block_rows`'s packed targets, decoded: {s: row}."""
    return dict(zip(new, _unpack(new.values(), packing)))


def written(v, layout, new):
    """v with each entry s in ``new`` the form of its row."""
    return MassVector(v.spec, tuple(_form(new[s], layout) if s in new else e
                                    for s, e in enumerate(v.entries, 1)))


def random_vector(rng, spec):
    """Entries with Fractions (so d > 1), negatives, constants, s-terms."""
    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return MassVector(spec, tuple(LinForm.make(
        rational(), {i: rational() for i in rng.sample(spec.indices, 3)},
        {rng.randint(1, spec.size): rational()}) for _ in spec.indices))


def chain_word(spec, J):
    builder = chain_word_a if spec.family == "affine_a" else chain_word_ct
    return builder(J, spec).word


@pytest.mark.parametrize("family", FAMILIES)
def test_chain_targets_match_the_dense_kernel_within_the_bound(family):
    """Every --set/--wrap block at ranks 2-20, summed on the generic
    packing chain --verify builds for it, at P's slot width b: decoded,
    the rows the dense kernel gives; packed, the same rows at that width;
    and no coefficient past 1 + 6 E^2 < 2^(b-1), E the block's length
    after the mirror extension, so every target fits the packing."""
    for n in range(2, 21):
        spec = AlgebraSpec(family, n)
        _, rows, lifts = _generic_rows(spec)
        for J in chain_blocks(family, n):
            length = len(chain_word(spec, J))
            e = len(extension(J, spec)[1])
            assert _extension(J, spec) == extension(J, spec)
            packing = _generic_packing(spec, length)
            new = _block_rows(packing, spec, _extension(J, spec))
            target = decoded(new, packing)
            want = dense_block_rows(rows, lifts, spec, J)
            assert target == want, (spec, J)
            bound = 1 + 6 * e * e
            assert bound == 1 + e * e * (2 + (growth(spec) + 1) * 1)
            assert max(abs(c) for row in want.values() for c in row) <= bound
            b = packing[2]
            assert b == slot_bits(spec, length, 1, 2), (spec, J)
            assert bound < 1 << b - 1
            assert list(new.values()) == list(kronecker(want.values(), b))


@pytest.mark.parametrize("family", FAMILIES)
def test_the_chain_packing_is_the_fold_width_and_holds_the_target(family):
    """chain --verify packs the generic rows at P's width for its word,
    which `chains` proves at least the target's `_width`, E the block's
    length after the mirror extension.  For every --set/--wrap block at
    ranks 2-40 it is.  At rank 20 each target also sums, on a packing at
    exactly its own `_width` (Ct head and tail targets reach 64 there),
    to the dense kernel's rows, packed at that width."""
    for n in range(2, 41):
        spec, g = AlgebraSpec(family, n), 3
        assert growth(spec) == g
        _, rows, lifts = _generic_rows(spec)
        assert _peaks(rows, lifts) == (1, 2)
        for J in chain_blocks(family, n):
            length = len(chain_word(spec, J))
            e = len(extension(J, spec)[1])
            b, own = slot_bits(spec, length, 1, 2), _width(e, 1, 2, g)
            assert _fold_width(spec, length, 1, 2) == b >= own, (spec, J)
            assert _generic_packing(spec, length)[2] == b
            if n == 20:
                want = dense_block_rows(rows, lifts, spec, J)
                packing = _packing(rows, lifts, own)
                new = _block_rows(packing, spec, _extension(J, spec))
                assert decoded(new, packing) == want, J
                assert list(new.values()) == list(kronecker(want.values(),
                                                            own)), J
        _generic_packing.cache_clear()  # the packings of 40 ranks, uncached
        _generic_packed.cache_clear()


def chain_argv(spec, J):
    """chain --verify's argv for the block J at the spec's rank."""
    flag = {"affine_a": "a", "affine_ct": "ct"}[spec.family]
    block = (["--wrap", "%d,%d" % (J.start, J.start + J.length - spec.size)]
             if J.wrap else ["--set", "%d:%d" % (J.start, J.length)])
    return ["chain", "--family", flag, "--rank", str(spec.n), *block,
            "--verify"]


def test_generic_packings_are_shared_per_slot_width():
    """chain --verify on every --set/--wrap block at rank 20 of both
    families prints EQUAL; the words take many lengths, but the packings
    held are one per (spec, `_fold_width`), each length's packing the
    one of its width."""
    _generic_packing.cache_clear()
    _generic_packed.cache_clear()
    widths, lengths = {}, set()
    for family in FAMILIES:
        spec = AlgebraSpec(family, 20)
        _, rows, lifts = _generic_rows(spec)
        for J in chain_blocks(family, 20):
            out = io.StringIO()
            assert run(chain_argv(spec, J), out, io.StringIO()) == 0, J
            assert out.getvalue().endswith("\nEQUAL\n"), J
            length = len(chain_word(spec, J))
            b = _fold_width(spec, length, *_peaks(rows, lifts))
            packing = _generic_packing(spec, length)
            assert widths.setdefault((spec, b), packing) is packing, J
            lengths.add((spec, length))
    assert _generic_packed.cache_info().currsize == len(widths)
    assert len(lengths) > 2 * len(widths)  # 57 lengths, 25 widths


@cache
def palindromic(l):
    """Every SPermC of 0..2l+1."""
    top = 2 * l + 1
    return [SPermC(p) for p in permutations(range(top + 1))
            if all(p[j] + p[top - j] == top for j in range(top + 1))]


def test_sigma_f_ct_matches_the_dense_kernel_for_every_spermc():
    rng = random.Random(23)
    for l, count in ((0, 2), (1, 8), (2, 48), (3, 384)):
        perms = palindromic(l)
        assert len(perms) == count
        for n in (max(l + 1, 2), 7):
            spec = AlgebraSpec("affine_ct", n)
            v = random_vector(rng, spec)
            layout, rows, lifts = _kernel_rows(v)
            for J in (ConsecutiveSet(1, l), ConsecutiveSet(n + 1 - l, l)):
                for f in perms:
                    want = dense_block_rows(rows, lifts, spec, J, f)
                    assert sigma_f_ct(v, f, J) == written(v, layout, want)


def test_finite_a_mass_matches_the_dense_kernel_for_every_permutation():
    rng = random.Random(29)
    for m in range(6):
        weights = [random_vector(rng, AlgebraSpec("affine_a", 3)).entries[0]
                   for _ in range(m)]
        layout, rows, _ = _int_rows(weights)
        for values in permutations(range(m + 1)):
            f = FinitePermutation(values)
            want = [_form([2 * c for c in row], layout)
                    for row in dense_half_masses(f, rows, m)]
            assert finite_a_mass(f, weights) == want, values


def test_mu_star_matches_the_dense_kernel():
    rng = random.Random(31)
    for family in FAMILIES:
        for n in (2, 3, 7, 12, 20):
            spec = AlgebraSpec(family, n)
            for v in (random_vector(rng, spec), MassVector.generic(spec),
                      MassVector.zero(spec)):
                (d, mu, s), rows, lifts = _kernel_rows(v)
                want = [_form(row, (2 * d, mu, s)) for row in
                        dense_star_rows(rows, lifts, spec, spec.indices)]
                assert mu_star(v) == want


@st.composite
def blocks(draw, spec):
    """A proper block of spec, wrapping only in affine A."""
    n = spec.n
    if spec.family == "affine_a" and draw(st.booleans()):
        r2 = draw(st.integers(3, n + 1))
        return ConsecutiveSet(r2, n + 1 - r2 + draw(st.integers(1, r2 - 2)),
                              wrap=True)
    start = draw(st.integers(1, n + 1))
    length = draw(st.integers(0, min(n - 1, n + 1 - start)))
    return ConsecutiveSet(start, length)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(2, 9), st.data())
def test_block_rows_match_the_dense_kernel_on_drawn_rows(family, n, data):
    """Drawn entries (Fractions, so d > 1, negatives, constants and
    s-terms) and, on a Ct boundary block, a drawn SPermC, packed at
    `_width`: the decoded targets equal the dense kernel's, within the
    bound, and packed, the same rows at that width."""
    spec = AlgebraSpec(family, n)
    v = MassVector(spec, tuple(data.draw(st.lists(
        forms(spec.size, stray=False), min_size=spec.size,
        max_size=spec.size))))
    J = data.draw(blocks(spec))
    f = None
    if family == "affine_ct" and not J.is_interior(n) and J.length <= 2:
        f = data.draw(st.none() | st.sampled_from(palindromic(J.length)))
    layout, rows, lifts = _kernel_rows(v)
    m = max(abs(c) for row in rows for c in row)
    l = max(abs(c) for lift in lifts for _, c in lift)
    e = len(extension(J, spec)[1])
    assert _peaks(rows, lifts) == (m, l)
    b = _width(e, m, l, growth(spec))
    packing = _packing(rows, lifts, b)
    new = _block_rows(packing, spec, _extension(J, spec), f)
    want = dense_block_rows(rows, lifts, spec, J, f)
    assert decoded(new, packing) == want
    assert list(new.values()) == list(kronecker(want.values(), b))
    bound = m + e * e * (l + (growth(spec) + 1) * m)
    assert max(abs(c) for row in want.values() for c in row) <= bound


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 400), st.integers(1, 30), st.data())
def test_decode_round_trips_every_value_the_slot_holds(b, width, data):
    """`_unpack` inverts `_packing` on every |c| <= 2^(b-1) - 1, the ends
    of that range included."""
    top = (1 << b - 1) - 1
    value = st.sampled_from([top, -top, 0, 1, -1]) | st.integers(-top, top)
    rows = data.draw(st.lists(st.lists(value, min_size=width,
                                       max_size=width), max_size=4))
    packing = _packing(rows, (), b)
    assert packing[2:] == (b, width if rows else 0)
    assert _unpack(packing[0], packing) == [tuple(row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 60), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(0, 4))
def test_width_holds_its_bound(e, m, l, g):
    """A coefficient at the bound m + e^2 (l + (g + 1) m), either sign,
    packs and decodes at `_width`."""
    bound = m + e * e * (l + (g + 1) * m)
    packing = _packing([(bound, -bound)], (), _width(e, m, l, g))
    assert _unpack(packing[0], packing) == [(bound, -bound)]
