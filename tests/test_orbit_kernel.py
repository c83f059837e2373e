"""Differential tests: the integer row kernel against the LinForm path.

The oracles below are the symbolic implementations that words,
enumeration, DOT export and descent used before they moved onto integer
rows; they build every vector with `linform_generator`, the generator
rule as one `LinForm.combine` per letter.  The packed fold, `apply_word`
and the chain verdict on the cached generic packing are checked against
the tuple-row fold of `row_fold.py`, and the descent that picks its
letters from the deltas against the one that reflected the rows at
every step.
Membership is also checked against the order it used to take:
`gamma_n_test` first, then the integer descent.  Reverse-search
enumeration is checked against the breadth-first search with a visited
set that it replaced, `bfs_rows`, and its level counts against Bott's
formula.
"""

import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st
from row_fold import _fold, _reflect
from test_algebra import replaced
from test_export_fragments import ranked_nodes

from todamass.algebra import AlgebraSpec, LinForm, MassVector, _int_rows
from todamass.action import (Word, _acting, _fold as packed_fold,
                             _fold_width, _form, _generic_packing,
                             _generic_rows, _kernel_rows, _letters,
                             _neighbours, _packing, _peaks, _reach, _unpack,
                             apply_generator, apply_word, verify_relation)
from todamass.cartan import ConsecutiveSet, build
from todamass.chains import chain_word_a, chain_word_ct
from todamass.errors import DomainError, NotMassForm, TodamassError
from todamass.orbit import (DESCENT_STALLED, MEMBER, NOT_IN_GAMMA_N,
                            MembershipReport, OrbitNode, _deltas, _descend,
                            _mass_rows, _verdict, coefficient_matrix,
                            descend_to_zero, enumerate_orbit, export_graph,
                            gamma_n_test)
from todamass.perms import _block_rows, _extension, _generic_text

FAMILIES = ("affine_a", "affine_ct")
CRITERION_12_SWEEP = (("affine_a", 2, 6), ("affine_a", 3, 4),
                      ("affine_ct", 3, 4))
# the orbit-export benchmark grid, then deeper sweeps of 1.5k-3k nodes
REVERSE_SEARCH_SWEEP = (
    ("affine_a", 3, 8), ("affine_ct", 3, 9), ("affine_a", 2, 9),
    ("affine_ct", 2, 10), ("affine_a", 4, 5), ("affine_ct", 4, 5),
    ("affine_a", 5, 4), ("affine_ct", 5, 4), ("affine_a", 6, 3),
    ("affine_a", 6, 4), ("affine_ct", 6, 4), ("affine_a", 7, 3),
    ("affine_ct", 7, 3),
    ("affine_a", 2, 40), ("affine_a", 3, 16), ("affine_a", 5, 8),
    ("affine_a", 7, 6), ("affine_ct", 2, 30), ("affine_ct", 3, 14),
    ("affine_ct", 5, 8), ("affine_ct", 7, 6))
# per family, the depth of the Bott check at ranks 2..7
BOTT_DEPTHS = {"affine_a": (58, 20, 13, 10, 8, 7),
               "affine_ct": (58, 24, 14, 11, 9, 7)}


def linform_generator(i, v, weights=None):
    """R_i: entry i becomes 2 w_i + sigma_i - sum_t k_it sigma_t."""
    spec = v.spec
    if not 1 <= i <= spec.size:
        raise DomainError("generator index %d outside 1..%d" % (i, spec.size))
    row = build(spec.family, spec.size).entries[i - 1]
    w_i = weights[i - 1] if weights is not None else LinForm.weight(i)
    return replaced(v, i, LinForm.combine(
        [(2, w_i), (1, v.entries[i - 1])]
        + [(-c, e) for c, e in zip(row, v.entries)]))


def linform_word(w, v, weights=None):
    """The word's letters applied one at a time, right to left, once an
    overlay naming an index outside 1..n+1 is refused."""
    size = v.spec.size
    for t in weights[:size] if weights is not None else ():
        stray = [i for i, _ in t.mu + t.s if not 1 <= i <= size]
        if stray:
            raise DomainError("index %d outside 1..%d" % (stray[0], size))
    for i in reversed(w.letters):
        v = linform_generator(i, v, weights)
    return v


def linform_enumerate(spec, depth, skip_repeat=True):
    root = OrbitNode(MassVector.zero(spec), Word(), 0)
    seen = {root.vector.canonical_key(): root}
    frontier = [root]
    for _ in range(depth):
        candidates = []
        for node in frontier:
            first = node.witness.letters[0] if node.witness.letters else None
            for i in spec.indices:
                if skip_repeat and i == first:
                    continue
                child = linform_generator(i, node.vector)
                word = Word((i,) + node.witness.letters)
                candidates.append((child.canonical_key(),
                                   OrbitNode(child, word, node.level + 1)))
        candidates.sort(key=lambda p: (p[0], p[1].witness.letters))
        frontier = []
        for key, node in candidates:
            if key not in seen:
                seen[key] = node
                frontier.append(node)
    return sorted(seen.values(),
                  key=lambda nd: (nd.level, nd.vector.canonical_key()))


def bfs_rows(spec, depth):
    """(rows, witness) of every orbit vector within depth, by breadth-first
    search on integer rows with a set of visited rows.

    Generators outermost and each level in witness order, so the first
    word that reaches a vector is its smallest, and the next level comes
    out in witness order too.
    """
    nbrs = _neighbours(spec)
    _, zero, lifts = _kernel_rows(MassVector.zero(spec))
    seen = {zero}
    levels = [[(zero, ())]]
    for _ in range(depth):
        found = []
        for i in range(spec.size):
            letter = i + 1
            for rows, word in levels[-1]:
                if word and word[0] == letter:
                    continue  # R_i^2 = e, this child is the node's own parent
                child = _reflect(rows, i, nbrs, lifts[i])
                if child not in seen:
                    seen.add(child)
                    found.append((child, (letter,) + word))
        if not found:
            break
        levels.append(found)
    return {pair for members in levels for pair in members}


def bott_counts(exponents, depth):
    """The coefficients of t^0..t^depth in Bott's series of the affine
    Weyl group, prod_i (1 + t + ... + t^e_i) / (1 - t^e_i)."""
    series = [1] + [0] * depth
    for e in exponents:
        series = [sum(series[max(0, k - e):k + 1]) for k in range(depth + 1)]
        for k in range(e, depth + 1):
            series[k] += series[k - e]
    return series


def replayed_edges(nodes):
    """DOT edge lines, each parent found by replaying the witness from zero."""
    ids = {nd.vector.canonical_key(): k for k, nd in enumerate(nodes)}
    lines = []
    for k, nd in enumerate(nodes):
        if nd.witness.letters:
            parent = linform_word(Word(nd.witness.letters[1:]),
                                  MassVector.zero(nd.vector.spec))
            lines.append("  v%d -> v%d [label=%d];"
                         % (ids[parent.canonical_key()], k,
                            nd.witness.letters[0]))
    return lines


def _phi(v):
    return sum(v.evaluate([1] * v.spec.size), Fraction(0))


def linform_descent(v, max_steps=256):
    base = gamma_n_test(v)
    if base.verdict != MEMBER:
        return base
    applied = []
    cur = v
    while not cur.is_zero:
        if len(applied) >= max_steps:
            return MembershipReport(DESCENT_STALLED, True, True,
                                    reason="step budget exhausted",
                                    steps=len(applied))
        phi = _phi(cur)
        for i in cur.spec.indices:
            child = linform_generator(i, cur)
            if _phi(child) < phi:
                break
        else:
            return MembershipReport(DESCENT_STALLED, True, True,
                                    reason="no descending generator",
                                    steps=len(applied))
        applied.append(i)
        cur = child
    return MembershipReport(MEMBER, True, True,
                            word=Word(tuple(reversed(applied))),
                            steps=len(applied))


def gamma_first_descent(v, max_steps=256):
    """Membership as it was decided before: both conditions of
    `gamma_n_test` first, then the integer descent."""
    base = gamma_n_test(v)
    if base.verdict != MEMBER:
        return base
    nbrs = _neighbours(v.spec)
    _, zero, lifts = _kernel_rows(MassVector.zero(v.spec))
    rows = tuple((0,) + tuple(int(2 * c) for c in row)
                 for row in coefficient_matrix(v).entries)
    sums = [sum(row) for row in rows]
    applied = []
    while rows != zero:
        if len(applied) >= max_steps:
            return MembershipReport(DESCENT_STALLED, True, True,
                                    reason="step budget exhausted",
                                    steps=len(applied))
        for i, nb in enumerate(nbrs):
            delta = 2 - 2 * sums[i] - sum(k * sums[t] for t, k in nb)
            if delta < 0:
                break
        else:
            return MembershipReport(DESCENT_STALLED, True, True,
                                    reason="no descending generator",
                                    steps=len(applied))
        rows = _reflect(rows, i, nbrs, lifts[i])
        sums[i] += delta
        applied.append(i + 1)
    return MembershipReport(MEMBER, True, True,
                            word=Word(tuple(reversed(applied))),
                            steps=len(applied))


def ascent(spec, steps, rng):
    """An orbit vector reached by `steps` mass-increasing generators."""
    v = MassVector.zero(spec)
    for _ in range(steps):
        phi = _phi(v)
        ups = [c for c in (linform_generator(i, v) for i in spec.indices)
               if _phi(c) > phi]
        v = rng.choice(ups)
    return v


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(min_value=2, max_value=7),
       st.data())
def test_integer_step_matches_apply_generator(family, n, data):
    spec = AlgebraSpec(family, n)
    letters = data.draw(st.lists(st.sampled_from(list(spec.indices)),
                                 max_size=12))
    nbrs = _neighbours(spec)
    layout, rows, lifts = _kernel_rows(MassVector.zero(spec))
    v = MassVector.zero(spec)
    for i in letters:
        rows = _reflect(rows, i - 1, nbrs, lifts[i - 1])
        v = linform_generator(i, v)
        assert MassVector(spec, tuple(_form(row, layout)
                                      for row in rows)) == v
        assert apply_generator(i, v) == linform_generator(i, v)


def outcome(call, errors=DomainError):
    """A call's result, or its error type and message."""
    try:
        return call()
    except errors as exc:
        return type(exc), str(exc)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def forms(size, stray=True):
    """Forms with constants, Fractions, s-terms and, if ``stray``, mu
    indices outside 1..size, stray ones below and above; a vector holds
    none of those, a weight overlay is refused for them."""
    index = st.integers(-1, size + 2) if stray else st.integers(1, size)
    return st.builds(
        LinForm.make, rationals,
        st.dictionaries(index, rationals, max_size=4),
        st.dictionaries(st.integers(1, size), rationals, max_size=2))


def long_words(spec):
    """Words of 60-300 letters, where the rows' coefficients grow
    quadratically: powers of the Coxeter element R_1 ... R_{n+1}, in
    either order, and random words."""
    size = spec.size
    powers = st.integers(60 // size + 1, 300 // size)
    return (powers.map(lambda k: list(spec.indices) * k)
            | powers.map(lambda k: list(reversed(spec.indices)) * k)
            | st.lists(st.integers(1, size), min_size=60, max_size=300))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(2, 12),
       st.sampled_from(["generic", "mixed", "overlay"]), st.data())
def test_apply_word_matches_linform_fold(family, n, kind, data):
    spec = AlgebraSpec(family, n)
    size = spec.size
    # one draw in three a long word
    letters = data.draw(long_words(spec) if data.draw(st.integers(0, 2)) == 0
                        else st.lists(st.integers(1, size), max_size=14))
    if data.draw(st.integers(0, 4)) == 0:
        # one letter out of range: the first one applied raises
        bad = data.draw(st.sampled_from([0, -2, size + 1, size + 3]))
        letters.insert(data.draw(st.integers(0, len(letters))), bad)
    word = Word(tuple(letters))
    v, weights = MassVector.generic(spec), None
    if kind != "generic":
        v = MassVector(spec, tuple(data.draw(st.lists(
            forms(size, stray=False), min_size=size, max_size=size))))
    if kind == "overlay":
        weights = data.draw(st.lists(forms(size), min_size=size,
                                     max_size=size + 2))
    want = outcome(lambda: linform_word(word, v, weights))
    assert outcome(lambda: apply_word(word, v, weights)) == want
    g = MassVector.generic(spec)
    if all(1 <= i <= size for i in letters):
        assert verify_relation(word, spec) == (linform_word(word, g) == g)
        assert verify_relation(word * Word(tuple(reversed(letters))), spec)
    else:
        assert outcome(lambda: verify_relation(word, spec)) == \
            outcome(lambda: linform_word(word, g))


@pytest.mark.parametrize("family,n,depth", CRITERION_12_SWEEP)
def test_enumeration_matches_linform_bfs(family, n, depth):
    spec = AlgebraSpec(family, n)
    nodes = enumerate_orbit(spec, depth)
    for skip in (True, False):
        assert nodes == linform_enumerate(spec, depth, skip_repeat=skip)


@pytest.mark.parametrize("family,n,depth", REVERSE_SEARCH_SWEEP)
def test_reverse_search_matches_bfs_and_descent(family, n, depth):
    spec = AlgebraSpec(family, n)
    nodes = enumerate_orbit(spec, depth)
    assert {(_kernel_rows(nd.vector)[1], nd.witness.letters)
            for nd in nodes} == bfs_rows(spec, depth)
    assert len(nodes) == len({nd.vector for nd in nodes})
    for nd in nodes:
        report = descend_to_zero(nd.vector)
        assert report.word.letters[::-1] == nd.witness.letters
        assert report.steps == nd.level == len(nd.witness)


@pytest.mark.parametrize("family", FAMILIES)
def test_level_counts_follow_bott_formula(family):
    # the finite exponents: 1..n for A_n, and 1, 3, .., 2n-1 for C_n,
    # since the Ct relations (R2R1)^4 make the group affine C_n
    for n, depth in enumerate(BOTT_DEPTHS[family], 2):
        exponents = range(1, n + 1) if family == "affine_a" \
            else range(1, 2 * n, 2)
        levels = Counter(nd.level for nd in
                         enumerate_orbit(AlgebraSpec(family, n), depth))
        assert [levels[k] for k in range(depth + 1)] == \
            bott_counts(exponents, depth), (n, depth)


@pytest.mark.parametrize("family,n,depth", CRITERION_12_SWEEP)
def test_dot_edges_match_replayed_witnesses(family, n, depth):
    nodes = enumerate_orbit(AlgebraSpec(family, n), depth)
    lines = export_graph(nodes, "dot").decode().split("\n")
    assert lines[1 + len(nodes):-2] == replayed_edges(nodes)


def test_descent_matches_linform_on_members():
    rng = random.Random(12)
    for family in FAMILIES:
        for n in (2, 3, 5, 7):
            spec = AlgebraSpec(family, n)
            for steps in (0, 1, 7, 20):
                v = ascent(spec, steps, rng)
                for budget in (256, steps // 2):
                    report = descend_to_zero(v, max_steps=budget)
                    assert report == linform_descent(v, max_steps=budget)
                assert descend_to_zero(v).steps == steps
            for _ in range(5):
                word = Word(tuple(rng.choice(spec.indices)
                                  for _ in range(rng.randrange(1, 15))))
                v = linform_word(word, MassVector.zero(spec))
                assert descend_to_zero(v, max_steps=30) == \
                    linform_descent(v, max_steps=30)


def test_descent_matches_linform_on_non_members():
    spec = AlgebraSpec("affine_a", 3)
    half = MassVector(spec, (LinForm.weight(1), LinForm.zero(),
                             LinForm.zero(), LinForm.zero()))
    residual = MassVector(spec, (LinForm.weight(1, 2), LinForm.zero(),
                                 LinForm.weight(1, 2), LinForm.zero()))
    for v in (half, residual):
        report = descend_to_zero(v)
        assert report.verdict != MEMBER and report == linform_descent(v)
    seeded = MassVector.generic(spec)
    with pytest.raises(NotMassForm):
        descend_to_zero(seeded)
    with pytest.raises(NotMassForm):
        linform_descent(seeded)


def bumped(v, rng, amount, index=None):
    """v with amount * mu_index added to one entry."""
    i = rng.randint(1, v.spec.size)
    j = index if index is not None else rng.randint(1, v.spec.size)
    return replaced(v, i, v.entry(i) + LinForm.weight(j, amount))


DEFECTS = {"member": None, "half": 1, "third": Fraction(2, 3),
           "negative": -2, "residual": 2, "stray": 2}


def stray_refused(v, rng):
    """The "stray" defect, 2 mu_{n+2} added to an entry: no vector holds
    it, so it cannot be built."""
    with pytest.raises(DomainError, match="index %d outside 1..%d"
                       % (v.spec.size + 1, v.spec.size)):
        bumped(v, rng, DEFECTS["stray"], v.spec.size + 1)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(2, 7), st.integers(0, 25),
       st.sampled_from(sorted(DEFECTS)), st.integers(0, 10 ** 6))
def test_membership_matches_gamma_first_order(family, n, level, defect, seed):
    spec = AlgebraSpec(family, n)
    rng = random.Random(seed)
    v = ascent(spec, level, rng)
    if defect == "stray":
        return stray_refused(v, rng)
    if defect != "member":
        v = bumped(v, rng, DEFECTS[defect])
    budgets = {256, 0, rng.randint(0, level), level}
    for budget in sorted(budgets):
        report = descend_to_zero(v, max_steps=budget)
        assert report == gamma_first_descent(v, max_steps=budget), budget


def coefficient_matrix_gamma_n_test(v):
    """`gamma_n_test` as it decided the coefficients before: on the
    Fraction matrix of a second read of v."""
    return _verdict(v.spec, *_int_rows(v.entries, None),
                    coefficient_matrix(v).is_nonneg_integral())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(2, 7), st.integers(0, 20),
       st.sampled_from(sorted(DEFECTS) + ["random"]), st.data())
def test_gamma_n_test_matches_the_coefficient_matrix(family, n, level, kind,
                                                     data):
    spec = AlgebraSpec(family, n)
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    if kind == "random":
        # constants, Fractions and s-terms: NotMassForm comes before any
        # residual is formed
        v = MassVector(spec, tuple(data.draw(st.lists(
            forms(spec.size, stray=False), min_size=spec.size,
            max_size=spec.size))))
    else:
        v = ascent(spec, level, rng)
        if kind == "stray":
            return stray_refused(v, rng)
        if kind != "member":
            v = bumped(v, rng, DEFECTS[kind])
    assert outcome(lambda: gamma_n_test(v), TodamassError) == \
        outcome(lambda: coefficient_matrix_gamma_n_test(v), TodamassError)


def test_membership_reports_on_each_path():
    rng = random.Random(6)
    for family in FAMILIES:
        spec = AlgebraSpec(family, 4)
        member = ascent(spec, 9, rng)
        residual = bumped(member, rng, 2)
        while gamma_n_test(residual).pohozaev_ok:
            residual = bumped(member, rng, 2)
        cases = [
            (member, 256, MembershipReport(
                MEMBER, True, True, word=descend_to_zero(member).word,
                steps=9)),
            (member, 4, MembershipReport(DESCENT_STALLED, True, True,
                                         reason="step budget exhausted",
                                         steps=4)),
            (bumped(member, rng, 1), 256, MembershipReport(
                NOT_IN_GAMMA_N, False, False,
                reason="coefficient matrix is not nonnegative-integral")),
            # a nonzero residual stays a non-member, even with no budget
            # for the descent to stall on first
            (residual, 0, MembershipReport(
                NOT_IN_GAMMA_N, False, True,
                reason="Pohozaev residual is nonzero")),
            (residual, 256, MembershipReport(
                NOT_IN_GAMMA_N, False, True,
                reason="Pohozaev residual is nonzero")),
        ]
        stray_refused(MassVector.zero(spec), rng)
        for v, budget, want in cases:
            assert descend_to_zero(v, max_steps=budget) == want
            assert gamma_first_descent(v, max_steps=budget) == want


def growth(spec):
    """1 + max_i sum_{t != i} |k_it|, read off the Cartan matrix."""
    k = build(spec.family, spec.size)
    return 1 + max(int(sum(abs(k[i, t]) for t in spec.indices if t != i))
                   for i in spec.indices)


def reach(spec, length, m, l):
    """P = M + L l + sqrt(2) (L N_0 + l L (L-1)) + sqrt(n) (N_0 + 2 L l),
    the bound `_fold_width`'s docstring proves on every |value| within L
    letters from rows at most M with lifts at most l, where N_0 = 3
    sqrt(n+1) M; each root r(x) of an integer x is isqrt(x) + 1 > sqrt(x)."""
    def r(x):
        return isqrt(x) + 1
    L, n0 = length, r(9 * (spec.n + 1) * m * m)
    return (m + L * l + r(2 * (L * n0 + l * L * (L - 1)) ** 2)
            + r(spec.n * (n0 + 2 * L * l) ** 2))


def slot_bits(spec, length, m, l):
    """`_fold_width`: two bits past P, so a difference fits."""
    return reach(spec, length, m, l).bit_length() + 2


def kronecker(rows, b):
    """Each row as one int, column p at bit b*p."""
    return tuple(sum(c << b * p for p, c in enumerate(row)) for row in rows)


def moved(rows, j, p, dx, dy=0):
    """rows with dx added at row j, column p, and dy at column p+1."""
    row = list(rows[j])
    row[p] += dx
    if dy:
        row[p + 1] += dy
    return rows[:j] + (tuple(row),) + rows[j + 1:]


def folds_to(word, rows, spec, lifts, want=None):
    """The packed verdict: the word's packed fold of rows and lifts, packed
    at `_fold_width` of the `_peaks` of rows and want and of lifts, equals
    want (zero rows by default) packed at that width.  The letters are
    checked by `_letters`, as where a word enters."""
    m, l = _peaks(rows + (want or ()), lifts)
    packing = _packing(rows, lifts, _fold_width(spec, len(word), m, l))
    letters = _letters(word, spec)
    return tuple(packed_fold(letters, spec, packing)) == kronecker(
        want or [()] * len(rows), packing[2])


def random_form(rng, size, stray=True):
    """A form like those `forms` draws: Fractions (so d > 1), negative
    coefficients, a constant, s-terms and, if ``stray``, stray mu
    indices."""
    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    low, high = (-1, size + 2) if stray else (1, size)
    return LinForm.make(rational(), {rng.randint(low, high): rational()
                                     for _ in range(rng.randint(0, 4))},
                        {rng.randint(1, size): rational()
                         for _ in range(rng.randint(0, 2))})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(2, 12),
       st.sampled_from(["true", "off", "alias"]), st.booleans(), st.data())
def test_packed_fold_matches_row_fold(family, n, kind, overlay, data):
    spec = AlgebraSpec(family, n)
    size = spec.size
    # the end generators carry the doubled bonds of Ct, so draw them often
    letters = data.draw(st.lists(st.sampled_from([1, 2, n, size])
                                 | st.integers(1, size), max_size=60))
    if data.draw(st.integers(0, 9)) == 0:
        bad = data.draw(st.sampled_from([0, -1, size + 1]))
        letters.insert(data.draw(st.integers(0, len(letters))), bad)
    word = Word(tuple(letters))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    v = MassVector(spec, tuple(random_form(rng, size, stray=False)
                               for _ in range(size)))
    weights = [random_form(rng, size) for _ in range(size)] if overlay \
        else None
    layout, rows, lifts = _kernel_rows(v, weights)
    if not all(1 <= i <= size for i in letters):
        want = outcome(lambda: _fold(word, rows, spec, lifts))
        assert outcome(lambda: folds_to(word, rows, spec, lifts)) == want
        return
    got = _fold(word, rows, spec, lifts)
    m = max(abs(c) for row in rows for c in row)
    l = max((abs(c) for lift in lifts for _, c in lift), default=0)
    b = slot_bits(spec, len(letters), m, l)
    # the proved slot width, and no narrower: rows pack at exactly b bits
    assert _peaks(rows, lifts) == (m, l)
    assert _fold_width(spec, len(letters), m, l) == b
    packing = _packing(rows, lifts, b)
    dense = [[dict(lift).get(p, 0) for p in range(len(rows[0]))]
             for lift in lifts]
    assert packing == (kronecker(rows, b), kronecker(dense, b), b,
                       len(rows[0]))
    j = data.draw(st.integers(0, size - 1))
    p = data.draw(st.integers(0, len(rows[0]) - 1))
    if kind == "true":
        want = got
    elif kind == "off":
        want = moved(got, j, p, data.draw(st.sampled_from([-1, 1])))
    else:
        # 2^b moved from one slot up into the next: the same int at the
        # width the rows alone need, so only a wider slot tells it apart
        p = min(p, len(rows[0]) - 2)
        want = moved(got, j, p, 1 << b, -1)
        assert kronecker(want, b) == kronecker(got, b)
    # the packed verdict, and apply_word's decoded rows, are the row fold's;
    # apply_word refuses an overlay naming a stray index before it folds
    if any(not 1 <= i <= size for w in weights or () for i, _ in w.mu):
        with pytest.raises(DomainError, match="outside 1..%d" % size):
            apply_word(word, v, weights)
    else:
        assert apply_word(word, v, weights) == MassVector(
            spec, tuple(_form(row, layout) for row in got))
    assert folds_to(word, rows, spec, lifts, want) == (got == want) \
        == (kind == "true")
    zero = tuple((0,) * len(row) for row in rows)
    assert folds_to(word, rows, spec, lifts) == (got == zero)


def prefix_peaks(spec, rows, lifts, letters):
    """The largest |value| after each prefix of the letters (0-based, in
    acting order), folded on tuple rows one letter at a time, each checked
    against `_reach`, which must equal `reach`, of the prefix's length."""
    nbrs = _neighbours(spec)
    m = max(abs(c) for row in rows for c in row)
    l = max((abs(c) for lift in lifts for _, c in lift), default=0)
    peak, peaks = m, []
    for k, i in enumerate(letters, 1):
        rows = _reflect(rows, i, nbrs, lifts[i])
        peak = max(peak, *map(abs, rows[i]))
        assert peak <= _reach(spec, k, m, l) == reach(spec, k, m, l), \
            (spec, k, m, l)
        peaks.append(peak)
    return peaks


@pytest.mark.parametrize("family", FAMILIES)
def test_no_value_passes_the_slot_bound(family):
    """P bounds every value after every prefix, at ranks 2-12: of the
    Coxeter element's powers from zero, whose coefficients grow
    quadratically (past any bound linear in the letters at ranks 2-3), of
    random words from zero, and of random words on random rows at most
    1000 with dense random lifts at most 1000."""
    rng = random.Random(31)
    for n in range(2, 13):
        spec = AlgebraSpec(family, n)
        size = spec.size
        _, zero, lifts = _kernel_rows(MassVector.zero(spec))
        peaks = prefix_peaks(spec, zero, lifts, [k % size for k in range(800)])
        assert peaks[799] > 3 * peaks[399], spec  # quadratic, not linear
        for _ in range(3):
            word = [rng.randrange(size) for _ in range(rng.randint(1, 800))]
            prefix_peaks(spec, zero, lifts, word)
            width, m, l = rng.randint(2, 6), rng.randint(0, 1000), \
                rng.randint(0, 1000)
            rows = tuple(tuple(rng.randint(-m, m) for _ in range(width))
                         for _ in range(size))
            dense = tuple(tuple((p, rng.randint(-l, l)) for p in range(width))
                          for _ in range(size))
            prefix_peaks(spec, rows, dense, word)


@pytest.mark.parametrize("family", FAMILIES)
def test_packed_bfs_matches_the_tuple_bfs(family):
    """`_ranked_orbit` reflects rows packed at P's slot width for its
    depth; decoded, its nodes are those of the breadth-first search by
    `_reflect` on tuple rows, at ranks 2-7 and every depth up to 8."""
    for n in range(2, 8):
        spec = AlgebraSpec(family, n)
        want = bfs_rows(spec, 8)
        for depth in range(9):
            forms, nodes = ranked_nodes(spec, depth)
            rows = [(e.const,) + tuple(dict(e.mu).get(i, 0)
                                       for i in spec.indices) for e in forms]
            got = {(tuple(map(rows.__getitem__, ids)), word)
                   for _, ids, word in nodes}
            assert len(got) == len(nodes)
            assert got == {(r, w) for r, w in want if len(w) <= depth}, \
                (spec, depth)


def rowwise_descend(rows, d, spec, max_steps):
    """The greedy descent as it ran on rows: each step reflects them, reads
    the deltas afresh from them, and tests every row for zero."""
    nbrs = _neighbours(spec)
    lifts = tuple(((i, 2 * d),) for i in spec.indices)
    applied = []
    while any(map(any, rows)):
        if len(applied) >= max_steps:
            return applied, "step budget exhausted"
        deltas = _deltas(rows, d, spec)
        i = next((i for i, delta in enumerate(deltas) if delta < 0), -1)
        if i < 0:
            return applied, "no descending generator"
        rows = _reflect(rows, i, nbrs, lifts[i])
        applied.append(i + 1)
    return applied, ""


def mass_rows(v):
    """(rows, d) as `_membership` hands them to `_descend`."""
    layout, rows, _ = _int_rows(v.entries, None)
    d, mass = _mass_rows(layout, rows, v.spec.size)
    return mass, d


def assert_descents_agree(v, budgets):
    rows, d = mass_rows(v)
    for budget in budgets:
        assert _descend(rows, d, v.spec, budget) == \
            rowwise_descend(rows, d, v.spec, budget), (str(v), budget)


def test_descent_from_deltas_matches_rowwise_on_criterion_8_sweep():
    from test_acceptance import ORBIT_SWEEP
    for family, n, depth in ORBIT_SWEEP:
        for nd in enumerate_orbit(AlgebraSpec(family, n), depth):
            level = nd.level
            assert_descents_agree(nd.vector, {max(level - 1, 0), level,
                                              max(4 * level, 1)})


def ascended(spec, level, rng):
    """An orbit vector reached from zero by `level` phi-raising letters,
    built on rows."""
    nbrs = _neighbours(spec)
    layout, rows, lifts = _kernel_rows(MassVector.zero(spec))
    for _ in range(level):
        ups = [i for i, delta in enumerate(_deltas(rows, 1, spec))
               if delta > 0]
        i = rng.choice(ups)
        rows = _reflect(rows, i, nbrs, lifts[i])
    return MassVector(spec, tuple(_form(row, layout) for row in rows))


def test_descent_from_deltas_matches_rowwise_deep_and_off_the_orbit():
    rng = random.Random(17)
    for family in FAMILIES:
        for n in range(3, 9):
            spec = AlgebraSpec(family, n)
            for level in (0, 1, 7, 40, 120):
                v = ascended(spec, level, rng)
                # every budget up to the level, at level 120 every 7th
                budgets = set(range(0, level + 1, 7 if level > 40 else 1))
                budgets |= {max(level - 1, 0), level, 2 * level + 8, 256}
                assert_descents_agree(v, budgets)
                assert len(_descend(*mass_rows(v), spec, 256)[0]) == level
                for defect in ("half", "residual"):
                    assert_descents_agree(bumped(v, rng, DEFECTS[defect]),
                                          budgets)
                stray_refused(v, rng)


def test_wide_slots_fold_the_rows():
    """Words of 240-600 letters, past the 320-bit slots that once capped
    packing, pack at P's width: the descent, the packed verdict, aliasing
    2^b one slot up included, and the relation check answer as the rows
    themselves do."""
    rng = random.Random(29)
    for family in FAMILIES:
        for n in (3, 12):
            spec = AlgebraSpec(family, n)
            v = ascended(spec, 260, rng)
            rows, d = mass_rows(v)
            lifts = tuple(((i, 2 * d),) for i in spec.indices)
            m = max(abs(c) for row in rows for c in row)
            # the descent's zero check packs at this width
            assert _peaks(rows, lifts) == (m, 2 * d)
            assert _fold_width(spec, 260, m, 2 * d) == \
                slot_bits(spec, 260, m, 2 * d)
            assert_descents_agree(v, {0, 259, 260, 600})
            word = Word(tuple(rng.randint(1, spec.size) for _ in range(300)))
            _, rows, lifts = _kernel_rows(v)
            got = _fold(word, rows, spec, lifts)
            assert folds_to(word, rows, spec, lifts, got)
            assert not folds_to(word, rows, spec, lifts, moved(got, 0, 1, 1))
            assert not folds_to(word, rows, spec, lifts)
            m = max(abs(c) for row in rows + got for c in row)
            l = max(abs(c) for lift in lifts for _, c in lift)
            b = slot_bits(spec, 300, m, l)
            assert _fold_width(spec, 300, *_peaks(rows + got, lifts)) == b
            p = rng.randrange(len(rows[0]) - 1)
            alias = moved(got, 0, p, 1 << b, -1)
            assert kronecker(alias, b) == kronecker(got, b)
            assert not folds_to(word, rows, spec, lifts, alias)
            # a word times its reverse is the identity
            back = Word(word.letters[::-1])
            assert folds_to(word * back, rows, spec, lifts, rows)
            order = 3 if family == "affine_a" else 4
            assert _peaks(*_generic_rows(spec)[1:]) == (1, 2)
            assert _generic_packing(spec, order * 80)[2] == \
                slot_bits(spec, order * 80, 1, 2)
            assert verify_relation(Word.of(1, 2).power(order * 80), spec)
            assert not verify_relation(Word.of(1, 2).power(order * 80 + 1),
                                       spec)
            assert outcome(lambda: verify_relation(
                Word.of(1, 2).power(order * 80) * Word.of(spec.size + 1),
                spec)) == outcome(lambda: _fold(Word.of(spec.size + 1), rows,
                                                spec, lifts))


def chain_blocks(family, n):
    """Every block chain --set j:l, and in affine A --wrap r2,r1, names at
    rank n: tail blocks, which end at n+1, included, the whole index set
    not."""
    for j in range(1, n + 2):
        for l in range(0, n + 2 - j - (j == 1)):
            yield ConsecutiveSet(j, l)
    if family == "affine_a":
        for r2 in range(3, n + 2):
            for r1 in range(1, r2 - 1):
                yield ConsecutiveSet(r2, (n + 1) - r2 + r1, wrap=True)


def with_row(new, s, row):
    """The target rows ``new`` with block entry s's row replaced."""
    return {**new, s: row}


@pytest.mark.parametrize("family", FAMILIES)
def test_chain_verdict_on_the_generic_packing_matches_the_row_fold(family):
    """chain --verify's verdict and target text on every block at ranks
    2-12, 16 and 20: Ct head and tail chains there reach 225-400 letters,
    past the 320-bit slots that once capped packing, and pack at P's
    width like every other chain.  The target is summed on the generic
    packing and compared there packed: the true one is equal, one off by
    one in a slot unequal.  The bound 1 + 6 E^2 on its coefficients lies
    below 2^(b-1), so every target fits the packing; one aliased at 2^b
    one slot up, the same int at width b, is told apart on wider slots.
    The text, decoded from the packed rows as it is written, equals the
    forms' own on targets with a constant or a zero entry too."""
    rng = random.Random(19)
    builder = chain_word_a if family == "affine_a" else chain_word_ct
    for n in [*range(2, 13), 16, 20]:
        spec = AlgebraSpec(family, n)
        layout, rows, lifts = _generic_rows(spec)
        generic, width = MassVector.generic(spec), len(rows[0])
        for J in chain_blocks(family, n):
            word = builder(J, spec).word
            got = _fold(word, rows, spec, lifts)
            e = len(J.indices(n))
            e += e - 1 if family == "affine_ct" and not J.is_interior(n) else 0
            assert len(_extension(J, spec)[1]) == e
            packing = _generic_packing(spec, len(word))
            # the proved slot width, M = 1 the generic rows, l = 2 the lift
            b = slot_bits(spec, len(word), 1, 2)
            assert packing[2:] == (b, width)
            new = _block_rows(packing, spec, _extension(J, spec))
            target = dict(zip(new, _unpack(new.values(), packing)))
            assert 1 + 6 * e * e < 1 << b - 1, (spec, J)
            s, p = rng.choice(sorted(new)), rng.randrange(width - 1)
            step = rng.choice([-1, 1])
            row = target[s]
            off = row[:p] + (row[p] + step,) + row[p + 1:]
            alias = moved(tuple(target.values()), list(target).index(s), p,
                          1 << b, -1)
            assert kronecker(alias, b) == tuple(new.values())
            for packed, rows_new, equal in (
                    (new, target, True),
                    (with_row(new, s, new[s] + (step << b * p)),
                     with_row(target, s, off), False),
                    (None, dict(zip(target, alias)), False)):
                want = tuple(rows_new.get(t, r) for t, r in enumerate(rows, 1))
                assert (got == want) is equal, (spec, J)
                assert folds_to(word, rows, spec, lifts, want) is equal
                if packed:
                    assert kronecker([off], b)[0] == new[s] + (step << b * p)
                    want = tuple(packed.get(t, r)
                                 for t, r in enumerate(packing[0], 1))
                    assert (tuple(packed_fold(_acting(word), spec, packing))
                            == want) is equal, (spec, J)
            constant = (rng.choice([-3, 1, 7]),) + row[1:]
            zero = (0,) * width
            for target in (target, with_row(target, s, off),
                           with_row(target, s, constant),
                           with_row(target, s, zero)):
                packed = dict(zip(target, kronecker(target.values(), b)))
                assert _generic_text(spec, packed, packing) == str(MassVector(
                    spec, tuple(_form(target[t], layout) if t in target
                                else f for t, f in enumerate(
                                    generic.entries, 1)))), (spec, J)
