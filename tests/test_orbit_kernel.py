"""Differential tests: the integer orbit kernel against the LinForm path.

The oracles below are the symbolic implementations that enumeration,
DOT export and descent used before they moved onto integer coefficient
rows; they build every vector with `apply_generator`.  Membership is
also checked against the order it used to take: `gamma_n_test` first,
then the integer descent.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from todamass.algebra import AlgebraSpec, LinForm, MassVector
from todamass.action import Word, apply_generator, apply_word
from todamass.errors import NotMassForm
from todamass.orbit import (DESCENT_STALLED, MEMBER, NOT_IN_GAMMA_N,
                            MembershipReport, OrbitNode, _form, _neighbours,
                            _reflect, coefficient_matrix, descend_to_zero,
                            enumerate_orbit, export_graph, gamma_n_test)

FAMILIES = ("affine_a", "affine_ct")
CRITERION_12_SWEEP = (("affine_a", 2, 6), ("affine_a", 3, 4),
                      ("affine_ct", 3, 4))


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
                child = apply_generator(i, node.vector)
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


def replayed_edges(nodes):
    """DOT edge lines, each parent found by replaying the witness from zero."""
    ids = {nd.vector.canonical_key(): k for k, nd in enumerate(nodes)}
    lines = []
    for k, nd in enumerate(nodes):
        if nd.witness.letters:
            parent = apply_word(Word(nd.witness.letters[1:]),
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
            child = apply_generator(i, cur)
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
    rows = tuple(tuple(int(2 * c) for c in row)
                 for row in coefficient_matrix(v).entries)
    zero = ((0,) * v.spec.size,) * v.spec.size
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
        rows = _reflect(rows, i, nbrs)
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
        ups = [c for c in (apply_generator(i, v) for i in spec.indices)
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
    rows = ((0,) * spec.size,) * spec.size
    v = MassVector.zero(spec)
    for i in letters:
        rows = _reflect(rows, i - 1, nbrs)
        v = apply_generator(i, v)
        assert MassVector(spec, tuple(map(_form, rows))) == v


@pytest.mark.parametrize("family,n,depth", CRITERION_12_SWEEP)
def test_enumeration_matches_linform_bfs(family, n, depth):
    spec = AlgebraSpec(family, n)
    nodes = enumerate_orbit(spec, depth)
    for skip in (True, False):
        assert nodes == linform_enumerate(spec, depth, skip_repeat=skip)


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
                v = apply_word(word, MassVector.zero(spec))
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
    return v.replace(i, v.entry(i) + LinForm.weight(j, amount))


DEFECTS = {"member": None, "half": 1, "third": Fraction(2, 3),
           "negative": -2, "residual": 2, "stray": 2}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(2, 7), st.integers(0, 25),
       st.sampled_from(sorted(DEFECTS)), st.integers(0, 10 ** 6))
def test_membership_matches_gamma_first_order(family, n, level, defect, seed):
    spec = AlgebraSpec(family, n)
    rng = random.Random(seed)
    v = ascent(spec, level, rng)
    if defect != "member":
        # "stray" puts the term on mu_{n+2}, which no orbit entry has
        stray = spec.size + 1 if defect == "stray" else None
        v = bumped(v, rng, DEFECTS[defect], stray)
    budgets = {256, 0, rng.randint(0, level), level}
    for budget in sorted(budgets):
        report = descend_to_zero(v, max_steps=budget)
        assert report == gamma_first_descent(v, max_steps=budget), budget


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
            (bumped(MassVector.zero(spec), rng, 2, spec.size + 1), 256,
             MembershipReport(NOT_IN_GAMMA_N, False, True,
                              reason="Pohozaev residual is nonzero")),
        ]
        for v, budget, want in cases:
            assert descend_to_zero(v, max_steps=budget) == want
            assert gamma_first_descent(v, max_steps=budget) == want
