import io
import json
import sys
from collections import Counter

import pytest
from test_algebra import replaced

from todamass.algebra import AlgebraSpec, LinForm, MassVector
from todamass.action import Word, apply_word
from todamass.cartan import (ConsecutiveSet, build, inverse_finite_a,
                             inverse_submatrix)
from todamass import perms
from todamass.chains import (CASE_TAGS, Decomposition, _std_chain, blowup_step,
                             chain_word_a, chain_word_ct, closed_form_a,
                             closed_form_ct)
from todamass.cli import run
from todamass.errors import DecompositionError, DomainError
from todamass.orbit import MEMBER, descend_to_zero
from todamass.perms import SPermC, mu_star, sigma_f_ct


def a_spec(n):
    return AlgebraSpec("affine_a", n)


def ct_spec(n):
    return AlgebraSpec("affine_ct", n)


def all_consecutive_proper(n):
    for j in range(1, n + 2):
        for l in range(0, n + 1 - j):
            yield ConsecutiveSet(j, l)


def all_wrap(n):
    for r2 in range(3, n + 2):
        for r1 in range(1, r2 - 1):
            J = ConsecutiveSet(r2, (n + 1) - r2 + r1, wrap=True)
            if J.size <= n:
                yield J


def old_std_chain(l):
    """The chain letters with l = 2 and l = 3 written out as base cases."""
    if l == 0:
        return (1,)
    if l == 1:
        return (1, 2, 1)
    if l == 2:
        return (2, 3, 1) * 2
    if l == 3:
        return (2, 3, 4, 2, 1) * 2
    block = tuple(range(2, l + 2)) + tuple(range(l - 1, 0, -1))
    return tuple(p + 2 for p in old_std_chain(l - 4)) + block * 2


def recursive_std_chain(l):
    """The chain letters by their recursive definition."""
    if l == 0:
        return (1,)
    if l == 1:
        return (1, 2, 1)
    block = tuple(range(2, l + 2)) + tuple(range(l - 1, 0, -1))
    middle = (tuple(p + 2 for p in recursive_std_chain(l - 4))
              if l >= 4 else ())
    return middle + block * 2


def test_std_chain_matches_written_out_base_cases():
    for l in range(31):
        assert _std_chain(l) == old_std_chain(l), l


def test_std_chain_loop_matches_recursive_definition():
    for l in range(61):
        assert _std_chain(l) == recursive_std_chain(l), l


def test_std_chain_at_l_4000_has_the_chain_length():
    # the recursive definition nests 1000 deep here
    assert len(_std_chain(4000)) == 4001 * 4002 // 2


def closed_form_a_blocks(n):
    """Every block `closed_form_a` accepts at rank n, by family."""
    for spec in (a_spec(n), ct_spec(n)):
        z = MassVector.zero(spec)
        for start in range(1, n + 2):
            for length in range(n + 1):
                for wrap in (False, True):
                    J = ConsecutiveSet(start, length, wrap)
                    try:
                        closed_form_a(z, J)
                    except DomainError:
                        continue
                    yield spec, J


def test_closed_form_inverse_applies_to_every_accepted_block():
    kinds = {"a": 0, "wrap": 0, "ct": 0}
    for n in range(2, 13):
        for spec, J in closed_form_a_blocks(n):
            K = inverse_submatrix(build(spec.family, spec.size), J)
            assert K.entries == \
                inverse_finite_a(len(J.indices(n))).entries, (spec, J)
            kinds["ct" if spec.family == "affine_ct" else
                  "wrap" if J.wrap else "a"] += 1
    # (n+1)(n+2)/2 - 1 proper A blocks, n(n-1)/2 wrap blocks and as many
    # Ct interior blocks at each rank: 1,012 in all
    assert kinds == {"a": 440, "wrap": 286, "ct": 286}


def outcome(call):
    """What a call gives: its value, or its error's type and text."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def test_closed_form_ct_is_sigma_f_ct_of_the_reversal():
    """Every block that is not interior, valid or not, at ranks 2-11."""
    compared = 0
    for n in range(2, 12):
        v = MassVector.generic(ct_spec(n))
        for start in range(n + 4):
            for length in range(n + 3):
                for wrap in (False, True):
                    try:
                        J = ConsecutiveSet(start, length, wrap)
                    except DomainError:
                        continue
                    if J.is_interior(n):
                        continue
                    f = SPermC.reversal(length)
                    assert outcome(lambda: closed_form_ct(v, J)) \
                        == outcome(lambda: sigma_f_ct(v, f, J))
                    compared += 1
    assert compared == 1750


def test_each_chain_target_reads_its_block_once(monkeypatch):
    calls, block = [], perms._block

    def counted(J, spec):
        calls.append(J)
        return block(J, spec)

    for module in list(sys.modules.values()):  # wherever it is bound
        if getattr(module, "_block", None) is block:
            monkeypatch.setattr(module, "_block", counted)
    a, ct = MassVector.generic(a_spec(6)), MassVector.generic(ct_spec(6))
    out = io.StringIO()
    for call in (
            lambda: closed_form_a(a, ConsecutiveSet(2, 3)),
            lambda: closed_form_a(a, ConsecutiveSet(6, 3, wrap=True)),
            lambda: closed_form_a(ct, ConsecutiveSet(2, 3)),
            lambda: closed_form_ct(ct, ConsecutiveSet(1, 2)),
            lambda: sigma_f_ct(ct, SPermC.identity(2), ConsecutiveSet(5, 2)),
            lambda: run(["chain", "--family", "a", "--rank", "6", "--set",
                         "2:3", "--verify"], out=out),
            lambda: run(["chain", "--family", "ct", "--rank", "6", "--set",
                         "1:2", "--verify"], out=out)):
        calls.clear()
        call()
        assert len(calls) == 1
    assert out.getvalue().count("\nEQUAL\n") == 2


def test_every_chain_word_is_reduced():
    # the orbit of 0 has trivial stabiliser, so a word's Coxeter length is
    # the level of R_w(0): w is reduced exactly when the descent takes
    # R_w(0) to zero in len(w) steps
    blocks = 0
    for n in range(2, 11):
        for spec, builder in ((a_spec(n), chain_word_a),
                              (ct_spec(n), chain_word_ct)):
            zero = MassVector.zero(spec)
            for start in range(1, n + 2):
                for length in range(n + 1):
                    for wrap in (False, True):
                        try:
                            word = builder(ConsecutiveSet(start, length, wrap),
                                           spec).word
                        except DomainError:
                            continue
                        report = descend_to_zero(apply_word(word, zero),
                                                 max_steps=len(word))
                        assert report.verdict == MEMBER, (spec, start, length)
                        assert report.steps == len(word), (spec, start, length)
                        blocks += 1
    # at each rank, (n+1)(n+2)/2 - 1 proper blocks in each family and
    # n(n-1)/2 wrap blocks of affine A: 711 in all
    assert blocks == sum(2 * ((n + 1) * (n + 2) // 2 - 1) + n * (n - 1) // 2
                         for n in range(2, 11)) == 711


def test_chain_word_shapes():
    spec = a_spec(6)
    assert chain_word_a(ConsecutiveSet(3, 0), spec).word == Word.of(3)
    assert chain_word_a(ConsecutiveSet(2, 1), spec).word == Word.of(2, 3, 2)
    assert chain_word_a(ConsecutiveSet(1, 2), spec).word == \
        Word.of(2, 3, 1, 2, 3, 1)
    assert chain_word_a(ConsecutiveSet(1, 3), spec).word == \
        Word.of(2, 3, 4, 2, 1, 2, 3, 4, 2, 1)


def test_chain_length_law():
    # |word| = |J| (|J|+1) / 2, spot column 1, 3, 6, 10, 15, 21
    spot = {1: 1, 2: 3, 3: 6, 4: 10, 5: 15, 6: 21}
    for n in range(2, 9):
        spec = a_spec(n)
        for J in all_consecutive_proper(n):
            length = len(chain_word_a(J, spec).word)
            assert length == J.size * (J.size + 1) // 2
            if J.size in spot:
                assert length == spot[J.size]
        for J in all_wrap(n):
            assert len(chain_word_a(J, spec).word) == \
                J.size * (J.size + 1) // 2


def test_chain_rejects_full_set():
    with pytest.raises(DomainError):
        chain_word_a(ConsecutiveSet(1, 2), a_spec(2))
    with pytest.raises(DomainError):
        chain_word_ct(ConsecutiveSet(1, 2), ct_spec(2))


def test_ct_chain_shapes():
    spec = ct_spec(4)
    assert chain_word_ct(ConsecutiveSet(1, 1), spec).word == \
        Word.of(2, 1, 2, 1)
    assert chain_word_ct(ConsecutiveSet(4, 1), spec).word == \
        Word.of(4, 5, 4, 5)
    assert chain_word_ct(ConsecutiveSet(2, 1), spec).word == Word.of(2, 3, 2)
    for l in range(1, 4):
        assert len(chain_word_ct(ConsecutiveSet(1, l), spec).word) == \
            (l + 1) ** 2


def test_mu_star():
    spec = a_spec(2)
    stars = mu_star(MassVector.zero(spec))
    assert stars == [LinForm.weight(i) for i in (1, 2, 3)]
    v = MassVector(spec, (LinForm.weight(1, 2), LinForm.zero(),
                          LinForm.zero()))
    stars = mu_star(v)
    assert stars[0] == LinForm.make(0, {1: -1})
    assert stars[1] == LinForm.make(0, {2: 1, 1: 1})
    assert stars[2] == LinForm.make(0, {3: 1, 1: 1})


def test_closed_form_a_examples():
    spec = a_spec(3)
    z = MassVector.zero(spec)
    one = closed_form_a(z, ConsecutiveSet(1, 0))
    assert one.entry(1) == LinForm.weight(1, 2)
    two = closed_form_a(z, ConsecutiveSet(1, 1))
    both = LinForm.make(0, {1: 2, 2: 2})
    assert two.entry(1) == both and two.entry(2) == both
    assert two == apply_word(Word.of(1, 2, 1), z)


def test_universal_chain_identity_a():
    # word application and closed form agree on fully generic entries
    for n in range(2, 6):
        spec = a_spec(n)
        g = MassVector.generic(spec)
        for J in all_consecutive_proper(n):
            plan = chain_word_a(J, spec)
            assert apply_word(plan.word, g) == closed_form_a(g, J)


def test_universal_chain_identity_a_wrap():
    for n in (4, 5):
        spec = a_spec(n)
        g = MassVector.generic(spec)
        for J in all_wrap(n):
            plan = chain_word_a(J, spec)
            assert apply_word(plan.word, g) == closed_form_a(g, J)


def test_closed_form_ct_tail_example():
    spec = ct_spec(2)
    z = MassVector.zero(spec)
    J = ConsecutiveSet(2, 1)
    got = closed_form_ct(z, J)
    assert got.entry(1).is_zero
    assert got.entry(2) == LinForm.make(0, {2: 4, 3: 2})
    assert got.entry(3) == LinForm.make(0, {2: 4, 3: 4})
    assert got == apply_word(chain_word_ct(J, spec).word, z)


def test_closed_form_ct_head_example():
    spec = ct_spec(2)
    z = MassVector.zero(spec)
    J = ConsecutiveSet(1, 1)
    assert closed_form_ct(z, J) == \
        apply_word(chain_word_ct(J, spec).word, z)


def test_universal_chain_identity_ct():
    for n in range(2, 6):
        spec = ct_spec(n)
        g = MassVector.generic(spec)
        for l in range(0, n):
            J = ConsecutiveSet(1, l)
            assert apply_word(chain_word_ct(J, spec).word, g) == \
                closed_form_ct(g, J)
        for i in range(2, n + 2):
            J = ConsecutiveSet(i, n + 1 - i)
            assert apply_word(chain_word_ct(J, spec).word, g) == \
                closed_form_ct(g, J)
        for J in all_consecutive_proper(n):
            if J.is_interior(n):
                assert apply_word(chain_word_ct(J, spec).word, g) == \
                    closed_form_a(g, J)


def rank_seven_blocks():
    """Every block of A at rank 7, wrap blocks included, with its closed
    form, then every Ct head, tail and interior block with its own."""
    n = 7
    proper = [ConsecutiveSet(j, l) for j in range(1, n + 2)
              for l in range(0, min(n, n + 2 - j))]
    for J in proper + list(all_wrap(n)):
        yield a_spec(n), chain_word_a, J, closed_form_a
    for J in proper:
        closed = closed_form_a if J.is_interior(n) else closed_form_ct
        yield ct_spec(n), chain_word_ct, J, closed


def test_rank_seven_chains_equal_their_closed_forms():
    kinds = {"a": 0, "wrap": 0, "head": 0, "tail": 0, "interior": 0}
    for spec, chain, J, closed in rank_seven_blocks():
        g = MassVector.generic(spec)
        assert apply_word(chain(J, spec).word, g) == closed(g, J), (spec, J)
        if spec.family == "affine_a":
            kinds["wrap" if J.wrap else "a"] += 1
        else:
            kinds["head" if J.is_head(7) else
                  "tail" if J.is_tail(7) else "interior"] += 1
    assert kinds == {"a": 35, "wrap": 21, "head": 7, "tail": 7,
                     "interior": 21}


def test_closed_form_ct_rejects_interior():
    with pytest.raises(DomainError):
        closed_form_ct(MassVector.zero(ct_spec(4)), ConsecutiveSet(2, 1))
    with pytest.raises(DomainError):
        closed_form_a(MassVector.zero(ct_spec(4)), ConsecutiveSet(1, 1))


def test_ct_wrap_blocks_are_rejected_as_wrap_blocks():
    # {5, 1} is a valid wrap set at rank 4, but affine Ct has none: every
    # Ct entry point says so, not that the block is boundary or interior
    spec = ct_spec(4)
    z = MassVector.zero(spec)
    J = ConsecutiveSet(5, 1, wrap=True)
    assert J.indices(4) == [5, 1]
    for call in (lambda: chain_word_ct(J, spec),
                 lambda: closed_form_ct(z, J),
                 lambda: closed_form_a(z, J),
                 lambda: sigma_f_ct(z, SPermC.identity(1), J)):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == "affine Ct has no wrap-around blocks"


def test_decomposition_valid_cases():
    # A-I: a single block away from the wrap seam
    d = Decomposition(a_spec(4), "A-I", (ConsecutiveSet(2, 1),),
                      frozenset({1, 4, 5}))
    d.validate()
    # A-II: wrap block plus an interior block
    d = Decomposition(a_spec(5), "A-II",
                      (ConsecutiveSet(5, 2, wrap=True), ConsecutiveSet(3, 0)),
                      frozenset({2, 4}))
    d.validate()
    # Ct-I / Ct-II / Ct-III / Ct-IV
    Decomposition(ct_spec(4), "Ct-I", (ConsecutiveSet(1, 1),),
                  frozenset({3, 4, 5})).validate()
    Decomposition(ct_spec(4), "Ct-II", (ConsecutiveSet(4, 1),),
                  frozenset({1, 2, 3})).validate()
    Decomposition(ct_spec(4), "Ct-III",
                  (ConsecutiveSet(1, 1), ConsecutiveSet(4, 1)),
                  frozenset({3})).validate()
    Decomposition(ct_spec(4), "Ct-IV", (ConsecutiveSet(3, 0),),
                  frozenset({1, 2, 4, 5})).validate()


@pytest.mark.parametrize("make", [
    # A-II with a block adjacent to the wrap block: not maximal
    lambda: Decomposition(a_spec(4), "A-II",
                          (ConsecutiveSet(4, 2, wrap=True),
                           ConsecutiveSet(3, 0)), frozenset({2})),
    # overlap
    lambda: Decomposition(a_spec(4), "A-I",
                          (ConsecutiveSet(2, 1), ConsecutiveSet(3, 0)),
                          frozenset({1, 5})),
    # cover failure
    lambda: Decomposition(a_spec(4), "A-I", (ConsecutiveSet(2, 0),),
                          frozenset({1, 5})),
    # A-I without boundary contact in N
    lambda: Decomposition(a_spec(4), "A-I", (ConsecutiveSet(5, 1, wrap=True),),
                          frozenset({2, 3, 4})),
    # Ct-I head missing
    lambda: Decomposition(ct_spec(4), "Ct-I", (ConsecutiveSet(2, 0),),
                          frozenset({1, 4, 5})),
    # Ct-III at too small a rank
    lambda: Decomposition(ct_spec(3), "Ct-III",
                          (ConsecutiveSet(1, 0), ConsecutiveSet(4, 0)),
                          frozenset({2, 3})),
    # Ct-IV with a boundary block
    lambda: Decomposition(ct_spec(4), "Ct-IV", (ConsecutiveSet(1, 0),),
                          frozenset({2, 3, 4, 5})),
    # unknown tag
    lambda: Decomposition(a_spec(4), "A-III", (ConsecutiveSet(2, 0),),
                          frozenset({1, 3, 4, 5})),
])
def test_decomposition_invalid_cases(make):
    with pytest.raises(DecompositionError):
        make().validate()


def test_blowup_single_block():
    spec = a_spec(4)
    d = Decomposition(spec, "A-I", (ConsecutiveSet(1, 0),),
                      frozenset({2, 3, 4, 5}))
    result = blowup_step(MassVector.zero(spec), d)
    assert result.word == Word.of(1)
    assert result.vector.entry(1) == LinForm.weight(1, 2)


def test_blowup_ct_two_commuting_generators():
    spec = ct_spec(4)
    d = Decomposition(spec, "Ct-IV",
                      (ConsecutiveSet(2, 0), ConsecutiveSet(4, 0)),
                      frozenset({1, 3, 5}))
    result = blowup_step(MassVector.zero(spec), d)
    assert result.word == Word.of(2, 4)
    assert result.vector.entries == (LinForm.zero(), LinForm.weight(2, 2),
                                     LinForm.zero(), LinForm.weight(4, 2),
                                     LinForm.zero())


def all_decompositions(n):
    """Every 1- and 2-block decomposition `Decomposition.validate` accepts
    at rank n, in both families, the null set the blocks' complement."""
    blocks = []
    for start in range(1, n + 2):
        for length in range(n + 1):
            for wrap in (False, True):
                J = ConsecutiveSet(start, length, wrap)
                try:
                    if len(J.indices(n)) <= n:
                        blocks.append(J)
                except DomainError:
                    continue
    choices = [(J,) for J in blocks] + [(J, K) for J in blocks
                                        for K in blocks if J != K]
    for spec in (a_spec(n), ct_spec(n)):
        for tag in CASE_TAGS:
            for chosen in choices:
                null_set = frozenset(spec.indices).difference(
                    *(J.indices(n) for J in chosen))
                d = Decomposition(spec, tag, chosen, null_set)
                try:
                    d.validate()
                except DecompositionError:
                    continue
                yield d


def assert_indented_json(v):
    """blowup-step's JSON, assembled from cached entry renderings, equals
    json.dumps'."""
    assert v.to_json(indent=2) == json.dumps(v.to_json_dict(), indent=2,
                                             sort_keys=True)


def test_blowup_matches_per_block_closed_forms():
    # block chains act on disjoint supports: the word result must agree
    # with the closed-form updates taken against the initial vector, and
    # the word is reduced, its length the level of its result on zero
    tags = Counter()
    for n in range(2, 7):
        for d in all_decompositions(n):
            spec = d.spec
            g = MassVector.generic(spec)
            expect = g
            for J in d.blocks:
                target = (closed_form_ct(g, J) if spec.family == "affine_ct"
                          and not J.is_interior(n) else closed_form_a(g, J))
                for i in J.indices(n):
                    expect = replaced(expect, i, target.entry(i))
            result = blowup_step(g, d)
            # the word's action is the oracle for the closed forms
            assert result.vector == expect == apply_word(result.word, g), d
            assert_indented_json(result.vector)
            zero = MassVector.zero(spec)
            result = blowup_step(zero, d)
            assert result.vector == apply_word(result.word, zero), d
            assert_indented_json(result.vector)
            report = descend_to_zero(result.vector,
                                     max_steps=len(result.word))
            assert report.verdict == MEMBER, d
            assert report.steps == len(result.word), d
            tags[d.case_tag] += 1
    assert set(tags) == set(CASE_TAGS)
    assert sum(tags.values()) == 506


def test_blowup_rejects_invalid():
    spec = a_spec(4)
    d = Decomposition(spec, "A-II",
                      (ConsecutiveSet(4, 2, wrap=True), ConsecutiveSet(3, 0)),
                      frozenset({2}))
    with pytest.raises(DecompositionError):
        blowup_step(MassVector.zero(spec), d)
