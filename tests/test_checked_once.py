"""Each identity verb reads its input once, checks it where it enters, and
decodes its result once.

- `action._letters` is the one check of a word's letters.  Only the entry
  points `apply_word` (and so `apply_generator`) and `verify_relation`
  make it, once per word; the words the code builds itself, the chains of
  `chain --verify` and `blowup-step` and the descent of `member`, go to
  `action._fold` unchecked.
- Every `SPermC` is built by its checked constructor, so `compose` and
  `sc_simple` check their result once.  `sperm` swaps one value list in
  place and checks nothing but, with `--check`, the final values, once;
  `closed_form_ct` builds no permutation at all.
- `blowup-step` works on the rows its input is read into, and gives what
  `blowup_step` gives on `MassVector.from_json` of that input, errors in
  the same order.
"""

import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from row_fold import _fold as row_fold

from todamass import action
from todamass.algebra import AlgebraSpec, LinForm, MassVector, _form
from todamass.action import (Word, _kernel_rows, apply_generator, apply_word,
                             presentation_relations, verify_relation)
from todamass.cartan import ConsecutiveSet
from todamass.chains import (Decomposition, blowup_step, chain_word_a,
                             chain_word_ct, closed_form_ct)
from todamass.cli import _write_word, run
from todamass.errors import DomainError
from todamass.orbit import descend_to_zero, enumerate_orbit
from todamass.perms import SPermC, sc_simple


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    return run(argv, out, err), out.getvalue(), err.getvalue()


@pytest.fixture
def letter_checks(monkeypatch):
    """The words `action._letters` is called on, in order."""
    seen, check = [], action._letters

    def counted(w, spec):
        seen.append(w)
        return check(w, spec)
    monkeypatch.setattr(action, "_letters", counted)
    return seen


@pytest.fixture
def perm_checks(monkeypatch):
    """The value tuples `SPermC._check` is called on, in order."""
    seen, check = [], SPermC._check

    def counted(values):
        seen.append(values)
        check(values)
    monkeypatch.setattr(SPermC, "_check", staticmethod(counted))
    return seen


def rational_vector(spec):
    """Entries with Fractions (so d > 1), negatives and s-terms, as the CI
    step "Vector outputs from the real process" writes them."""
    return MassVector(spec, tuple(LinForm.make(
        Fraction(i - 2, 3), {i: Fraction(-1, i + 1), i % spec.size + 1: 2},
        {i: Fraction(5, 2)} if i % 2 else {}) for i in spec.indices))


def test_built_words_fold_unchecked(tmp_path, letter_checks):
    """chain --verify, blowup-step and member's descent check no letter."""
    for argv in (["chain", "--family", "a", "--rank", "8", "--set", "2:4"],
                 ["chain", "--family", "a", "--rank", "8", "--wrap", "7,2"],
                 ["chain", "--family", "ct", "--rank", "8", "--set", "1:5"],
                 ["chain", "--family", "ct", "--rank", "8", "--set", "3:2"]):
        code, out, _ = invoke([*argv, "--verify"])
        assert (code, out[-6:]) == (0, "EQUAL\n"), argv
    for flag, case, blocks in (("a", "A-I", "2:3"), ("ct", "Ct-I", "1:2")):
        path = tmp_path / ("%s.json" % flag)
        spec = AlgebraSpec({"a": "affine_a", "ct": "affine_ct"}[flag], 5)
        path.write_text(rational_vector(spec).to_json())
        for extra in ([], ["--input", str(path)]):
            argv = ["blowup-step", "--family", flag, "--rank", "5", "--case",
                    case, "--blocks", blocks, *extra]
            assert invoke(argv)[0] == 0, argv
    node = enumerate_orbit(AlgebraSpec("affine_ct", 4), 5)[-1]
    path = tmp_path / "member.json"
    path.write_text(node.vector.to_json())
    assert invoke(["member", "--input", str(path)])[1].startswith("Member [")
    assert descend_to_zero(node.vector).steps == 5
    assert letter_checks == []


def test_entry_points_check_each_word_once(letter_checks):
    spec = AlgebraSpec("affine_a", 4)
    v, w = MassVector.generic(spec), Word.of(1, 3, 5, 2)
    apply_word(w, v)
    apply_generator(2, v)
    assert letter_checks == [w, Word((2,))]
    del letter_checks[:]
    relations = [word for _, word in presentation_relations(spec)]
    assert all(verify_relation(word, spec) for word in relations)
    assert letter_checks == relations
    del letter_checks[:]
    assert invoke(["relations", "--family", "a", "--rank", "4"])[0] == 0
    assert letter_checks == relations
    with pytest.raises(DomainError, match="outside 1..5"):
        apply_word(Word.of(1, 6), v)


def test_sperm_checks_only_the_result(perm_checks):
    """sperm --l 16 with 48 letters makes no `_check` call, and one with
    --check, on the final values."""
    rng = random.Random(16)
    word = ",".join(str(rng.randint(0, 16)) for _ in range(48))
    for extra, checks in (([], 0), (["--check"], 1)):
        del perm_checks[:]
        code, out, _ = invoke(["sperm", "--l", "16", "--word", word, *extra])
        assert code == 0
        assert len(perm_checks) == checks
        values = [int(x) for x in out.split("\n")[0].split()[1:]]
        assert values == list(swapped(16, map(int, word.split(","))))
    assert perm_checks == [tuple(values)]
    assert out.endswith("\nconstraint PASS\n")


def test_compose_and_sc_simple_check_their_result_once(perm_checks):
    for l in range(4):
        for i in range(l + 1):
            del perm_checks[:]
            g = sc_simple(i, l)
            assert perm_checks == [g.values]
            f = SPermC.reversal(l)
            del perm_checks[:]
            h = f.compose(g)
            assert perm_checks == [h.values]


def test_closed_form_ct_builds_no_permutation(perm_checks):
    for n in (2, 5, 9):
        v = MassVector.generic(AlgebraSpec("affine_ct", n))
        for J in (ConsecutiveSet(1, 0), ConsecutiveSet(1, n - 1),
                  ConsecutiveSet(n + 1, 0), ConsecutiveSet(3, n - 2)):
            closed_form_ct(v, J)
    assert perm_checks == []


def swapped(l, letters):
    """The composition of the simple involutions, by swaps on value lists:
    sc_simple(i) swaps i, i+1 and 2l-i, 2l+1-i, the same pair at i = l."""
    values = list(range(2 * l + 2))
    for i in letters:
        simple = list(range(2 * l + 2))
        for j in sorted({i, 2 * l - i}):
            simple[j], simple[j + 1] = simple[j + 1], simple[j]
        values = [values[j] for j in simple]
    return tuple(values)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 24), st.data())
def test_closed_compositions_equal_the_checked_permutation(l, data):
    letters = data.draw(st.lists(st.integers(0, l), max_size=40))
    f = SPermC.identity(l)
    for i in letters:
        g = sc_simple(i, l)
        assert type(g) is SPermC and g == SPermC(g.values)
        f = f.compose(g)
    assert type(f) is SPermC and f == SPermC(f.values)
    assert f.values == swapped(l, letters)


def decompositions(spec):
    """A few valid decompositions of spec, with their case tags."""
    n = spec.n
    if spec.family == "affine_a":
        yield Decomposition(spec, "A-I", (ConsecutiveSet(2, n - 1),),
                            frozenset({1}))
        yield Decomposition(spec, "A-I", (ConsecutiveSet(2, 0),
                                          ConsecutiveSet(4, n - 3)),
                            frozenset({1, 3}))
        yield Decomposition(spec, "A-II",
                            (ConsecutiveSet(n, 2, wrap=True),),
                            frozenset(range(2, n)))
    else:
        yield Decomposition(spec, "Ct-I", (ConsecutiveSet(1, n - 2),),
                            frozenset({n, n + 1}))
        yield Decomposition(spec, "Ct-II", (ConsecutiveSet(3, n - 2),),
                            frozenset({1, 2}))
        yield Decomposition(spec, "Ct-IV", (ConsecutiveSet(3, n - 4),),
                            frozenset({1, 2, n, n + 1}))


def blowup_argv(d, path):
    flag = {"affine_a": "a", "affine_ct": "ct"}[d.spec.family]
    blocks = ",".join("w:%d:%d" % (b.start, b.start + b.length - d.spec.n - 1)
                      if b.wrap else "%d:%d" % (b.start, b.length)
                      for b in d.blocks)
    return ["blowup-step", "--family", flag, "--rank", str(d.spec.n),
            "--case", d.case_tag, "--blocks", blocks, "--input", path]


@pytest.mark.parametrize("family", ["affine_a", "affine_ct"])
@pytest.mark.parametrize("n", [4, 7, 12])
def test_blowup_rows_path_equals_blowup_step(tmp_path, family, n):
    """On inputs with Fraction and s-term entries, the verb's output is
    `blowup_step` on `from_json` of the input, and its vector is the
    tuple-row fold of the input's rows under the word."""
    spec = AlgebraSpec(family, n)
    for k, v in enumerate((rational_vector(spec), MassVector.generic(spec))):
        path = tmp_path / ("v%d.json" % k)
        path.write_text(v.to_json())
        for d in decompositions(spec):
            d.validate()
            result = blowup_step(MassVector.from_json(path.read_text()), d)
            builder = chain_word_a if family == "affine_a" else chain_word_ct
            assert result.word.letters == sum(
                (builder(b, spec).word.letters for b in d.blocks), ())
            layout, rows, lifts = _kernel_rows(v)
            assert result.vector == MassVector(spec, tuple(
                _form(row, layout)
                for row in row_fold(result.word, rows, spec, lifts)))
            want = io.StringIO()
            _write_word(want, result.word)
            want.write(result.vector.to_json(indent=2) + "\n")
            assert invoke(blowup_argv(d, str(path))) == \
                (0, want.getvalue(), ""), (d.case_tag, d.blocks)


def test_blowup_reports_the_first_of_two_faults(tmp_path, monkeypatch):
    """Each input has two faults; the error is the first the verb reported
    before it worked on rows."""
    monkeypatch.chdir(tmp_path)
    spec = AlgebraSpec("affine_a", 4)
    (tmp_path / "a4.json").write_text(rational_vector(spec).to_json())
    (tmp_path / "bad.json").write_text("{not json")
    a3 = ["blowup-step", "--family", "a", "--rank", "3"]
    cases = [
        # the specs differ, and the case tag is not the family's
        ([*a3, "--case", "Ct-I", "--blocks", "2:2", "--input", "a4.json"],
         (2, "DomainError: vector and decomposition specs differ\n")),
        # the specs differ, and Ct-I has no n or n+1 in its null set
        (["blowup-step", "--family", "ct", "--rank", "4", "--case", "Ct-I",
          "--blocks", "1:1,4:0", "--input", "a4.json"],
         (2, "DomainError: vector and decomposition specs differ\n")),
        # the input is no JSON, and the case tag is not the family's
        ([*a3, "--case", "Ct-I", "--blocks", "2:2", "--input", "bad.json"],
         (1, "FormatError: invalid JSON: Expecting property name enclosed "
             "in double quotes: line 1 column 2 (char 1)\n")),
        # a block token is bad, and the input is missing
        ([*a3, "--case", "A-I", "--blocks", "2:x", "--input", "none.json"],
         (1, "usage error: expected block j:l or w:r2:r1, got '2:x'\n")),
        # the input is missing, and the blocks overlap
        ([*a3, "--case", "A-I", "--blocks", "2:2,3:1", "--input",
          "none.json"],
         (1, "cannot read input: [Errno 2] No such file or directory: "
             "'none.json'\n")),
        # the blocks overlap, and one is the whole index set
        ([*a3, "--case", "A-I", "--blocks", "2:2,1:3"],
         (2, "DecompositionError: blocks are not pairwise disjoint\n")),
        # A-II has 1 in its null set, and a block of one index
        (["blowup-step", "--family", "a", "--rank", "4", "--case", "A-II",
          "--blocks", "2:1", "--input", "a4.json"],
         (2, "DecompositionError: A-II forbids 1 and n+1 in the null "
             "set\n")),
    ]
    for argv, (code, err) in cases:
        assert invoke(argv) == (code, "", err), argv
