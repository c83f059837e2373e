"""Differential tests: keys and exports built from cached per-form fragments.

The oracles below are the implementations `MassVector.canonical_key` and
`export_graph` had before they joined each distinct entry's cached
rendering: `json.dumps` over `to_json_dict()` per vector and over the
whole payload, `str(vector)` per node, and `MassVector.evaluate` per node.
The form writer, which formats each form's texts with no `json.dumps`, is
checked against `json.dumps` and the `str` it replaced; the orbit verb's
`_Entry`s of ints against the `LinForm`s of the same rows; and one letter
of the packed kernel, a one-letter `apply_word`, against the two-pass row
update that the one-pass tuple-row `_reflect` replaced.
"""

import csv
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from todamass.algebra import (AlgebraSpec, LinForm, MassVector, _entry,
                              _form, _form_text, _form_value, _json_compact,
                              _json_indented, _linform_to_json)
from todamass.action import Word, _neighbours, apply_word
from todamass.errors import EvaluationError, FormatError
from todamass.orbit import (OrbitNode, _ranked_orbit, enumerate_orbit,
                            export_graph)

FAMILIES = ("affine_a", "affine_ct")
# ranks 9 and 10 give entries with mu_10, whose key "10" sorts before "2"
CRITERION_12_SWEEP = (("affine_a", 2, 6), ("affine_a", 3, 4),
                      ("affine_ct", 3, 4), ("affine_a", 9, 3),
                      ("affine_a", 10, 3), ("affine_ct", 9, 3),
                      ("affine_ct", 10, 3))


def old_key(v):
    return json.dumps(v.to_json_dict(), sort_keys=True, separators=(",", ":"))


def old_export(nodes, fmt, mu=None):
    nodes = sorted(nodes, key=lambda nd: (nd.level, old_key(nd.vector)))
    if fmt == "dot":
        lines = ["digraph orbit {"]
        for k, nd in enumerate(nodes):
            lines.append('  v%d [label="%s"];' % (k, nd.vector))
        ids = {nd.witness.letters: k for k, nd in enumerate(nodes)}
        for k, nd in enumerate(nodes):
            word = nd.witness.letters
            if word:
                lines.append("  v%d -> v%d [label=%d];"
                             % (ids[word[1:]], k, word[0]))
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        payload = {"nodes": [{"vector": nd.vector.to_json_dict(),
                              "witness": list(nd.witness.letters),
                              "level": nd.level} for nd in nodes]}
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "mass"])
    for k, nd in enumerate(nodes):
        if mu is not None:
            masses = nd.vector.evaluate(mu)
            writer.writerow([k, " ".join(str(m) for m in masses)])
        else:
            writer.writerow([k, str(nd.vector)])
    return buf.getvalue().encode()


def outcome(export, nodes, fmt, mu=None):
    """The bytes an export gives, or the type and text of what it raises."""
    try:
        return export(nodes, fmt, mu=mu)
    except EvaluationError as exc:
        return type(exc), str(exc)


coefficients = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def forms(draw, size, seeds=True):
    idx = st.integers(1, size)
    return LinForm.make(
        draw(coefficients) if seeds else 0,
        draw(st.dictionaries(idx, coefficients, max_size=size)),
        draw(st.dictionaries(idx, coefficients, max_size=3)) if seeds else {})


@st.composite
def vectors(draw):
    spec = AlgebraSpec(draw(st.sampled_from(FAMILIES)), draw(st.integers(2, 10)))
    return MassVector(spec, tuple(draw(forms(spec.size)) for _ in spec.indices))


@settings(max_examples=150, deadline=None)
@given(vectors())
def test_canonical_key_matches_compact_json_dumps(v):
    assert v.canonical_key() == old_key(v)


@st.composite
def wide_vectors(draw):
    """Vectors at ranks 9-13, so that keys "10" and up sort before "2"."""
    spec = AlgebraSpec(draw(st.sampled_from(FAMILIES)),
                       draw(st.integers(9, 13)))
    return MassVector(spec, tuple(draw(forms(spec.size))
                                  for _ in spec.indices))


@settings(max_examples=200, deadline=None)
@given(vectors() | wide_vectors())
def test_indented_vector_json_matches_json_dumps(v):
    """`to_json(indent=2)`, assembled from each entry's cached rendering,
    and every other indent, which goes through json.dumps."""
    for indent in (2, None, 0, 4):
        assert v.to_json(indent=indent) == json.dumps(
            v.to_json_dict(), indent=indent, sort_keys=True)


def ranked_nodes(spec, depth, make=_entry):
    """`_ranked_orbit` run to the end: its forms, and its nodes in output
    order as (level, entry ids, witness letters), each witness rebuilt
    from the node's parent and letter."""
    forms, levels = _ranked_orbit(spec, depth, make)
    nodes, words = [], []
    for _, level, group, _ in levels:
        words = [(a,) + words[p] if p >= 0 else () for _, p, a in group]
        nodes += [(level, ids, w) for (ids, _, _), w in zip(group, words)]
    return forms, nodes


def random_mu(rng, size):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(size)]


@pytest.mark.parametrize("family,n,depth", CRITERION_12_SWEEP)
def test_orbit_exports_match_the_old_export(family, n, depth):
    spec = AlgebraSpec(family, n)
    nodes = enumerate_orbit(spec, depth)
    rng = random.Random(n * depth)
    for fmt in ("json", "dot", "csv"):
        assert export_graph(nodes, fmt) == old_export(nodes, fmt), fmt
    for mu in ([1] * spec.size, random_mu(rng, spec.size),
               random_mu(rng, spec.size)):
        assert export_graph(nodes, "csv", mu) == old_export(nodes, "csv", mu)


def tree_words(rng, size, count):
    """Distinct words, each one letter longer than another in the list."""
    words = [()]
    while len(words) < count:
        parent = rng.choice(words)
        letter = rng.randint(1, size)
        word = (letter,) + parent
        if (not parent or parent[0] != letter) and word not in words:
            words.append(word)
    return words


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(9, 10), st.booleans(), st.randoms())
def test_linform_built_nodes_match_the_old_export(data, n, seeds, rng):
    """Rank 9-10 vectors that share some entries, with index keys 10, 11."""
    spec = AlgebraSpec(data.draw(st.sampled_from(FAMILIES)), n)
    pool = data.draw(st.lists(forms(spec.size, seeds), min_size=1,
                              max_size=6))
    words = tree_words(rng, spec.size, data.draw(st.integers(1, 12)))
    nodes = []
    for word in words:
        entries = []
        for _ in spec.indices:
            f = rng.choice(pool)
            # an equal form that is another instance half of the time
            entries.append(f if rng.random() < 0.5
                           else LinForm(f.const, f.mu, f.s))
        nodes.append(OrbitNode(MassVector(spec, tuple(entries)),
                               Word(word), len(word)))
    rng.shuffle(nodes)
    for fmt in ("json", "dot", "csv"):
        assert export_graph(nodes, fmt) == old_export(nodes, fmt), fmt
    mu = random_mu(rng, spec.size)
    assert (outcome(export_graph, nodes, "csv", mu)
            == outcome(old_export, nodes, "csv", mu))


def test_first_evaluation_failure_is_the_old_one():
    """Mixed ranks and seed entries fail where per-node evaluation did."""
    small, large = AlgebraSpec("affine_a", 9), AlgebraSpec("affine_a", 10)
    seeded = MassVector(large, (LinForm.seed(3),) * large.size)
    nodes = [OrbitNode(MassVector.zero(small), Word(()), 0),
             OrbitNode(seeded, Word((1,)), 1),
             OrbitNode(MassVector.zero(large), Word((2,)), 1)]
    for mu in ([1] * small.size, [1] * large.size, []):
        new = outcome(export_graph, nodes, "csv", mu)
        assert isinstance(new, tuple) and new == outcome(old_export, nodes,
                                                         "csv", mu)


def test_empty_node_list():
    assert export_graph([], "json") == b'{\n  "nodes": []\n}\n'
    for fmt in ("json", "dot", "csv"):
        assert export_graph([], fmt) == old_export([], fmt), fmt
    assert export_graph([], "csv", [1]) == old_export([], "csv", [1])


@pytest.mark.parametrize("family", FAMILIES)
def test_depth_zero_orbit(family):
    spec = AlgebraSpec(family, 3)
    nodes = enumerate_orbit(spec, 0)
    assert [nd.witness.letters for nd in nodes] == [()]
    for fmt in ("json", "dot", "csv"):
        assert export_graph(nodes, fmt) == old_export(nodes, fmt), fmt
    assert b'"witness": []' in export_graph(nodes, "json")


def test_wrong_length_mu_still_raises():
    nodes = enumerate_orbit(AlgebraSpec("affine_ct", 2), 2)
    for mu in ([1, 2], [1, 2, 3, 4], []):
        with pytest.raises(EvaluationError) as new:
            export_graph(nodes, "csv", mu)
        with pytest.raises(EvaluationError) as old:
            old_export(nodes, "csv", mu)
        assert str(new.value) == str(old.value)


def test_rootless_node_list_has_no_dot_parent():
    spec = AlgebraSpec("affine_a", 2)
    nodes = [OrbitNode(MassVector.zero(spec), Word((1,)), 1)]
    with pytest.raises(FormatError, match=r"witness \[1\] has no parent"):
        export_graph(nodes, "dot")
    # a tree whose root is present, but one node's parent is not
    nodes = [OrbitNode(MassVector.zero(spec), Word(()), 0),
             OrbitNode(MassVector.zero(spec), Word((1,)), 1),
             OrbitNode(MassVector.generic(spec), Word((3, 2)), 2)]
    with pytest.raises(FormatError, match=r"witness \[3 2\] has no parent"):
        export_graph(nodes, "dot")
    for fmt in ("json", "csv"):
        assert export_graph(nodes, fmt) == old_export(nodes, fmt), fmt


def old_str(f):
    """`str` of a form, as `LinForm.__str__` wrote it part by part."""
    parts = []
    if f.const:
        parts.append(str(f.const))
    for i, c in f.mu:
        parts.append("%s*mu_%d" % (c, i))
    for i, c in f.s:
        parts.append("%s*s_%d" % (c, i))
    return " + ".join(parts) if parts else "0"


def assert_writer_matches_json_dumps(f):
    obj = _linform_to_json(f)
    compact = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    indented = json.dumps(obj, sort_keys=True, indent=2)
    assert _json_compact(f) == f.json_compact == compact
    assert _json_indented(f) == f.json_indented == indented
    assert _form_text(f) == str(f) == old_str(f)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.just(0), coefficients),
       st.dictionaries(st.integers(1, 12), coefficients, max_size=12),
       st.dictionaries(st.integers(1, 12), coefficients, max_size=12))
def test_writer_matches_json_dumps(const, mu, s):
    assert_writer_matches_json_dumps(LinForm.make(const, mu, s))


def test_writer_sorts_two_digit_keys_as_strings():
    f = LinForm.make(Fraction(-3, 2), {11: 5, 2: -2, 10: Fraction(1, 3), 1: 1},
                     {10: -1, 2: Fraction(7, 4)})
    assert_writer_matches_json_dumps(f)
    assert f.json_compact == ('{"const":"-3/2","mu":{"1":"1","10":"1/3",'
                              '"11":"5","2":"-2"},"s":{"10":"-1","2":"7/4"}}')
    assert f.json_indented == """{
  "const": "-3/2",
  "mu": {
    "1": "1",
    "10": "1/3",
    "11": "5",
    "2": "-2"
  },
  "s": {
    "10": "-1",
    "2": "7/4"
  }
}"""
    assert str(f) == ("-3/2 + 1*mu_1 + -2*mu_2 + 1/3*mu_10 + 5*mu_11"
                      " + 7/4*s_2 + -1*s_10")
    assert _json_indented(LinForm()) == \
        '{\n  "const": "0",\n  "mu": {},\n  "s": {}\n}'


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n,depth", ((2, 5), (3, 3), (5, 2), (9, 2),
                                     (10, 1)))
def test_orbit_entries_write_as_their_forms(family, n, depth):
    """The verb's `_Entry`s of ints and `enumerate_orbit`'s `LinForm`s."""
    spec = AlgebraSpec(family, n)
    entries, nodes = ranked_nodes(spec, depth)
    forms, form_nodes = ranked_nodes(spec, depth, _form)
    assert nodes == form_nodes and len(entries) == len(forms)
    rng = random.Random(n * depth)
    at = dict(enumerate(random_mu(rng, spec.size), 1))
    for e, f in zip(entries, forms):
        assert all(type(c) is int for _, c in e.mu) and not e.s
        assert _json_compact(e) == f.json_compact
        assert _json_indented(e) == f.json_indented
        assert _form_text(e) == str(f)
        assert _form_value(e, at) == f.evaluate(at)
        if e.mu:
            with pytest.raises(EvaluationError) as new:
                _form_value(e, {})
            with pytest.raises(EvaluationError) as old:
                f.evaluate({})
            assert str(new.value) == str(old.value)
    layout = (1, tuple(spec.indices), ())
    row = (0,) + tuple(range(-1, spec.size - 1))
    assert _json_compact(_entry(row, layout)) == _form(row, layout).json_compact


def two_pass_reflect(rows, i, nbrs, lift):
    """R_{i+1} on tuple rows as one pass per neighbour, the first also
    negating row_i, where ``lift`` is the sparse row of 2 w_i."""
    row, sign = rows[i], -1
    for t, k in nbrs[i]:
        row = [sign * a - k * b for a, b in zip(row, rows[t])]
        sign = 1
    for p, c in lift:
        row[p] += c
    return rows[:i] + (tuple(row),) + rows[i + 1:]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(2, 11))
def test_one_pass_reflect_matches_two_passes(family, n):
    """A one-letter `apply_word` on random rows over d = 2 (so Fraction
    coefficients), with mu and s columns, under a weight overlay whose
    weight i has the random lift: the row update of two passes."""
    spec = AlgebraSpec(family, n)
    nbrs = _neighbours(spec)
    if family == "affine_ct":
        # the doubled bonds at the ends of Ct, one neighbour each
        assert nbrs[0] == ((1, -2),) and nbrs[-1] == ((n - 1, -2),)
    rng = random.Random(n)
    layout = (2, tuple(spec.indices), (1, 2))
    width = spec.size + 3
    for _ in range(4):
        rows = tuple(tuple(rng.randint(-9, 9) for _ in range(width))
                     for _ in spec.indices)
        v = MassVector(spec, tuple(_form(row, layout) for row in rows))
        for i in range(spec.size):
            lift = tuple(sorted({(rng.randrange(width), 2 * rng.randint(-3, 3))
                                 for _ in range(rng.randint(0, 2))}))
            w = [0] * width
            for p, c in lift:
                w[p] += c // 2
            weights = [_form(w if t == i else (0,) * width, layout)
                       for t in range(spec.size)]
            want = MassVector(spec, tuple(
                _form(row, layout)
                for row in two_pass_reflect(rows, i, nbrs, lift)))
            assert apply_word(Word.of(i + 1), v, weights) == want, (i, lift)
