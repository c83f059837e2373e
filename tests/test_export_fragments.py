"""Differential tests: keys and exports built from cached per-form fragments.

The oracles below are the implementations `MassVector.canonical_key` and
`export_graph` had before they joined each distinct entry's cached
rendering: `json.dumps` over `to_json_dict()` per vector and over the
whole payload, `str(vector)` per node, and `MassVector.evaluate` per node.
"""

import csv
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from todamass.algebra import AlgebraSpec, LinForm, MassVector
from todamass.action import Word
from todamass.errors import EvaluationError
from todamass.orbit import OrbitNode, enumerate_orbit, export_graph

FAMILIES = ("affine_a", "affine_ct")
CRITERION_12_SWEEP = (("affine_a", 2, 6), ("affine_a", 3, 4),
                      ("affine_ct", 3, 4))


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
