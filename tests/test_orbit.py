import itertools
from fractions import Fraction

import pytest

from todamass.algebra import AlgebraSpec, LinForm, MassVector
from todamass.action import Word, apply_word, pohozaev_residual
from todamass.errors import DomainError, FormatError, NotMassForm
from todamass.orbit import (DESCENT_STALLED, MEMBER, NOT_IN_GAMMA_N,
                            coefficient_matrix, descend_to_zero,
                            enumerate_orbit, export_graph, gamma_n_test)


def a_spec(n=2):
    return AlgebraSpec("affine_a", n)


def brute_force_keys(spec, depth):
    seen = set()
    for length in range(depth + 1):
        for letters in itertools.product(spec.indices, repeat=length):
            v = apply_word(Word(letters), MassVector.zero(spec))
            seen.add(v.canonical_key())
    return seen


def test_depth_zero():
    nodes = enumerate_orbit(a_spec(), 0)
    assert len(nodes) == 1 and nodes[0].vector.is_zero


@pytest.mark.parametrize("family", ["affine_a", "affine_ct"])
def test_negative_depth_is_refused(family):
    """The reverse search stops at the depth, so below 0 it never would."""
    for depth in (-1, -5):
        with pytest.raises(DomainError, match="depth must be at least 0"):
            enumerate_orbit(AlgebraSpec(family, 2), depth)


def test_depth_one():
    nodes = enumerate_orbit(a_spec(), 1)
    got = {str(nd.vector) for nd in nodes}
    assert got == {"(0, 0, 0)", "(2*mu_1, 0, 0)", "(0, 2*mu_2, 0)",
                   "(0, 0, 2*mu_3)"}


def test_matches_brute_force_oracle():
    for fam in ("affine_a", "affine_ct"):
        spec = AlgebraSpec(fam, 2)
        for depth in (2, 3):
            nodes = enumerate_orbit(spec, depth)
            assert {nd.vector.canonical_key() for nd in nodes} == \
                brute_force_keys(spec, depth)


def test_witness_words_are_valid():
    for nd in enumerate_orbit(a_spec(), 4):
        assert apply_word(nd.witness, MassVector.zero(a_spec())) == nd.vector
        assert len(nd.witness) == nd.level


def test_level_monotonicity():
    from todamass.action import apply_generator
    spec = a_spec(2)
    depth = 5
    levels = {nd.vector.canonical_key(): nd.level
              for nd in enumerate_orbit(spec, depth + 1)}
    for nd in enumerate_orbit(spec, depth):
        for i in spec.indices:
            child = apply_generator(i, nd.vector)
            assert levels[child.canonical_key()] <= nd.level + 1


def test_coefficient_matrix_examples():
    spec = a_spec()
    zero = coefficient_matrix(MassVector.zero(spec))
    assert all(c == 0 for row in zero.entries for c in row)
    v = MassVector(spec, (LinForm.weight(1, 2),
                          LinForm.make(0, {1: 2, 2: 2}), LinForm.zero()))
    m = coefficient_matrix(v)
    assert [[int(c) for c in row] for row in m.entries] == \
        [[1, 0, 0], [1, 1, 0], [0, 0, 0]]
    frac = coefficient_matrix(
        MassVector(spec, (LinForm.weight(1), LinForm.zero(), LinForm.zero())))
    assert frac.entries[0][0] == Fraction(1, 2)
    assert not frac.is_nonneg_integral()


def test_coefficient_matrix_rejections():
    spec = a_spec()
    with pytest.raises(NotMassForm):
        coefficient_matrix(MassVector(spec, (LinForm.make(1), LinForm.zero(),
                                             LinForm.zero())))
    with pytest.raises(NotMassForm):
        coefficient_matrix(MassVector.generic(spec))


def test_gamma_n_test():
    spec = a_spec()
    ok = gamma_n_test(MassVector.zero(spec))
    assert ok.coeffs_ok and ok.pohozaev_ok and ok.verdict == MEMBER
    v = MassVector(spec, (LinForm.weight(1, 2),
                          LinForm.make(0, {1: 2, 2: 2}), LinForm.zero()))
    assert gamma_n_test(v).verdict == MEMBER
    bad = MassVector(spec, (LinForm.weight(1, 2), LinForm.zero(),
                            LinForm.weight(1, 2)))
    report = gamma_n_test(bad)
    assert report.coeffs_ok and not report.pohozaev_ok
    assert report.verdict == NOT_IN_GAMMA_N


def test_descend_examples():
    spec = a_spec()
    empty = descend_to_zero(MassVector.zero(spec))
    assert empty.verdict == MEMBER and len(empty.word) == 0
    v = MassVector(spec, (LinForm.weight(1, 2),
                          LinForm.make(0, {1: 2, 2: 2}), LinForm.zero()))
    report = descend_to_zero(v)
    assert report.verdict == MEMBER
    assert report.word == Word.of(1, 2)
    assert apply_word(report.word, v).is_zero


def test_descend_rejects_non_members():
    spec = a_spec()
    bad = MassVector(spec, (LinForm.weight(1, 2), LinForm.zero(),
                            LinForm.weight(1, 2)))
    assert descend_to_zero(bad).verdict == NOT_IN_GAMMA_N


def test_descend_respects_step_budget():
    spec = a_spec()
    deep = apply_word(Word.of(1, 2, 1, 3, 2, 1), MassVector.zero(spec))
    report = descend_to_zero(deep, max_steps=2)
    assert report.verdict == DESCENT_STALLED and report.steps == 2


def test_descent_certifies_enumerated_nodes():
    for fam in ("affine_a", "affine_ct"):
        spec = AlgebraSpec(fam, 2)
        for nd in enumerate_orbit(spec, 6):
            report = descend_to_zero(nd.vector, max_steps=max(4 * nd.level, 1))
            assert report.verdict == MEMBER, (fam, str(nd.vector))
            assert apply_word(report.word, nd.vector).is_zero


def test_export_dot():
    nodes = enumerate_orbit(a_spec(), 1)
    text = export_graph(nodes, "dot").decode()
    assert text.startswith("digraph") and text.rstrip().endswith("}")
    assert text.count("->") == 3
    assert "[label=1]" in text and "[label=3]" in text


def test_export_json_round_trip():
    nodes = enumerate_orbit(a_spec(), 2)
    import json
    payload = json.loads(export_graph(nodes, "json"))
    assert len(payload["nodes"]) == len(nodes)
    for item in payload["nodes"]:
        MassVector.from_json(json.dumps(item["vector"]))


def test_export_csv():
    nodes = enumerate_orbit(a_spec(), 1)
    text = export_graph(nodes, "csv", mu=[1, 1, 1]).decode()
    lines = text.strip().split("\n")
    assert lines[0] == "index,mass"
    assert len(lines) == 5
    assert lines[1] == "0,0 0 0"


def test_export_unknown_format():
    with pytest.raises(FormatError):
        export_graph(enumerate_orbit(a_spec(), 0), "xml")


def test_worker_determinism_small():
    for fam in ("affine_a", "affine_ct"):
        spec = AlgebraSpec(fam, 3)
        outs = [export_graph(enumerate_orbit(spec, 3, workers=w), "json")
                for w in (1, 2, 8)]
        assert outs[0] == outs[1] == outs[2]
