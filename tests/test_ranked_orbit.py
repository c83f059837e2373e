"""The orbit verb on ranked nodes against the node-list API.

`todamass orbit` runs `_ranked_orbit` and `_write_graph` and builds no
vector; `enumerate_orbit` and `export_graph` wrap the same two functions.
These tests check that both paths give the same bytes, also when the verb
writes in pieces of a few nodes, that an error writes nothing, that
`export_graph` on any node list gives the bytes of the per-node export it
replaced, and that the reverse search's child test agrees with stepping
the deltas and finding the first descent.  The ranking by member keys
is checked against the rule it replaced, which sorted the distinct rows
by the compact JSON of their entries, on orbits and on hand-made rows.
"""

import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_export_fragments import old_export, ranked_nodes

from todamass.algebra import (AlgebraSpec, LinForm, MassVector, _entry,
                              _int_rows, _json_compact)
from todamass.action import Word, _columns
from todamass.cli import run
from todamass import orbit
from todamass.errors import DomainError, EvaluationError, FormatError
from todamass.orbit import (OrbitNode, _children, _deltas, _json_keys,
                            _ranked_orbit, _stepped, _write_graph,
                            enumerate_orbit, export_graph)

FAMILIES = {"a": "affine_a", "ct": "affine_ct"}
# (rank, depths): two-digit indices from rank 9 on, depth 0 to 3 and more
CLI_SWEEP = ((2, (0, 1, 3, 7)), (3, (0, 2, 3, 5)), (4, (0, 3, 4)),
             (5, (0, 3)), (6, (1, 3)), (7, (0, 3)), (8, (2, 3)),
             (9, (0, 3)), (10, (0, 1, 3)))
CHILD_SWEEP = ((2, 14), (3, 9), (4, 6), (5, 5), (6, 4), (7, 4))
RANK_SWEEP = ((2, 10), (3, 7), (4, 5), (5, 4), (6, 4), (7, 3), (8, 3),
              (9, 3), (10, 3), (11, 3), (12, 3), (13, 3))


def first_descent(deltas):
    """The smallest i whose delta is negative, -1 if there is none."""
    return next((i for i, delta in enumerate(deltas) if delta < 0), -1)


def cli_bytes(argv):
    """stdout of one `run`, through the binary buffer as from a terminal."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    err = io.StringIO()
    assert run(argv, out, err) == 0, err.getvalue()
    out.flush()
    return out.buffer.getvalue()


@pytest.mark.parametrize("flag", sorted(FAMILIES))
@pytest.mark.parametrize("rank,depths", CLI_SWEEP)
def test_orbit_verb_equals_export_of_enumerated_nodes(flag, rank, depths):
    spec = AlgebraSpec(FAMILIES[flag], rank)
    mu = [Fraction(k % 3 + 1, k % 4 + 1) for k in range(spec.size)]
    mu_text = ",".join(map(str, mu))
    for depth in depths:
        nodes = enumerate_orbit(spec, depth)
        argv = ["orbit", "--family", flag, "--rank", str(rank),
                "--depth", str(depth)]
        for fmt in ("json", "dot", "csv"):
            assert (cli_bytes(argv + ["--out", fmt])
                    == export_graph(nodes, fmt)), (depth, fmt)
        assert (cli_bytes(argv + ["--out", "csv", "--mu", mu_text])
                == export_graph(nodes, "csv", mu)), depth
        # the text path of `run`, for an out with no binary buffer
        text = io.StringIO()
        assert run(argv + ["--out", "dot"], text, io.StringIO()) == 0
        assert text.getvalue().encode() == export_graph(nodes, "dot")


class Writes(io.BytesIO):
    """A binary buffer that keeps each write made to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(data)
        return super().write(data)


def streamed(argv):
    """(exit code, stdout bytes, stderr, writes to the buffer) of `run`."""
    buffer = Writes()
    out, err = io.TextIOWrapper(buffer, encoding="utf-8", newline=""), \
        io.StringIO()
    rc = run(argv, out, err)
    out.flush()
    return rc, buffer.getvalue(), err.getvalue(), buffer.writes


# (rank, depth): a few hundred nodes or fewer, over several levels
PIECE_SWEEP = ((2, 7), (3, 5), (4, 4), (5, 3), (6, 3), (7, 2), (8, 2), (9, 2),
               (10, 2))


@pytest.mark.parametrize("flag", sorted(FAMILIES))
@pytest.mark.parametrize("piece", (1, 7, orbit._PIECE))
def test_orbit_verb_written_in_pieces_equals_export(flag, piece,
                                                     monkeypatch):
    """The verb writes a piece once `_PIECE` nodes or edges are made: with
    pieces of 1 and 7 nodes, and the default, the bytes are those of
    `export_graph` on `enumerate_orbit`, at ranks 2-10, as json, dot, csv
    and csv --mu, and no write carries 2 `_PIECE` JSON nodes."""
    monkeypatch.setattr(orbit, "_PIECE", piece)
    for rank, depth in PIECE_SWEEP:
        spec = AlgebraSpec(FAMILIES[flag], rank)
        nodes = enumerate_orbit(spec, depth)
        mu = [Fraction(k % 3 - 1, k % 4 + 1) for k in range(spec.size)]
        argv = ["orbit", "--family", flag, "--rank", str(rank),
                "--depth", str(depth), "--out"]
        for fmt, extra, want in (
                ("json", [], export_graph(nodes, "json")),
                ("dot", [], export_graph(nodes, "dot")),
                ("csv", [], export_graph(nodes, "csv")),
                ("csv", ["--mu=" + ",".join(map(str, mu))],
                 export_graph(nodes, "csv", mu))):
            rc, data, err, writes = streamed(argv + [fmt] + extra)
            assert (rc, err) == (0, "") and data == want, (rank, fmt)
            assert 2 * piece * len(writes) > len(nodes), (rank, fmt)
            if fmt == "json":
                assert max(w.count(b'"level"') for w in writes) < 2 * piece


@pytest.mark.parametrize("argv", [
    ["--depth", "-1"], ["--depth", "2", "--mu", "ones"],
    ["--depth", "2", "--out", "json", "--mu", "1"],
    ["--depth", "2", "--out", "csv", "--mu", "1,x,2,3"],
    ["--depth", "2", "--out", "csv", "--mu", "1,1/0,2,3"],
    ["--depth", "2", "--out", "csv", "--mu", ""],
    ["--depth", "2", "--out", "csv", "--mu", "1,2"],
    ["--depth", "2", "--out", "csv", "--mu", "1,2,3,4,5"],
    ["--depth", "2", "--workers", "0"]])
@pytest.mark.parametrize("flag", sorted(FAMILIES))
def test_orbit_errors_write_nothing(flag, argv):
    """Negative depth, --mu without csv, a bad --mu and a wrong --mu count
    exit 1 with one usage line, and nothing reaches the buffer."""
    rc, data, err, writes = streamed(["orbit", "--family", flag, "--rank",
                                      "3", *argv])
    assert (rc, data, writes) == (1, b"", [])
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_export_errors_write_nothing():
    """The search refuses a negative depth when it is called, and the
    writer an unknown format or a wrong weight count, before any write."""
    spec = AlgebraSpec("affine_a", 3)
    with pytest.raises(DomainError, match="depth must be at least 0"):
        _ranked_orbit(spec, -1)
    for fmt, mu, error in (("xml", None, FormatError),
                           ("csv", [1, 2], EvaluationError)):
        pieces = []
        with pytest.raises(error):
            _write_graph(*_ranked_orbit(spec, 3), fmt, mu, pieces.append)
        assert pieces == []


@pytest.mark.parametrize("family", sorted(FAMILIES.values()))
@pytest.mark.parametrize("rank,depths", CLI_SWEEP)
def test_enumerated_nodes_come_in_strict_canonical_key_order(family, rank,
                                                             depths):
    nodes = enumerate_orbit(AlgebraSpec(family, rank), max(depths))
    keys = [(nd.level, nd.vector.canonical_key()) for nd in nodes]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(nd.level == len(nd.witness) for nd in nodes)


coefficients = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


@st.composite
def small_forms(draw, size):
    idx = st.integers(1, size)
    return LinForm.make(draw(coefficients),
                        draw(st.dictionaries(idx, coefficients, max_size=2)),
                        draw(st.dictionaries(idx, coefficients, max_size=1)))


@st.composite
def node_lists(draw, mixed):
    """Nodes over one spec, or over several of both families and ranks 2-10,
    their entries drawn from a small pool so that vectors share entries,
    repeat, and run one into another's prefix."""
    specs = [AlgebraSpec(draw(st.sampled_from(sorted(FAMILIES.values()))),
                         draw(st.integers(2, 10)))]
    if mixed:
        specs += [AlgebraSpec(family, n) for family, n in draw(st.lists(
            st.tuples(st.sampled_from(sorted(FAMILIES.values())),
                      st.integers(2, 10)), min_size=1, max_size=3))]
    pool = draw(st.lists(small_forms(11), min_size=1, max_size=4))
    nodes = []
    for k in range(draw(st.integers(0, 14))):
        spec = draw(st.sampled_from(specs))
        # the pool's forms on indices 1..n+1, the only ones a vector holds
        held = [f for f in pool if max(dict(f.mu + f.s), default=0)
                <= spec.size] or [LinForm.zero()]
        entries = tuple(draw(st.sampled_from(held)) for _ in spec.indices)
        # distinct witnesses tell apart nodes with equal keys, and the
        # first node's empty word is the parent of all others in DOT
        nodes.append(OrbitNode(MassVector(spec, entries),
                               Word((k,) if k else ()),
                               draw(st.integers(0, 2))))
    return nodes


def assert_exports_match_the_old_export(nodes):
    for fmt in ("json", "dot", "csv"):
        assert export_graph(nodes, fmt) == old_export(nodes, fmt), fmt


@settings(max_examples=200, deadline=None)
@given(node_lists(mixed=False))
def test_export_order_is_canonical_key_order_in_one_spec(nodes):
    assert_exports_match_the_old_export(nodes)


@settings(max_examples=300, deadline=None)
@given(node_lists(mixed=True))
def test_export_order_is_canonical_key_order_across_specs(nodes):
    assert_exports_match_the_old_export(nodes)


def test_a_longer_vector_with_a_shorter_as_prefix_sorts_first():
    """Keys '{...}],' after the shorter's entries against '{...},{' after
    the longer's, and ',' < ']'."""
    small, large = AlgebraSpec("affine_a", 2), AlgebraSpec("affine_a", 3)
    pool = (LinForm.weight(1), LinForm.zero())
    nodes = [OrbitNode(MassVector(small, pool + (pool[0],)), Word(()), 0),
             OrbitNode(MassVector(large, pool + (pool[0],) * 2), Word((2,)),
                       0),
             OrbitNode(MassVector(AlgebraSpec("affine_ct", 2),
                                  pool + (pool[0],)), Word((3,)), 0)]
    assert_exports_match_the_old_export(nodes)
    payload = json.loads(export_graph(nodes, "json"))
    assert [nd["witness"] for nd in payload["nodes"]] == [[2], [], [3]]


@pytest.mark.parametrize("family", sorted(FAMILIES.values()))
@pytest.mark.parametrize("rank,depth", CHILD_SWEEP)
def test_child_test_matches_stepping_the_deltas(family, rank, depth):
    spec = AlgebraSpec(family, rank)
    cols = _columns(spec)
    nodes = enumerate_orbit(spec, depth)
    kept = 0
    for nd in nodes:
        (d, _, _), rows, _ = _int_rows(nd.vector.entries, None)
        deltas = _deltas(rows, d, spec)
        want = [i for i, delta in enumerate(deltas) if delta > 0
                and first_descent(_stepped(deltas, i, cols)) == i]
        assert _children(deltas, cols) == want, nd.witness
        kept += len(want) if nd.level < depth else 0
    # every node but the root is the kept child of one node above it
    assert kept == len(nodes) - 1


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FAMILIES.values())), st.integers(2, 7),
       st.data())
def test_child_test_matches_stepping_any_deltas(family, rank, data):
    """Also off the orbit, where a delta may be 0 or k_ti delta_i exactly."""
    spec = AlgebraSpec(family, rank)
    cols = _columns(spec)
    deltas = data.draw(st.lists(st.integers(-4, 4), min_size=spec.size,
                                max_size=spec.size))
    want = [i for i, delta in enumerate(deltas) if delta > 0
            and first_descent(_stepped(deltas, i, cols)) == i]
    assert _children(deltas, cols) == want


def rows_of(row, layout):
    """A `make` for `_ranked_orbit` that keeps each decoded row."""
    return row


def json_order(rows, spec):
    """The row numbers, sorted by `_ranked_orbit`'s key of the rows."""
    keys = _json_keys(rows, spec)
    return sorted(range(len(rows)), key=keys.__getitem__)


def json_sorted(rows, spec):
    """The rule the member keys replaced: row numbers sorted by the compact
    JSON of each row's entry."""
    layout = (1, tuple(spec.indices), ())
    return sorted(range(len(rows)),
                  key=lambda k: _json_compact(_entry(rows[k], layout)))


def old_ranking(spec, depth):
    """`_ranked_orbit`'s rows and nodes, ranked again by the old rule: the
    rows by `json_sorted`, the nodes by (level, entry ranks)."""
    rows, nodes = ranked_nodes(spec, depth, rows_of)
    order = json_sorted(rows, spec)
    rank = {k: r for r, k in enumerate(order)}
    return [rows[k] for k in order], sorted(
        (level, tuple(rank[k] for k in ids), word)
        for level, ids, word in nodes)


@pytest.mark.parametrize("family", sorted(FAMILIES.values()))
@pytest.mark.parametrize("rank,depth", RANK_SWEEP)
def test_member_keys_rank_as_compact_json(family, rank, depth):
    spec = AlgebraSpec(family, rank)
    rows, nodes = ranked_nodes(spec, depth, rows_of)
    order = json_order(rows, spec)
    rank = {k: r for r, k in enumerate(order)}
    assert ([rows[k] for k in order], [
        (level, tuple(rank[k] for k in ids), word)
        for level, ids, word in nodes]) == old_ranking(spec, depth)
    forms, entry_nodes = ranked_nodes(spec, depth)
    layout = (1, tuple(spec.indices), ())
    assert entry_nodes == nodes
    assert forms == [_entry(row, layout) for row in rows]


def hand_row(size, members):
    """The row of the entry with these {index: coefficient} members."""
    return (0,) + tuple(members.get(i, 0) for i in range(1, size + 1))


def test_member_keys_on_interleaved_indices():
    """Every row with members at 1, 2, 10 and 11 only, coefficients whose
    texts run one into another ("2", "20", "-2", "-20", "1", "12")."""
    spec = AlgebraSpec("affine_a", 10)
    values = (0, 1, 2, 12, 20, -1, -2, -20)
    rows = [hand_row(spec.size, dict(zip((1, 2, 10, 11), cs)))
            for cs in itertools.product(values, repeat=4)]
    assert json_order(rows, spec) == json_sorted(rows, spec)


@pytest.mark.parametrize("n", (9, 10, 12))
def test_member_keys_put_a_member_list_before_its_prefixes(n):
    """'{"1":"2"}' follows '{"1":"2","10":"1"}' and '{"1":"2","2":"1"}',
    as '}' > ',', and '{"10":"1"}' follows '{"10":"1","2":"1"}'; "10"
    sorts before "2", "-2" before "2" and "2" before "20"."""
    spec = AlgebraSpec("affine_a", n)
    rows = [hand_row(spec.size, members) for members in (
        {1: 2}, {1: 2, 2: 1}, {1: 2, 10: 1}, {1: 2, 10: 1, 2: -1},
        {1: 20}, {1: -2}, {10: 1}, {2: 1}, {}, {1: 2, 3: 1}, {2: 1, 10: 1})]
    want = [5, 3, 2, 1, 9, 0, 4, 10, 6, 7, 8]
    assert json_sorted(rows, spec) == want
    assert json_order(rows, spec) == want
