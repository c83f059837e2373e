"""Orbit enumeration by reverse search, membership, descent certificates.

One rule gives the orbit and its certificates: descend by R_i for the
smallest i whose phi delta, the change R_i makes to the mass at weights
(1,...,1), is negative.  Enumeration walks the rule back from zero by
reverse search (Avis & Fukuda, 1996), to a bounded depth and with no
visited set.  Orbit entries are 2 sum_j n_ij mu_j with integers n_ij, so
both run on integer rows by `action`'s rule, enumeration on rows packed
one int each; it writes, sorts and exports one form per distinct entry.
A node is held as (parent, letter), not as its witness word.  Each level
is sorted on its own and written, in pieces, once its children are made;
then it is dropped.  Every check comes before the first byte, so a
failed export writes nothing.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from itertools import groupby

from .algebra import (AlgebraSpec, MassVector, _entry, _form, _form_text,
                      _int_rows, _json_indented, _Layout, _Row, _Rows, _scaled,
                      _scaled_value, _weight_map)
from .action import (Word, _columns, _fold, _fold_width, _kernel_rows,
                     _neighbours, _packing, _peaks, _residual, _unpack)
from .errors import DomainError, FormatError, NotMassForm

MEMBER = "member"
NOT_IN_GAMMA_N = "not_in_gamma_n"
DESCENT_STALLED = "descent_stalled"


class OrbitNode(namedtuple("OrbitNode", "vector witness level")):
    """An orbit vector, its witness word and its level (the word's
    length)."""

    __slots__ = ()


class CoefficientMatrix(namedtuple("CoefficientMatrix", "entries")):
    """The n_ij of a mass vector, a tuple of rows of Fractions."""

    __slots__ = ()

    def is_nonneg_integral(self) -> bool:
        return all(c >= 0 and c.denominator == 1
                   for row in self.entries for c in row)


class MembershipReport(namedtuple(
        "MembershipReport", "verdict pohozaev_ok coeffs_ok word reason steps",
        defaults=(None, "", 0))):
    """A membership verdict, its two conditions, and the descent word (a
    Word or None), the reason it is not a member and the steps taken."""

    __slots__ = ()


def enumerate_orbit(spec: AlgebraSpec, depth: int,
                    workers: int = 1) -> list[OrbitNode]:
    """All orbit vectors within the given word length, as sorted nodes.

    R_i of a node, for i with a positive delta, is its child exactly when
    i is the child's smallest descent, the letter `_descend` takes back.
    So each vector comes once, with its descent word reversed as witness:
    its lexicographically smallest shortest word, of length its level.
    Sorted by (level, canonical key); ``workers`` is accepted and ignored.
    """
    forms, levels = _ranked_orbit(spec, depth, _form)
    nodes: list[OrbitNode] = []
    words: list[tuple] = []
    for _, level, group, _ in levels:
        words = [(a,) + words[p] if p >= 0 else () for _, p, a in group]
        nodes += [OrbitNode(MassVector(spec, tuple(map(forms.__getitem__,
                                                       ids))), Word(w), level)
                  for (ids, _, _), w in zip(group, words)]
    return nodes


def _ranked_orbit(spec: AlgebraSpec, depth: int, make=_entry) -> tuple:
    """`enumerate_orbit` with no vector built: (forms, levels).  levels is
    a generator of `_write_graph` groups (spec, level, nodes, None), one
    per level, each held only while it is written and its children made.
    forms gets each distinct row, decoded by ``make``, when the level that
    first reaches it comes.  A node is (entry ids, parent, letter): entry
    k is forms[ids[k]], and its witness is the letter, then the witness of
    node number parent of the level before (-1 for the root, whose witness
    is empty).  A level is sorted on its own, by the ranks of its entries
    under `_json_keys`: that is (level, canonical key) order in one spec,
    and no two nodes of the orbit of 0 are equal.  The depth is checked
    here, before any level is made."""
    if depth < 0:
        raise DomainError("depth must be at least 0, got %d" % depth)
    forms: list = []
    return forms, _levels(spec, depth, make, forms)


def _levels(spec: AlgebraSpec, depth: int, make, forms: list):
    """`_ranked_orbit`'s levels, by reverse search on rows packed one int
    each and interned as letters make them."""
    nbrs, cols = _neighbours(spec), _columns(spec)
    layout, packing, root = _orbit_start(spec, depth)
    lifts = packing[1]
    # zero packs to 0, row id 0
    row_of, ids, keys = [0], {0: 0}, []
    nodes, deltas = [([0] * spec.size, -1, 0)], [root]
    for level in range(depth + 1):
        new = _unpack(row_of[len(forms):], packing)
        forms.extend([make(row, layout) for row in new])
        keys.extend(_json_keys(new, spec))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        rank = sorted(range(len(keys)), key=order.__getitem__)  # inverse
        nodes.sort(key=lambda nd: tuple(map(rank.__getitem__, nd[0])))
        yield spec, level, nodes, None
        if level == depth:
            return
        children, stepped = [], []
        for j, (node, p, a) in enumerate(nodes):
            # a node's deltas: its parent's, stepped by its letter
            d = _stepped(deltas[p], a - 1, cols) if p >= 0 else root
            stepped.append(d)
            for i in _children(d, cols):
                row = lifts[i] - row_of[node[i]]  # `_letter` on the ids
                for t, k in nbrs[i]:
                    row -= k * row_of[node[t]]
                r = ids.setdefault(row, len(row_of))
                if r == len(row_of):
                    row_of.append(row)
                child = node.copy()
                child[i] = r
                children.append((child, j, i + 1))
        nodes, deltas = children, stepped


@cache
def _orbit_start(spec: AlgebraSpec, depth: int) -> tuple:
    """(layout, packing, deltas) of the zero vector for `_ranked_orbit`,
    packed at the fold width of ``depth`` letters: made once per spec and
    depth."""
    layout, zero, lifts = _kernel_rows(MassVector.zero(spec))
    return layout, _packing(zero, lifts, _fold_width(
        spec, depth, *_peaks(zero, lifts))), tuple(_deltas(zero, 1, spec))


def _json_keys(rows: Sequence[_Row], spec: AlgebraSpec) -> list[tuple]:
    """`_ranked_orbit`'s key of each row.  An entry's JSON is its members
    '"i":"c"', c != 0, in the string order of i, joined by ',' and closed
    by '}'.  At the first i where two entries differ, they compare as c and
    c' (a '"' closes c, < digits), or else the entry with a member at i is
    less: the other has '}' there (> ',' and '"') or a later index.  So
    the key, each c's text in that order and '}' for 0, sorts as the JSON,
    and a vector's entry keys in turn as its canonical key in one spec:
    its JSON is prefix-free."""
    pick = sorted(spec.indices, key=str)
    return [tuple([str(r[i]) if r[i] else "}" for i in pick]) for r in rows]


def _mass_rows(layout: _Layout, rows: _Rows,
               size: int) -> tuple[int, _Rows]:
    """(d, rows) from entry rows read with the plain weights: each row cut
    to the orbit layout, column 0 the constant 0 and column j d times the
    coefficient of mu_j."""
    d, mu, _ = layout
    for i, row in enumerate(rows, 1):
        if row[0]:
            raise NotMassForm("entry %d has constant term %s"
                              % (i, Fraction(row[0], d)))
        if any(row[len(mu) + 1:]):
            raise NotMassForm("entry %d has generic s-indeterminates" % i)
    first = mu.index(1) + 1
    return d, tuple((0,) + row[first:first + size] for row in rows)


def _nonneg_integral(d: int, mass: _Rows) -> bool:
    """`CoefficientMatrix.is_nonneg_integral` on `_mass_rows`' rows over d."""
    return all(c >= 0 and not c % (2 * d) for row in mass for c in row)


def coefficient_matrix(v: MassVector) -> CoefficientMatrix:
    """The matrix n_{ij} with entry i equal to 2 sum_j n_{ij} mu_j."""
    d, rows = _mass_rows(*_int_rows(v.entries, None)[:2], v.spec.size)
    return CoefficientMatrix(tuple(tuple(Fraction(c, 2 * d) for c in row[1:])
                                   for row in rows))


def _verdict(spec: AlgebraSpec, layout: _Layout, rows: _Rows, w: _Rows,
             coeffs_ok: bool) -> MembershipReport:
    """The two-condition report, the Pohozaev residual computed here."""
    pohozaev_ok = _residual(spec, layout, rows, w).is_zero
    reason = ("coefficient matrix is not nonnegative-integral" if not coeffs_ok
              else "" if pohozaev_ok else "Pohozaev residual is nonzero")
    return MembershipReport(NOT_IN_GAMMA_N if reason else MEMBER,
                            pohozaev_ok, coeffs_ok, reason=reason)


def gamma_n_test(v: MassVector) -> MembershipReport:
    """Check the two membership conditions: coefficients and Pohozaev.

    Both are always evaluated.  `descend_to_zero` decides in a cheaper
    order and returns this same report whenever it rejects a vector.
    """
    layout, rows, w = _int_rows(v.entries, None)
    d, mass = _mass_rows(layout, rows, v.spec.size)
    return _verdict(v.spec, layout, rows, w, _nonneg_integral(d, mass))


def descend_to_zero(v: MassVector, max_steps: int = 256) -> MembershipReport:
    """Greedy descent certificate: a word carrying v to zero, if found.

    The entries are read once as integer rows.  A coefficient n_ij that
    is not a nonnegative integer rejects v at once, with the report of
    `gamma_n_test`.  Only a stall of `_descend` computes the Pohozaev
    residual, whose nonzero value makes v a non-member: a descent that
    reaches zero shows v = R_w(0), where it vanishes (criterion 6).
    """
    return _membership(v.spec, *_int_rows(v.entries, None), max_steps)


def _membership(spec: AlgebraSpec, layout: _Layout, rows: _Rows, w: _Rows,
                max_steps: int) -> MembershipReport:
    """`descend_to_zero` on the rows `_int_rows(entries, None)` reads."""
    d, mass = _mass_rows(layout, rows, spec.size)
    if not _nonneg_integral(d, mass):
        return _verdict(spec, layout, rows, w, False)
    applied, stall = _descend(mass, d, spec, max_steps)
    if stall:
        base = _verdict(spec, layout, rows, w, True)
        return base if base.verdict != MEMBER else MembershipReport(
            DESCENT_STALLED, True, True, reason=stall, steps=len(applied))
    word = Word(tuple(reversed(applied)))
    return MembershipReport(MEMBER, True, True, word=word, steps=len(applied))


def _deltas(rows: _Rows, d: int, spec: AlgebraSpec) -> list[int]:
    """The phi deltas at rows over d: R_i changes only row i, with a lift
    of 2d, so delta_i = 2d - 2 sums[i] - sum_{t != i} k_it sums[t]."""
    sums = [sum(row) for row in rows]
    return [2 * d - 2 * sums[i] - sum(k * sums[t] for t, k in nb)
            for i, nb in enumerate(_neighbours(spec))]


def _children(deltas: Sequence[int], cols: Sequence[dict]) -> list[int]:
    """The i for which R_{i+1} gives a child, with ``cols`` from
    `_columns`: delta_i > 0 and, the child's delta_t being delta_t
    - k_ti delta_i, delta_t >= k_ti delta_i for all t < i (k_ti <= 0)."""
    kept, below = [], []
    for i, delta in enumerate(deltas):
        if delta > 0:
            col = cols[i]
            for t, d in below:
                if d < col.get(t, 0) * delta:
                    break
            else:
                kept.append(i)
        elif delta < 0:
            below.append((i, delta))
    return kept


def _stepped(deltas: Sequence[int], i: int, cols) -> list[int]:
    """The deltas after R_{i+1}, with ``cols`` from `_columns`: delta_i
    changes sign and each delta_t moves by -k_ti delta_i."""
    out = list(deltas)
    delta = out[i] = -deltas[i]
    for t, k in cols[i].items():
        out[t] += k * delta
    return out


def _descend(rows: _Rows, d: int, spec: AlgebraSpec,
             max_steps: int) -> tuple[list[int], str]:
    """The letters the greedy descent applies to rows over d, and why it
    stalled ("" if it reached zero): each step applies R_i for the least
    i with a negative delta and steps the deltas in place.  phi, the rows'
    total, falls by it, so is 0 at most once, where the word is folded."""
    cols = _columns(spec)
    # the lifts of the plain weights: 2d at mu_i
    lifts = tuple(((i, 2 * d),) for i in spec.indices)
    deltas = _deltas(rows, d, spec)
    phi, peaks = sum(map(sum, rows)), _peaks(rows, lifts)
    applied: list[int] = []
    while phi or any(_fold(Word(tuple(applied[::-1])), spec, _packing(
            rows, lifts, _fold_width(spec, len(applied), *peaks)))):
        if len(applied) >= max_steps:
            return applied, "step budget exhausted"
        for i, delta in enumerate(deltas):
            if delta < 0:
                break
        else:
            return applied, "no descending generator"
        phi += delta
        deltas[i] = -delta
        for t, k in cols[i].items():
            deltas[t] -= k * delta
        applied.append(i + 1)
    return applied, ""


def export_graph(nodes: Sequence[OrbitNode], fmt: str,
                 mu: Sequence | None = None) -> bytes:
    """Serialize an enumerated orbit as DOT, JSON, or CSV bytes.

    Nodes come out sorted by (level, canonical key), ties in the order
    given.  The JSON equals ``json.dumps(payload, sort_keys=True,
    indent=2) + "\n"`` byte for byte, where payload is ``{"nodes":
    [{"vector": v.to_json_dict(), "witness": [letters], "level": level},
    ...]}``; it is assembled from each distinct entry's rendering.
    CSV rows hold every entry's value at ``mu`` or, without ``mu``, the
    vector as text.  A DOT edge runs to each node from the last node whose
    witness is the node's minus its first letter.
    """
    nodes = sorted(nodes, key=lambda nd: (nd.level,
                                          nd.vector.canonical_key()))
    # each distinct entry numbered by its first appearance
    first = {e.json_compact: e for nd in nodes for e in nd.vector.entries}
    number = {text: k for k, text in enumerate(first)}
    entries = [tuple([number[e.json_compact] for e in nd.vector.entries])
               for nd in nodes]
    words = [nd.witness.letters for nd in nodes]
    # a hand-made list has no parent links: up at k holds the position of
    # the last node whose witness is node k's less its first letter, and
    # the JSON tail of that shorter witness
    at = {w: k for k, w in enumerate(words)}
    up = ([at.get(w[1:]) for w in words],
          ["".join([_LETTER_SEP + str(a) for a in w[1:]]) + _WITNESS_END
           for w in words] if fmt == "json" else None)
    if fmt == "dot":
        for w, k in zip(words, up[0]):
            if w and k is None:
                raise FormatError("node with witness %s has no parent node"
                                  % (Word(w),))
    every, forms = list(first.values()), []

    def groups():
        for (spec, level), run in groupby(range(len(nodes)), lambda k: (
                nodes[k].vector.spec, nodes[k].level)):
            run = [(entries[k], *((k, words[k][0]) if words[k] else (-1, 0)))
                   for k in run]
            forms.extend(every[len(forms):1 + max([max(ids)
                                                   for ids, _, _ in run])])
            yield spec, level, run, up

    pieces: list[str] = []
    _write_graph(forms, groups(), fmt, mu, pieces.append)
    return "".join(pieces).encode()


# one node of the JSON export, at the depth json.dumps(..., indent=2)
# puts it; an entry sits 10 spaces in, a witness letter 8, and a witness's
# tail is each of its letters after the first, then the closing bracket
_JSON_NODE = """    {
      "level": %d,
      "vector": {
        "entries": [
          %s
        ],
        "family": "%s",
        "n": %d
      },
      "witness": %s
    }"""
_ENTRY_PAD = "\n" + " " * 10
_LETTER_SEP, _WITNESS_END = ",\n" + " " * 8, "\n      ]"
# the line of a node and the separator of its entries, beside JSON; the
# csv module quotes a field with a comma
_LINES = {"dot": ('  v%d [label="(%s)"];\n', ", "),
          "csv": ('%d,"(%s)"\n', ", "), "csv --mu": ("%d,%s\n", " ")}
_PIECE = 2048  # the nodes or edges held before a write


def _write_graph(forms: Sequence, groups, fmt: str, mu: Sequence | None,
                 write) -> None:
    """Write `export_graph`'s text for groups (spec, level, nodes, up) in
    output order, through ``write`` once at least `_PIECE` nodes or edges
    are made, and once at the end.  A node is (entry ids, parent, letter),
    entry k forms[ids[k]].  forms grows between groups: those added before
    a group are the ones it names first, rendered (or evaluated at ``mu``)
    then in forms' order, which is their first use.  up is a pair
    (positions, tails) indexed by parent, or None for the nodes of the
    group before.  A node's witness is its letter, then the tail of up at
    parent, or empty if parent is -1; only JSON reads tails.  No byte is
    written before the first piece is made, so an error in the format,
    the weights or the first group leaves nothing written."""
    if fmt not in ("json", "dot", "csv"):
        raise FormatError("unknown export format %r" % (fmt,))
    valued = fmt == "csv" and mu is not None
    line, joiner = _LINES.get(fmt + " --mu" if valued else fmt, (None, None))
    out, held = [{"json": '{\n  "nodes": [\n', "dot": "digraph orbit {\n",
                  "csv": "index,mass\n"}[fmt]], 0

    def emit(text: str, count: int) -> None:
        """Hold text for count nodes or edges; write once _PIECE are held."""
        nonlocal out, held
        out.append(text)
        held += count
        if held >= _PIECE:
            write("".join(out))
            out, held = [], 0

    sep, joint = "," + _ENTRY_PAD, ""
    texts, edges, at, at_spec = [], [], None, None
    last, pos = (range(0), []), 0
    for spec, level, nodes, up in groups:
        parents, tails = up or last
        new = forms[len(texts):]
        if fmt == "json":
            texts += [_json_indented(f).replace("\n", _ENTRY_PAD)
                      for f in new]
            if up is None:  # the tails of the group before
                tails = [_LETTER_SEP + w if w else _WITNESS_END for w in tails]
            node = _JSON_NODE % (level, "%s", spec.family, spec.n, "%s")
        elif not valued:
            texts += map(_form_text, new)
        else:
            if spec is not at_spec:
                at, at_spec = _scaled(_weight_map(spec, mu)), spec
            texts += [str(_scaled_value(f, *at)) for f in new]
        witnesses: list[str] = []
        for k in range(0, len(nodes), _PIECE):
            piece = nodes[k:k + _PIECE] if len(nodes) > _PIECE else nodes
            if fmt == "json":
                ws = [str(a) + tails[p] if p >= 0 else "" for _, p, a in piece]
                witnesses += ws
                text = joint + ",\n".join([node % (
                    sep.join(map(texts.__getitem__, ids)),
                    "[\n        " + w if w else "[]")
                    for (ids, _, _), w in zip(piece, ws)])
                joint = ",\n"
            else:
                text = "".join([
                    line % (j, joiner.join(map(texts.__getitem__, ids)))
                    for j, (ids, _, _) in enumerate(piece, pos + k)])
                if fmt == "dot":  # discovery-tree edges, after every node
                    edges += [(parents[p], j, a) for j, (_, p, a)
                              in enumerate(piece, pos + k) if p >= 0]
            emit(text, len(piece))
        last, pos = (range(pos, pos + len(nodes)), witnesses), pos + len(nodes)
    for k in range(0, len(edges), _PIECE):
        piece = edges[k:k + _PIECE]
        emit("".join(["  v%d -> v%d [label=%d];\n" % e for e in piece]),
             len(piece))
    if fmt == "json":
        out = out + ["\n  ]\n}\n"] if pos else ['{\n  "nodes": []\n}\n']
    elif fmt == "dot":
        out.append("}\n")
    if out:
        write("".join(out))
