"""Orbit enumeration by reverse search, membership, descent certificates.

One rule gives the orbit and its certificates: descend by R_i for the
smallest i whose phi delta, the change R_i makes to the mass at weights
(1,...,1), is negative.  Enumeration walks the rule back from zero by
reverse search (Avis & Fukuda, 1996), to a bounded depth and with no
visited set.  Orbit entries are 2 sum_j n_ij mu_j with integers n_ij, so
both run on integer rows by `action`'s rule, enumeration on rows packed
one int each; it writes, sorts and exports one form per distinct entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from .algebra import (AlgebraSpec, MassVector, _entry, _form, _form_text,
                      _int_rows, _json_indented, _Layout, _Row, _Rows, _scaled,
                      _scaled_value, _weight_map)
from .action import (Word, _columns, _fold, _fold_width, _kernel_rows,
                     _neighbours, _packing, _peaks, _residual, _unpack)
from .errors import DomainError, FormatError, NotMassForm

MEMBER = "member"
NOT_IN_GAMMA_N = "not_in_gamma_n"
DESCENT_STALLED = "descent_stalled"


@dataclass(frozen=True)
class OrbitNode:
    vector: MassVector
    witness: Word
    level: int


@dataclass(frozen=True)
class CoefficientMatrix:
    entries: tuple[tuple[Fraction, ...], ...]

    def is_nonneg_integral(self) -> bool:
        return all(c >= 0 and c.denominator == 1
                   for row in self.entries for c in row)


@dataclass(frozen=True)
class MembershipReport:
    verdict: str
    pohozaev_ok: bool
    coeffs_ok: bool
    word: Optional[Word] = None
    reason: str = ""
    steps: int = 0


def enumerate_orbit(spec: AlgebraSpec, depth: int,
                    workers: int = 1) -> list[OrbitNode]:
    """All orbit vectors within the given word length, as sorted nodes.

    R_i of a node, for i with a positive delta, is its child exactly when
    i is the child's smallest descent, the letter `_descend` takes back.
    So each vector comes once, with its descent word reversed as witness:
    its lexicographically smallest shortest word, of length its level.
    Sorted by (level, canonical key); ``workers`` is accepted and ignored.
    """
    forms, nodes = _ranked_orbit(spec, depth, _form)
    return [OrbitNode(MassVector(spec, tuple(map(forms.__getitem__, ranks))),
                      Word(word), level) for level, ranks, word, _ in nodes]


def _ranked_orbit(spec: AlgebraSpec, depth: int,
                  make=_entry) -> tuple[list, list[tuple]]:
    """`enumerate_orbit` with no vector built, on rows packed one int each
    and interned as letters make them: (forms, ranked nodes), forms each
    distinct row decoded once and written once by ``make``, in compact JSON
    order, a ranked node (level, entry ranks, witness letters, spec) with
    entry k forms[ranks[k]].  An entry's JSON is its members '"i":"c"',
    c != 0, in the string order of i, joined by ',' and closed by '}'.  At
    the first i where two entries differ, they compare as c and c' (a '"'
    closes c, < digits), or else the entry with a member at i is less: the
    other has '}' there (> ',' and '"') or a later index.  So the key of
    each c's text in that order, '}' for 0, sorts as JSON, and (level,
    entry ranks) as the canonical key in one spec: its JSON prefix-free."""
    if depth < 0:
        raise DomainError("depth must be at least 0, got %d" % depth)
    nbrs, cols = _neighbours(spec), _columns(spec)
    layout, zero, lifts = _kernel_rows(MassVector.zero(spec))
    packing = _packing(zero, lifts,
                       _fold_width(spec, depth, *_peaks(zero, lifts)))
    lifts = packing[1]
    # zero packs to 0, row id 0; the loop meets nodes as it appends them,
    # each holding its parent's deltas, stepped if it has children
    row_of, ids = [0], {0: 0}
    tree = [((0,) * spec.size, (), _deltas(zero, 1, spec))]
    for node, word, deltas in tree:
        if len(word) == depth:
            break
        if word:
            deltas = _stepped(deltas, word[0] - 1, cols)
        for i in _children(deltas, cols):
            row = lifts[i] - row_of[node[i]]  # `_letter` on the ids
            for t, k in nbrs[i]:
                row -= k * row_of[node[t]]
            r = ids.setdefault(row, len(row_of))
            if r == len(row_of):
                row_of.append(row)
            tree.append((node[:i] + (r,) + node[i + 1:], (i + 1,) + word,
                         deltas))
    decoded = _unpack(row_of, packing)
    order = _json_order(decoded, spec)
    rank = sorted(range(len(order)), key=order.__getitem__)
    nodes = sorted([(len(word), tuple(map(rank.__getitem__, node)), word,
                     spec) for node, word, _ in tree])
    return [make(decoded[r], layout) for r in order], nodes


def _json_order(rows: Sequence[_Row], spec: AlgebraSpec) -> list[int]:
    """The row numbers, sorted by `_ranked_orbit`'s key of the rows."""
    pick = sorted(spec.indices, key=str)
    keys = [tuple([str(r[i]) if r[i] else "}" for i in pick]) for r in rows]
    return sorted(range(len(keys)), key=keys.__getitem__)


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


# one node of the JSON export, at the depth json.dumps(..., indent=2)
# puts it; an entry sits 10 spaces in, a witness letter 8
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


def export_graph(nodes: Sequence[OrbitNode], fmt: str,
                 mu: Optional[Sequence] = None) -> bytes:
    """Serialize an enumerated orbit as DOT, JSON, or CSV bytes.

    Nodes come out sorted by (level, canonical key), ties in the order
    given.  The JSON equals ``json.dumps(payload, sort_keys=True,
    indent=2) + "\n"`` byte for byte, where payload is ``{"nodes":
    [{"vector": v.to_json_dict(), "witness": [letters], "level": level},
    ...]}``; it is assembled from each distinct entry's rendering.
    CSV rows hold every entry's value at ``mu`` or, without ``mu``, the
    vector as text.
    """
    nodes = sorted(nodes, key=lambda nd: (nd.level,
                                          nd.vector.canonical_key()))
    # each distinct entry numbered by its first appearance
    first = {e.json_compact: e for nd in nodes for e in nd.vector.entries}
    number = {text: k for k, text in enumerate(first)}
    return _write_graph(list(first.values()), [
        (nd.level, tuple([number[e.json_compact] for e in nd.vector.entries]),
         nd.witness.letters, nd.vector.spec) for nd in nodes], fmt, mu)


def _write_graph(forms: Sequence, nodes: Sequence[tuple], fmt: str,
                 mu: Optional[Sequence] = None) -> bytes:
    """`export_graph`'s bytes for numbered nodes, in the order given, each
    entry of ``forms`` rendered once into a list indexed by number."""
    if fmt == "json":
        if not nodes:
            return b'{\n  "nodes": []\n}\n'
        texts = [_json_indented(e).replace("\n", _ENTRY_PAD) for e in forms]
        sep, letters = "," + _ENTRY_PAD, cache(str)  # a letter's text once
        items = ",\n".join([_JSON_NODE % (
            level, sep.join(map(texts.__getitem__, ranks)), spec.family,
            spec.n, "[\n        " + ",\n        ".join(map(letters, word))
            + "\n      ]" if word else "[]")
            for level, ranks, word, spec in nodes])
        return ('{\n  "nodes": [\n' + items + "\n  ]\n}\n").encode()
    if fmt not in ("dot", "csv"):
        raise FormatError("unknown export format %r" % (fmt,))
    if fmt == "csv" and mu is not None:
        # each distinct entry is evaluated once, in the order the entries
        # come, so the first failure is the one per-node evaluation raises
        values, lines, at = [None] * len(forms), ["index,mass"], None
        for k, (_, ranks, _, spec) in enumerate(nodes):
            if at is None or len(ranks) != len(mu):
                at = _scaled(_weight_map(spec, mu))
            for r in ranks:
                if values[r] is None:
                    values[r] = str(_scaled_value(forms[r], *at))
            lines.append("%d,%s" % (k, " ".join(map(values.__getitem__,
                                                    ranks))))
        return ("\n".join(lines) + "\n").encode()
    texts = list(map(_form_text, forms))
    labels = ["(%s)" % ", ".join(map(texts.__getitem__, nd[1]))
              for nd in nodes]
    if fmt == "csv":
        # the csv module's quoting: a comma in the field, and no quote
        lines = ["index,mass"] + ['%d,"%s"' % kl for kl in enumerate(labels)]
    else:
        # discovery-tree edges: a node's parent has its witness minus the
        # first letter
        ids = {nd[2]: k for k, nd in enumerate(nodes)}
        try:
            edges = ["  v%d -> v%d [label=%d];" % (ids[word[1:]], k, word[0])
                     for k, (_, _, word, _) in enumerate(nodes) if word]
        except KeyError:
            raise FormatError("node with witness %s has no parent node" % Word(
                next(nd[2] for nd in nodes if nd[2][1:] not in ids))) from None
        lines = (["digraph orbit {"]
                 + ['  v%d [label="%s"];' % kl for kl in enumerate(labels)]
                 + edges + ["}"])
    return ("\n".join(lines) + "\n").encode()
