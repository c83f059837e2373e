"""Breadth-first orbit enumeration, membership tests, descent certificates.

The orbit of the zero vector under the generator action is infinite, so
enumeration is always depth-bounded.  Every orbit vector has entries
2 sum_j n_ij mu_j with integers n_ij, so enumeration and descent run on
the integer rows of `action`, with its reflection rule, and build
symbolic vectors only for the nodes they return.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import AlgebraSpec, MassVector, _weight_map
from .action import (Word, _int_rows, _form, _kernel_rows, _neighbours,
                     _reflect, _Rows, pohozaev_residual)
from .errors import FormatError, NotMassForm

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

    Each vector carries the lexicographically smallest witness word among
    its shortest ones.  The result is sorted by (level, canonical key).
    Enumeration is serial on integer coefficient rows; ``workers`` is
    accepted for compatibility and does not change anything.
    """
    nbrs = _neighbours(spec)
    layout, zero, lifts = _kernel_rows(MassVector.zero(spec))
    seen = {zero}
    levels = [[(zero, ())]]
    for _ in range(depth):
        # Generators outermost and each level in witness order, so the
        # first word that reaches a vector is its smallest, and the next
        # level comes out in witness order too.
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
    # one form per distinct row, shared by every vector that has it
    distinct = {row for members in levels for rows, _ in members
                for row in rows}
    forms = {row: _form(row, layout) for row in distinct}
    nodes = [OrbitNode(MassVector(spec, tuple(forms[row] for row in rows)),
                       Word(word), level)
             for level, members in enumerate(levels)
             for rows, word in members]
    nodes.sort(key=lambda nd: (nd.level, nd.vector.canonical_key()))
    return nodes


def _mass_rows(v: MassVector) -> tuple[int, _Rows, bool]:
    """(d, rows, stray): each entry times d as a row of the plain layout.

    The plain layout is that of orbit vectors: column 0 holds the
    constant, here 0, and column j the coefficient of mu_j.  d is the
    lcm of the entries' denominators.  The flag says whether some entry
    also mentions a mu index outside 1..n+1, which no row holds.
    """
    for i, e in enumerate(v.entries, 1):
        if e.const:
            raise NotMassForm("entry %d has constant term %s" % (i, e.const))
        if e.s:
            raise NotMassForm("entry %d has generic s-indeterminates" % i)
    (d, mu, _), rows, _ = _int_rows(v.entries, None)
    size = v.spec.size
    first = mu.index(1) + 1
    return d, tuple((0,) + row[first:first + size] for row in rows), \
        len(mu) > size


def coefficient_matrix(v: MassVector) -> CoefficientMatrix:
    """The matrix n_{ij} with entry i equal to 2 sum_j n_{ij} mu_j."""
    d, rows, _ = _mass_rows(v)
    return CoefficientMatrix(tuple(tuple(Fraction(c, 2 * d) for c in row[1:])
                                   for row in rows))


def _verdict(v: MassVector, coeffs_ok: bool) -> MembershipReport:
    """The two-condition report, the Pohozaev residual computed here."""
    pohozaev_ok = pohozaev_residual(v).is_zero
    verdict = MEMBER if (coeffs_ok and pohozaev_ok) else NOT_IN_GAMMA_N
    reason = ""
    if not coeffs_ok:
        reason = "coefficient matrix is not nonnegative-integral"
    elif not pohozaev_ok:
        reason = "Pohozaev residual is nonzero"
    return MembershipReport(verdict, pohozaev_ok, coeffs_ok, reason=reason)


def gamma_n_test(v: MassVector) -> MembershipReport:
    """Check the two membership conditions: coefficients and Pohozaev.

    Both are always evaluated.  `descend_to_zero` decides membership in
    a cheaper order, coefficients first, then the descent, and the
    residual only if the descent stalls, since a descent that reaches
    zero proves the residual zero.  Whenever it rejects a vector it
    returns this same report.
    """
    return _verdict(v, coefficient_matrix(v).is_nonneg_integral())


def descend_to_zero(v: MassVector, max_steps: int = 256) -> MembershipReport:
    """Greedy descent certificate: a word carrying v to zero, if found.

    The entries are read once as integer mu-coefficient rows.  A
    coefficient n_ij that is not a nonnegative integer rejects v at once,
    with the report of `gamma_n_test`.  Otherwise the descent runs: at
    each step, among generators that strictly decrease the total mass at
    weights (1,...,1), the smallest index is applied.  If none exists
    before reaching zero the descent stalls, never loops.

    The Pohozaev residual is computed only on a stall (no descending
    generator, or the step budget spent): a nonzero residual makes v a
    non-member, a zero one leaves the verdict a stall.  A descent that
    reaches zero needs no residual: the word it returns carries v to
    zero, every generator is invertible (an involution), so v is the
    reversed word applied to zero, an orbit vector, and the residual
    vanishes on the whole orbit (acceptance criterion 6).  The descent
    reads only mu_1..mu_{n+1}, so for an entry that mentions another
    index the residual is computed even then.
    """
    d, rows, stray = _mass_rows(v)
    if not all(c >= 0 and not c % (2 * d) for row in rows for c in row):
        return _verdict(v, False)
    applied, stall = _descend(rows, d, v.spec, max_steps)
    if stall or stray:
        base = _verdict(v, True)
        if base.verdict != MEMBER:
            return base
    if stall:
        return MembershipReport(DESCENT_STALLED, True, True, reason=stall,
                                steps=len(applied))
    word = Word(tuple(reversed(applied)))
    return MembershipReport(MEMBER, True, True, word=word, steps=len(applied))


def _descend(rows: _Rows, d: int, spec: AlgebraSpec,
             max_steps: int) -> tuple[list[int], str]:
    """The letters the greedy descent applies to rows over d, and why it
    stalled ("" if it reached zero)."""
    nbrs = _neighbours(spec)
    # the lifts of the plain weights: 2d at mu_i
    lifts = tuple(((i, 2 * d),) for i in spec.indices)
    # R_i changes only row i, so the mass at (1,...,1) moves by
    # 2d - 2 sums[i] - sum_{t != i} k_it sums[t], the 2d from the lift
    sums = [sum(row) for row in rows]
    applied: list[int] = []
    while any(map(any, rows)):
        if len(applied) >= max_steps:
            return applied, "step budget exhausted"
        for i, nb in enumerate(nbrs):
            delta = 2 * d - 2 * sums[i] - sum(k * sums[t] for t, k in nb)
            if delta < 0:
                break
        else:
            return applied, "no descending generator"
        rows = _reflect(rows, i, nbrs, lifts[i])
        sums[i] += delta
        applied.append(i + 1)
    return applied, ""


def _render(nodes: Sequence[OrbitNode], render) -> dict[int, str]:
    """render(form) for each distinct entry of the nodes, by id(form).

    Keyed by identity: hashing a form hashes every Fraction in it, and
    enumerated vectors share one form per distinct entry anyway.
    """
    out: dict[int, str] = {}
    for nd in nodes:
        for e in nd.vector.entries:
            if id(e) not in out:
                out[id(e)] = render(e)
    return out


def _joined(texts: dict[int, str], v: MassVector, sep: str) -> str:
    return sep.join(map(texts.__getitem__, map(id, v.entries)))


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


def _json_witness(letters: tuple[int, ...]) -> str:
    if not letters:
        return "[]"
    return ("[\n        " + ",\n        ".join(map(str, letters))
            + "\n      ]")


def export_graph(nodes: Sequence[OrbitNode], fmt: str,
                 mu: Optional[Sequence] = None) -> bytes:
    """Serialize an enumerated orbit as DOT, JSON, or CSV bytes.

    Nodes come out sorted by (level, canonical key).  The JSON equals
    ``json.dumps(payload, sort_keys=True, indent=2) + "\n"`` byte for
    byte, where payload is ``{"nodes": [{"vector": v.to_json_dict(),
    "witness": [letters], "level": level}, ...]}``; it is assembled from
    each distinct entry's cached rendering.  CSV rows hold every entry's
    value at ``mu`` or, without ``mu``, the vector as text.
    """
    nodes = sorted(nodes, key=lambda nd: (nd.level, nd.vector.canonical_key()))
    if fmt == "dot":
        texts = _render(nodes, str)
        lines = ["digraph orbit {"]
        for k, nd in enumerate(nodes):
            lines.append('  v%d [label="(%s)"];'
                         % (k, _joined(texts, nd.vector, ", ")))
        # discovery-tree edges: a node's parent has its witness minus the
        # first letter
        ids = {nd.witness.letters: k for k, nd in enumerate(nodes)}
        for k, nd in enumerate(nodes):
            word = nd.witness.letters
            if word:
                lines.append("  v%d -> v%d [label=%d];"
                             % (ids[word[1:]], k, word[0]))
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        if not nodes:
            return b'{\n  "nodes": []\n}\n'
        texts = _render(nodes,
                        lambda e: e.json_indented.replace("\n", _ENTRY_PAD))
        items = ",\n".join(
            _JSON_NODE % (nd.level, _joined(texts, nd.vector, "," + _ENTRY_PAD),
                          nd.vector.spec.family, nd.vector.spec.n,
                          _json_witness(nd.witness.letters))
            for nd in nodes)
        return ('{\n  "nodes": [\n' + items + "\n  ]\n}\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "mass"])
        if mu is None:
            texts = _render(nodes, str)
            for k, nd in enumerate(nodes):
                writer.writerow([k, "(%s)" % _joined(texts, nd.vector, ", ")])
            return buf.getvalue().encode()
        # each distinct entry is evaluated once, in the order the
        # entries come, so the first failure is the one a per-node
        # evaluation would raise
        values: dict[int, str] = {}
        at = None
        for k, nd in enumerate(nodes):
            entries = nd.vector.entries
            if at is None or len(entries) != len(mu):
                at = _weight_map(nd.vector.spec, mu)
            for e in entries:
                if id(e) not in values:
                    values[id(e)] = str(e.evaluate(at))
            writer.writerow([k, _joined(values, nd.vector, " ")])
        return buf.getvalue().encode()
    raise FormatError("unknown export format %r" % (fmt,))
