"""Byte-identity sweep of the verbs that read a vector file.

`member` (under several ``--max-steps`` budgets), `pohozaev`, `fold`,
`rotate` and `blowup-step` run in process through `cli.run` on a fixed,
deterministic set of files: orbit vectors, deep phi-raised members,
bumped non-members, vectors with Fraction and s-term coefficients,
integral vectors written in unusual but valid ways, and malformed files.
Its own group, "member past the cap", runs `member` at ``--max-steps``
equal to the level, one less and 0, and `pohozaev`, on orbit vectors
ascended to levels 150 and 400 at ranks 3 and 12 and to level 1000 at
rank 12, both families: the longest words the descent's zero check
folds, far past the 320-bit slots that once capped packing.
Each verb's cases hash into one sha256 over the JSON list [exit code,
stdout, stderr] of each case, in order.  The test compares the hashes
with `vector_verbs_reference.json`; running this file as a script
rewrites that file:

    PYTHONPATH=src python tests/test_vector_verbs.py

so ``git diff --exit-code tests/vector_verbs_reference.json`` shows
whether any output byte of these verbs changed.  The inputs avoid text
whose reading differs between Python versions (such as "1_0").
"""

import hashlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction
from itertools import chain
from pathlib import Path

from test_orbit_kernel import ascended

from todamass import (AFFINE_A, AFFINE_CT, AlgebraSpec, LinForm, MassVector,
                      apply_generator, enumerate_orbit)
from todamass.cli import run

REFERENCE = Path(__file__).with_name("vector_verbs_reference.json")
BUDGETS = (None, 0, 7, 45)
ROTATIONS = (1, 3)
PAST_CAP = ((3, 150), (12, 150), (3, 400), (12, 400), (12, 1000))


def _phi(v):
    return sum(v.evaluate([1] * v.spec.size))


def raised(spec, level):
    """A member `level` phi-raising letters from zero: at step k the first
    raising generator from (3k mod n+1) + 1 on."""
    v, phi = MassVector.zero(spec), 0
    for k in range(level):
        for j in range(spec.size):
            child = apply_generator((3 * k + j) % spec.size + 1, v)
            if _phi(child) > phi:
                v, phi = child, _phi(child)
                break
    return v


def bumped(v, e, form):
    """v with ``form`` added to entry e (0-based)."""
    entries = list(v.entries)
    entries[e] = entries[e] + form
    return MassVector(v.spec, tuple(entries))


def rational(spec):
    """Entries with Fraction coefficients and, at odd i, an s-term."""
    return MassVector(spec, tuple(LinForm.make(
        Fraction(i - 2, 3), {i: Fraction(-1, i + 1), i % spec.size + 1: 2},
        {i: Fraction(5, 2)} if i % 2 else {}) for i in spec.indices))


def rewritten(v, how):
    """v's JSON with its first entry written another valid way."""
    obj = v.to_json_dict()
    first = obj["entries"][0]
    mu = first["mu"]
    if how == "keys":  # int() reads " 1", "+2" and "٣" as 1, 2 and 3
        alias = {"1": " 1", "2": "+2", "3": "٣"}
        first["mu"] = {alias.get(k, k): c for k, c in mu.items()}
    elif how == "repeat":  # the later of "1" and "01" wins
        first["mu"] = dict(mu, **{"01": "3"})
    elif how == "reversed":
        first["mu"] = dict(reversed(list(mu.items())))
    elif how == "zero-s":
        first["s"] = {"1": "0"}
    elif how == "const":
        first["const"] = "-0"
        del obj["entries"][1]["const"]
    elif how == "ratio":
        first["mu"] = {k: "%d/1" % int(c) for k, c in mu.items()}
    return json.dumps(obj)


MALFORMED = [
    '{"family": "affine_a", "n": 2, "entries": [',
    '{"family"',
    "",
    "[]",
    '{"family": "affine_a", "entries": [{}, {}, {}]}',
    '{"family": "affine_a", "n": "2", "entries": [{}, {}, {}]}',
    '{"family": "affine_b", "n": 2, "entries": [{}, {}, {}]}',
    '{"family": "affine_a", "n": 2, "entries": {}}',
    '{"family": "affine_a", "n": 2, "entries": [{}, {}]}',
    '{"family": "affine_a", "n": 2, "entries": [{}, 3, {}]}',
    '{"family": "affine_a", "n": 2, "entries": [{"const": "x"}, {}, {}]}',
    '{"family": "affine_a", "n": 2, "entries": [{"mu": {"1": "1,2"}}, {}, {}]}',
    '{"family": "affine_a", "n": 2, "entries": [{"mu": {"1": 1}}, {}, {}]}',
    '{"family": "affine_a", "n": 2, "entries": [{"mu": {"9": "1"}}, {}, {}]}',
    '{"family": "affine_a", "n": 2, "entries": [{"mu": {"x": "1"}}, {}, {}]}',
    '{"family": "affine_a", "n": 2, "entries": [{"mu": []}, {}, {}]}',
    '{"family": "affine_a", "n": 2, "entries": [{"s": null}, {}, {}]}',
    '{"family": "affine_a", "n": 2, "entries": [{"mu": {"1": "1/0"}}, {}, {}]}',
    '{"family": "affine_ct", "n": 0, "entries": [{}]}',
]


def inputs():
    """(name, spec or None, text) of every input file, in a fixed order."""
    out = []
    for family, n, depth in ((AFFINE_A, 2, 4), (AFFINE_CT, 2, 4),
                             (AFFINE_A, 5, 2), (AFFINE_CT, 5, 2)):
        spec = AlgebraSpec(family, n)
        nodes = enumerate_orbit(spec, depth)
        for nd in nodes[::max(1, len(nodes) // 8)]:
            out.append(("orbit", spec, nd.vector.to_json()))
    for family in (AFFINE_A, AFFINE_CT):
        for n, level in ((3, 25), (8, 25), (3, 90), (8, 90)):
            spec = AlgebraSpec(family, n)
            v = raised(spec, level)
            out.append(("deep", spec, v.to_json()))
            out.append(("deep indented", spec, v.to_json(indent=2)))
            for e, form in ((0, LinForm.weight(2)), (n, LinForm.weight(1, 2)),
                            (1, LinForm.weight(3, Fraction(1, 2))),
                            (2, LinForm.make(1)), (0, LinForm.weight(1, -5))):
                out.append(("bumped", spec, bumped(v, e, form).to_json()))
            for how in ("keys", "repeat", "reversed", "zero-s", "const",
                        "ratio"):
                out.append((how, spec, rewritten(v, how)))
    for family in (AFFINE_A, AFFINE_CT):
        for n in (3, 5):
            spec = AlgebraSpec(family, n)
            out.append(("rational", spec, rational(spec).to_json()))
    out += [("malformed", None, text) for text in MALFORMED]
    return out


def past_cap_inputs():
    """(level, text) of each vector `level` phi-raising letters from zero,
    drawn as the CI step "Packed verdicts from the real process" draws
    them: one `random.Random(rank)` per vector."""
    return [(level, ascended(AlgebraSpec(family, n), level,
                             random.Random(n)).to_json())
            for family in (AFFINE_A, AFFINE_CT) for n, level in PAST_CAP]


def _blowup_args(spec):
    if spec is None or spec.family == AFFINE_A:
        n = 3 if spec is None else spec.n
        return ["--family", "a", "--rank", str(n), "--case", "A-I",
                "--blocks", "2:%d" % (n - 1)]
    return ["--family", "ct", "--rank", str(spec.n), "--case", "Ct-I",
            "--blocks", "1:%d" % spec.n]


def cases(files):
    """(verb, argv) of every case over the (path, spec) files, in order."""
    for path, spec in files:
        for budget in BUDGETS:
            yield "member", (["member", "--input", path] if budget is None
                             else ["member", "--input", path,
                                   "--max-steps", str(budget)])
        yield "pohozaev", ["pohozaev", "--input", path]
        yield "fold", ["fold", "--input", path]
        for r in ROTATIONS:
            yield "rotate", ["rotate", "--input", path, "--r", str(r)]
        yield "blowup-step", ["blowup-step", *_blowup_args(spec),
                              "--input", path]


def past_cap_cases(files):
    """(group, argv) of every case over the (path, level) files."""
    for path, level in files:
        for budget in (level, level - 1, 0):
            yield "member past the cap", ["member", "--input", path,
                                          "--max-steps", str(budget)]
        yield "member past the cap", ["pohozaev", "--input", path]


def digests():
    """{verb: {"cases": count, "sha256": hex}} over every case."""
    hashes, counts = {}, {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # paths in messages are the relative names below
        try:
            files = []
            for k, (_, spec, text) in enumerate(inputs()):
                Path("v%d.json" % k).write_text(text)
                files.append(("v%d.json" % k, spec))
            files.append(("missing.json", None))
            deep = []
            for k, (level, text) in enumerate(past_cap_inputs()):
                Path("deep%d.json" % k).write_text(text)
                deep.append(("deep%d.json" % k, level))
            for verb, argv in chain(cases(files), past_cap_cases(deep)):
                out, err = io.StringIO(), io.StringIO()
                code = run(argv, out=out, err=err)
                record = json.dumps([code, out.getvalue(), err.getvalue()])
                hashes.setdefault(verb, hashlib.sha256()).update(
                    record.encode() + b"\n")
                counts[verb] = counts.get(verb, 0) + 1
        finally:
            os.chdir(home)
    return {verb: {"cases": counts[verb], "sha256": h.hexdigest()}
            for verb, h in sorted(hashes.items())}


def test_vector_verbs_match_reference():
    assert digests() == json.loads(REFERENCE.read_text())


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(digests(), indent=2, sort_keys=True)
                         + "\n")
