"""Byte-identity sweep of the identity verbs.

`chain --verify`, `relations` and `sperm` run in process through
`cli.run` on a fixed, deterministic set of cases: chain --verify on every
--set j:l with j in 0..n+2 and l in -1..n+1, for both families at ranks
2-20, and on every affine A --wrap r2,r1 with r2 in 0..n+2 and r1 in
-1..n+1 at ranks 2-20, so invalid and empty sets come in too; relations
for both families at ranks 2-40; sperm at --l 0..16 with words drawn
from a fixed seed, with and without --check, with an out-of-range letter,
a bad token and a negative --l.  Each group's cases hash into one sha256
over the JSON list [exit code, stdout, stderr] of each case, in order.
The test compares the hashes with `identity_verbs_reference.json`;
running this file as a script rewrites that file:

    PYTHONPATH=src python tests/test_identity_verbs.py

so ``git diff --exit-code tests/identity_verbs_reference.json`` shows
whether any output byte of these verbs changed.  No case meets argparse's
invalid-choice text, whose wording differs between Python versions.
"""

import hashlib
import io
import json
import random
from pathlib import Path

from todamass.cli import run

REFERENCE = Path(__file__).with_name("identity_verbs_reference.json")
FLAGS = ("a", "ct")
CHAIN_RANKS = range(2, 21)
RELATION_RANKS = range(2, 41)
SPERM_LENGTHS = range(0, 17)


def chain_argv(flag, rank, block, value):
    return ["chain", "--family", flag, "--rank", str(rank), block, value,
            "--verify"]


def sperm_words(l, rng):
    """Words of simple indices 0..l drawn from rng: empty, short and long."""
    for size in (0, 1, 3, 12, 40):
        yield ",".join(str(rng.randint(0, l)) for _ in range(size))


def cases():
    """(group, argv) of every case, in order."""
    for flag in FLAGS:
        for n in CHAIN_RANKS:
            for j in range(0, n + 3):
                for l in range(-1, n + 2):
                    yield "chain --set", chain_argv(flag, n, "--set",
                                                    "%d:%d" % (j, l))
    for n in CHAIN_RANKS:
        for r2 in range(0, n + 3):
            for r1 in range(-1, n + 2):
                yield "chain --wrap", chain_argv("a", n, "--wrap",
                                                 "%d,%d" % (r2, r1))
    for flag in FLAGS:
        yield "chain --wrap", chain_argv(flag, 5, "--wrap", "4:1")
        yield "chain --wrap", chain_argv(flag, 5, "--wrap", "4,1,2")
        yield "chain --set", chain_argv(flag, 5, "--set", "2,1")
        yield "chain --set", ["chain", "--family", flag, "--rank", "5",
                              "--verify"]
    for flag in FLAGS:
        for n in RELATION_RANKS:
            yield "relations", ["relations", "--family", flag, "--rank",
                                str(n)]
    rng = random.Random(24)
    for l in SPERM_LENGTHS:
        for word in sperm_words(l, rng):
            for check in ((), ("--check",)):
                yield "sperm", ["sperm", "--l", str(l), "--word", word, *check]
        yield "sperm", ["sperm", "--l", str(l), "--word", "0,%d" % (l + 1)]
        yield "sperm", ["sperm", "--l", str(l), "--word", "0,x", "--check"]
    yield "sperm", ["sperm", "--l", "-1"]
    yield "sperm", ["sperm", "--l", "2", "--word", "-1"]


def record(argv):
    """[exit code, stdout, stderr] of one `run`."""
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return [code, out.getvalue(), err.getvalue()]


def digests():
    """{group: {"cases": count, "sha256": hex}} over every case."""
    hashes, counts = {}, {}
    for group, argv in cases():
        hashes.setdefault(group, hashlib.sha256()).update(
            json.dumps(record(argv)).encode() + b"\n")
        counts[group] = counts.get(group, 0) + 1
    return {group: {"cases": counts[group], "sha256": h.hexdigest()}
            for group, h in sorted(hashes.items())}


def test_identity_verbs_match_reference():
    assert digests() == json.loads(REFERENCE.read_text())


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(digests(), indent=2, sort_keys=True)
                         + "\n")
