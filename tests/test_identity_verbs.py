"""Byte-identity sweep of the identity verbs.

`chain --verify`, `relations` and `sperm` run in process through
`cli.run` on a fixed, deterministic set of cases: chain --verify on every
--set j:l with j in 0..n+2 and l in -1..n+1, for both families at ranks
2-20, and on every affine A --wrap r2,r1 with r2 in 0..n+2 and r1 in
-1..n+1 at ranks 2-20, so invalid and empty sets come in too; relations
for both families at ranks 2-40; sperm at --l 0..16 with words drawn
from a fixed seed, with and without --check, with an out-of-range letter,
a bad token and a negative --l; and a "junk argv" group of argv lists
drawn from a fixed seed out of the verb names and their flags, numbers,
j:l and r2,r1 pairs and junk tokens (never -h or --help).  Each group's
cases hash into one sha256 over the JSON list [exit code, stdout, stderr]
of each case, in order.  A junk case whose error argparse worded has its
stderr cut to "usage error", as argparse words its messages differently
across Python versions; every other stderr, the program's own usage
errors included, is hashed whole.
The test compares the hashes with `identity_verbs_reference.json`;
running this file as a script rewrites that file:

    PYTHONPATH=src python tests/test_identity_verbs.py

so ``git diff --exit-code tests/identity_verbs_reference.json`` shows
whether any output byte of these verbs changed.  No other case meets
argparse's invalid-choice text, whose wording differs between Python
versions.
"""

import hashlib
import io
import json
import random
from pathlib import Path

from todamass.cli import _Parser, run

REFERENCE = Path(__file__).with_name("identity_verbs_reference.json")
FLAGS = ("a", "ct")
CHAIN_RANKS = range(2, 21)
RELATION_RANKS = range(2, 41)
SPERM_LENGTHS = range(0, 17)
JUNK_CASES = 3000
# each verb's flags; a verb draws its own most of the time
VERB_FLAGS = {
    "relations": ("--family", "--rank"),
    "chain": ("--family", "--rank", "--set", "--wrap", "--verify"),
    "orbit": ("--family", "--rank", "--depth", "--out", "--mu", "--workers"),
    "member": ("--input", "--max-steps"),
    "pohozaev": ("--input",),
    "fold": ("--input",),
    "rotate": ("--input", "--r"),
    "sperm": ("--l", "--word", "--check"),
    "blowup-step": ("--family", "--rank", "--case", "--blocks", "--input"),
}
FLAG_VALUES = {
    "--family": ("a", "ct"), "--out": ("json", "dot", "csv"),
    "--mu": ("ones", "1,2,3", "1/2,0,-1", ""),
    "--case": ("A-I", "A-II", "Ct-I", "Ct-II", "Ct-III", "Ct-IV"),
    "--blocks": ("2:1", "1:2,w:5:1", "w:4:1", "1:1,4:0"),
    "--word": ("0,1", "1,0,1", "", "0,x"),
    "--input": ("missing.json",), "--verify": (), "--check": (),
}
# the separator of each flag that takes a pair
PAIRS = {"--set": ":", "--wrap": ","}
JUNK = ("x", "", "1.5", "--bogus", "3/2", "w:4:1", "::", ",", "chain", "1e3",
        "-")


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
    rng = random.Random(25)
    for _ in range(JUNK_CASES):
        yield "junk argv", junk_argv(rng)


def junk_value(rng, flag):
    """A value for ``flag`` (None for a stray token): mostly one of its
    own, else a number or pair, now and then junk."""
    kind = rng.random()
    if kind < 0.8 and FLAG_VALUES.get(flag):
        return rng.choice(FLAG_VALUES[flag])
    if kind < 0.9:
        sep = PAIRS.get(flag, "") if flag else rng.choice(("", ":", ","))
        return sep.join(str(rng.randint(-1, 5)) for _ in "ab"[:1 + bool(sep)])
    return rng.choice(JUNK)


def junk_argv(rng):
    """A verb name (now and then junk), most of its flags in a drawn order,
    each but the switches mostly followed by a value, and now and then a
    stray token: another verb's flag, a value or junk."""
    verb = rng.choice(list(VERB_FLAGS) + ["verify"])
    flags = VERB_FLAGS.get(verb, ("--family", "--rank"))
    if verb == "chain" and rng.random() < 0.8:  # mostly one of --set, --wrap
        flags = tuple(f for f in flags if f != rng.choice(list(PAIRS)))
    argv = [verb]
    for flag in rng.sample(flags, len(flags)):
        if rng.random() < 0.85:
            argv.append(flag)
            if flag not in ("--verify", "--check") and rng.random() < 0.9:
                argv.append(junk_value(rng, flag))
    if rng.random() < 0.3:
        stray = rng.choice([rng.choice(rng.choice(list(VERB_FLAGS.values()))),
                            junk_value(rng, None)])
        argv.insert(rng.randint(1, len(argv)), stray)
    return argv


def record(argv):
    """[exit code, stdout, stderr] of one `run`."""
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return [code, out.getvalue(), err.getvalue()]


def junk_record(argv):
    """`record`, with stderr cut to "usage error" if argparse worded the
    error: `_Parser.error` is where argparse hands its messages over."""
    worded, error = [], _Parser.error

    def note(parser, message):
        worded.append(message)
        error(parser, message)
    _Parser.error = note
    try:
        case = record(argv)
    finally:
        _Parser.error = error
    if worded:
        assert case[2] == "usage error: %s\n" % worded[0]
        case[2] = "usage error"
    return case


def digests():
    """{group: {"cases": count, "sha256": hex}} over every case."""
    hashes, counts = {}, {}
    for group, argv in cases():
        case = junk_record(argv) if group == "junk argv" else record(argv)
        hashes.setdefault(group, hashlib.sha256()).update(
            json.dumps(case).encode() + b"\n")
        counts[group] = counts.get(group, 0) + 1
    return {group: {"cases": counts[group], "sha256": h.hexdigest()}
            for group, h in sorted(hashes.items())}


def test_identity_verbs_match_reference():
    assert digests() == json.loads(REFERENCE.read_text())


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(digests(), indent=2, sort_keys=True)
                         + "\n")
