"""Byte-identity sweep of the orbit verb.

`orbit` runs in process through `cli.run` on a fixed set of instances:
both families at ranks 2-12 (from rank 9 on, index "10" sorts before "2"
in an entry's JSON), each at depth 0 and at shallow depths, as json, dot
and csv; csv --mu with ones, mixed denominators, negatives and zeros; and
usage errors.  Each group's cases hash into one sha256 over the JSON list
[exit code, stdout, stderr] of each case, in order.  The test compares
the hashes with `orbit_verbs_reference.json`; running this file as a
script rewrites that file:

    PYTHONPATH=src python tests/test_orbit_verbs.py

so ``git diff --exit-code tests/orbit_verbs_reference.json`` shows
whether any output byte of the orbit verb changed.  The empty --mu list
has a group of its own.
"""

import hashlib
import io
import json
from pathlib import Path

from todamass.cli import run

REFERENCE = Path(__file__).with_name("orbit_verbs_reference.json")
FLAGS = ("a", "ct")
# (rank, depths): depth 0 and shallow depths, fewer as the rank grows
SWEEP = ((2, (0, 1, 2, 5, 12)), (3, (0, 1, 3, 8)), (4, (0, 2, 5)),
         (5, (0, 2, 4)), (6, (0, 2, 4)), (7, (0, 1, 3)), (8, (0, 2, 3)),
         (9, (0, 1, 4)), (10, (0, 1, 4)), (11, (0, 2, 3)), (12, (0, 1, 3)))
MU_RANKS = ((2, 8), (3, 5), (5, 3), (9, 3), (10, 3), (12, 2))


def mu_lists(size):
    """(ones, mixed denominators, negatives, zeros) for n+1 = size."""
    return ("ones",
            ",".join("%d/%d" % (k % 5 + 1, k % 4 + 2) if k % 3 else str(k)
                     for k in range(1, size + 1)),
            ",".join("-%d/%d" % (k, k % 3 + 1) if k % 2 else str(k)
                     for k in range(1, size + 1)),
            ",".join(str(k) if k % 3 == 1 else "0"
                     for k in range(1, size + 1)))


def orbit_argv(flag, rank, depth, *extra):
    return ["orbit", "--family", flag, "--rank", str(rank),
            "--depth", str(depth), *extra]


def cases():
    """(group, argv) of every case, in order."""
    for flag in FLAGS:
        for rank, depths in SWEEP:
            for depth in depths:
                for fmt in ("json", "dot", "csv"):
                    yield fmt, orbit_argv(flag, rank, depth, "--out", fmt)
    for flag in FLAGS:
        for rank, depth in MU_RANKS:
            for mu in mu_lists(rank + 1):
                yield "csv --mu", orbit_argv(flag, rank, depth, "--out",
                                             "csv", "--mu", mu)
    for flag in FLAGS:
        yield "usage", orbit_argv(flag, 3, 2, "--mu", "ones")
        yield "usage", orbit_argv(flag, 3, 2, "--out", "json", "--mu", "1")
        yield "usage", orbit_argv(flag, 3, 2, "--out", "csv", "--mu", "1,2")
        yield "usage", orbit_argv(flag, 3, 2, "--out", "csv", "--mu",
                                  "1,2,3,4,5")
        yield "usage", orbit_argv(flag, 3, 2, "--out", "csv", "--mu",
                                  "1,x,2,3")
        yield "usage", orbit_argv(flag, 3, 2, "--out", "csv", "--mu",
                                  "1,1/0,2,3")
        yield "usage", orbit_argv(flag, 3, -1)
        yield "usage", orbit_argv(flag, 3, 2, "--workers", "0")
        yield "empty --mu", orbit_argv(flag, 3, 2, "--out", "csv", "--mu", "")
        yield "empty --mu", orbit_argv(flag, 3, 2, "--out", "json", "--mu",
                                       "")


def record(argv):
    """[exit code, stdout, stderr] of one `run`, stdout written to a text
    wrapper over bytes, as in the bench."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    err = io.StringIO()
    code = run(argv, out, err)
    out.flush()
    return [code, out.buffer.getvalue().decode(), err.getvalue()]


def digests():
    """{group: {"cases": count, "sha256": hex}} over every case."""
    hashes, counts = {}, {}
    for group, argv in cases():
        hashes.setdefault(group, hashlib.sha256()).update(
            json.dumps(record(argv)).encode() + b"\n")
        counts[group] = counts.get(group, 0) + 1
    return {group: {"cases": counts[group], "sha256": h.hexdigest()}
            for group, h in sorted(hashes.items())}


def test_orbit_verb_matches_reference():
    assert digests() == json.loads(REFERENCE.read_text())


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(digests(), indent=2, sort_keys=True)
                         + "\n")
