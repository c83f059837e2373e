"""The benchmark's three workloads, built from a seed.

Each workload function returns the ops of one pass.  An op is one call of
`todamass.cli.run(argv, out, err)` or, where no verb exists, one call of
a public library function; its check runs outside the timed region and
returns None when the output is exactly right, or the reason it is not.
The program sees only the generated argv and vector files.

Run `python3 bench/workloads.py` to rewrite `orbit_reference.json`, the
sha256 of every `orbit-export` output.  Each output is checked first with
the independent reference arithmetic in `exact.py`: the JSON nodes and
levels against an exact breadth-first orbit, the DOT nodes and edges
against the JSON vectors and witnesses, and the CSV rows against the
JSON witnesses.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import exact
import program
from exact import AFFINE_A, AFFINE_CT

program.load()
import todamass.cli  # noqa: E402
import todamass.perms  # noqa: E402
from todamass.action import presentation_relations  # noqa: E402
from todamass.algebra import AlgebraSpec, LinForm, MassVector  # noqa: E402
from todamass.cartan import ConsecutiveSet  # noqa: E402
from todamass.perms import FinitePermutation, SPermC, sc_simple  # noqa: E402

HERE = Path(__file__).resolve().parent
ORBIT_REFERENCE = HERE / "orbit_reference.json"

WHY = {
    "orbit-export": "orbit verb, both families, rank 2-3 deep and rank 4-7 "
                    "wide, each as json, dot and csv --mu: BFS, canonical-key "
                    "dedup and export do the work, descent and chains none",
    "member-deep": "member and pohozaev verbs on seeded vectors at levels "
                   "20-120, ranks 3-8, a fifth non-members, a few under "
                   "budget: descent and residual do the work, BFS none",
    "identities": "relations, chain --verify, blowup-step, fold, rotate, "
                  "sperm and sigma_f_ct/finite_a_mass up to rank 16: the "
                  "seed-indeterminate LinForm path, orbit does nothing",
}


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    units: int = 1


def run_cli(argv: list[str]):
    """One CLI invocation; stdout is captured as bytes, like a terminal."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    err = io.StringIO()
    rc = todamass.cli.run(argv, out, err)
    out.flush()
    return rc, out.buffer.getvalue(), err.getvalue()


def cli_op(label, argv, check, units=1) -> Op:
    def checked(result):
        rc, data, err = result
        return check(rc, data.decode(), err)
    return Op(label, lambda: run_cli(argv), checked, units)


def _expect(rc, want_rc, text, want_text) -> Optional[str]:
    if rc != want_rc:
        return "exit %d, expected %d" % (rc, want_rc)
    if want_text is not None and text != want_text:
        return "output %r, expected %r" % (text[:200], want_text[:200])
    return None


def _write_vector(workdir: Path, name: str, family: str, v) -> str:
    path = workdir / (name + ".json")
    path.write_text(exact.vector_json(family, v))
    return str(path)


def _random_word(rng, size, length):
    return tuple(rng.randint(1, size) for _ in range(length))


def _chain_length(family, n, idx) -> int:
    m = len(idx)
    if family == AFFINE_CT and m > 1 and (idx[0] == 1 or idx[-1] == n + 1):
        return m * m
    return m * (m + 1) // 2


# -- orbit-export -----------------------------------------------------------

# (family flag, rank, depth, --mu); outputs do not depend on the seed
ORBIT_GRID = [("a", 3, 8, "ones"), ("ct", 3, 9, "1,1/2,1/3,1/4"),
              ("a", 2, 9, "1,2,3"), ("ct", 2, 10, "ones"),
              ("a", 4, 5, "ones"), ("ct", 4, 5, "1/2,1,1/2,1,1/2"),
              ("a", 5, 4, "ones"), ("ct", 5, 4, "1,2,1,2,1,2"),
              ("a", 6, 3, "ones"), ("a", 6, 4, "1,2,3,4,5,6,7"),
              ("ct", 6, 4, "ones"), ("a", 7, 3, "ones"),
              ("ct", 7, 3, "2,1,2,1,2,1,2,1")]
WORKERS_INSTANCE = ("a", 3, 8)


def orbit_argv(flag, rank, depth, fmt, mu=None, workers=None) -> list[str]:
    argv = ["orbit", "--family", flag, "--rank", str(rank),
            "--depth", str(depth), "--out", fmt]
    if mu:
        argv += ["--mu", mu]
    if workers:
        argv += ["--workers", str(workers)]
    return argv


def _check_csv_from_json(flag, rank, mu, json_text, csv_text) -> Optional[str]:
    """Replay every JSON witness from zero and re-evaluate the CSV rows."""
    family = AFFINE_A if flag == "a" else AFFINE_CT
    size = rank + 1
    values = ([1] * size if mu == "ones"
              else [Fraction(x) for x in mu.split(",")])
    nodes = json.loads(json_text)["nodes"]
    rows = csv_text.split("\n")
    if rows[0] != "index,mass" or rows[-1] != "" or len(rows) != len(nodes) + 2:
        return "csv shape does not match %d json nodes" % len(nodes)
    for k, node in enumerate(nodes):
        v = exact.apply_word(node["witness"], exact.zero(size), family)
        if v != exact.vector_from_dict(node["vector"]):
            return "json node %d: witness does not give its vector" % k
        if len(node["witness"]) != node["level"]:
            return "json node %d: witness length is not its level" % k
        masses = " ".join(str(m) for m in exact.evaluate(v, values))
        if rows[k + 1] != "%d,%s" % (k, masses):
            return "csv row %d is %r, expected %r" % (k, rows[k + 1], masses)
    return None


def orbit_export(rng: random.Random, workdir: Path) -> list[Op]:
    reference = json.loads(ORBIT_REFERENCE.read_text())
    nodes = reference["nodes"]
    latest_json: dict = {}
    ops = []
    grid = list(ORBIT_GRID)
    rng.shuffle(grid)
    for flag, rank, depth, mu in grid:
        key = (flag, rank, depth)
        base = "orbit %s r%d d%d" % key
        for fmt in ("json", "dot", "csv"):
            label = "%s %s" % (base, fmt)
            argv = orbit_argv(flag, rank, depth, fmt,
                              mu if fmt == "csv" else None)

            def check(rc, data, err, label=label, fmt=fmt, key=key, mu=mu):
                if fmt == "json":
                    latest_json[key] = data
                bad = _expect(rc, 0, None, None)
                digest = hashlib.sha256(data.encode()).hexdigest()
                if bad is None and digest != reference.get(label):
                    bad = "sha256 %s differs from the reference" % digest
                if bad is None and fmt == "csv":
                    json_text = latest_json.pop(key, None)
                    if json_text is None:
                        return "no json output to check the csv against"
                    bad = _check_csv_from_json(key[0], key[1], mu,
                                               json_text, data)
                return bad
            ops.append(cli_op(label, argv, check, units=nodes.get(base, 0)))
        if key == WORKERS_INSTANCE:
            label = base + " json"

            def check_workers(rc, data, err, label=label):
                digest = hashlib.sha256(data.encode()).hexdigest()
                if digest != reference.get(label):
                    return "--workers 2 output differs from the reference"
                return _expect(rc, 0, None, None)
            ops.append(cli_op(label + " --workers 2",
                              orbit_argv(flag, rank, depth, "json", workers=2),
                              check_workers, units=nodes.get(base, 0)))
    return ops


# -- member-deep ------------------------------------------------------------

MEMBER_LEVELS = (20, 53, 87, 120)
MEMBER_RANKS = range(3, 9)
NON_MEMBERS = 12
UNDER_BUDGET = ((AFFINE_A, 4), (AFFINE_A, 7), (AFFINE_CT, 4), (AFFINE_CT, 7))
REASON_HALF = "NotInGammaN: coefficient matrix is not nonnegative-integral\n"
REASON_RESIDUAL = "NotInGammaN: Pohozaev residual is nonzero\n"


def ascend(rng, family, size, level):
    """A member at the given level: apply generators that raise phi."""
    v = exact.zero(size)
    cur = exact.phi(v)
    done = 0
    while done < level:
        child = exact.apply_generator(rng.randint(1, size), v, family)
        p = exact.phi(child)
        if p > cur:
            v, cur, done = child, p, done + 1
    return v


def _bump(rng, v, amount):
    e, j = rng.randrange(len(v)), rng.randint(1, len(v))
    return v[:e] + (exact.add(v[e], {j: amount}),) + v[e + 1:]


def member_inputs(rng: random.Random):
    """(kind, family, vector, level) for every input, in build order.

    kind is "member", "half" (a half-integral coefficient) or "residual"
    (integral coefficients, nonzero Pohozaev residual).
    """
    inputs = []
    for family in (AFFINE_A, AFFINE_CT):
        for rank in MEMBER_RANKS:
            for level in MEMBER_LEVELS:
                v = ascend(rng, family, rank + 1, level)
                inputs.append(("member", family, v, level))
    # fixed families, ranks and levels keep the work per pass the same for
    # every seed; the seed picks the ascent paths and the defects
    for k in range(NON_MEMBERS):
        kind = "half" if k % 2 == 0 else "residual"
        family = (AFFINE_A, AFFINE_CT)[k // 2 % 2]
        level = MEMBER_LEVELS[k % len(MEMBER_LEVELS)]
        v = ascend(rng, family, MEMBER_RANKS[k % len(MEMBER_RANKS)] + 1, level)
        bad = _bump(rng, v, 1 if kind == "half" else 2)
        while kind == "residual" and not exact.pohozaev(bad, family):
            bad = _bump(rng, v, 2)
        inputs.append((kind, family, bad, level))
    return inputs


def member_deep(rng: random.Random, workdir: Path) -> list[Op]:
    ops, member_paths = [], {}
    for k, (kind, family, v, level) in enumerate(member_inputs(rng)):
        flag = exact.FAMILY_FLAG[family]
        path = _write_vector(workdir, "v%d" % k, family, v)
        tag = "%s %s r%d L%d" % (kind, flag, len(v) - 1, level)
        if kind == "member":
            member_paths[family, len(v) - 1, level] = path
        poly = exact.pohozaev(v, family)
        want = "residual %s\n" % exact.residual_text(poly)

        def check_poh(rc, out, err, want=want, poly=poly):
            return _expect(rc, 2 if poly else 0, out, want)
        ops.append(cli_op("pohozaev " + tag, ["pohozaev", "--input", path],
                          check_poh))
        if kind == "member":
            def check_member(rc, out, err, v=v, level=level, family=family):
                bad = _expect(rc, 0, None, None)
                if bad or not (out.startswith("Member ") and out.endswith("\n")):
                    return bad or "output %r" % out[:200]
                word = exact.parse_word(out[len("Member "):-1])
                if len(word) != level:
                    return "descent took %d steps at level %d" % (len(word),
                                                                  level)
                if not exact.is_zero(exact.apply_word(word, v, family)):
                    return "descent word does not carry the input to zero"
                return None
            check = check_member
        else:
            want_out = REASON_HALF if kind == "half" else REASON_RESIDUAL

            def check(rc, out, err, want_out=want_out):
                return _expect(rc, 2, out, want_out)
        ops.append(cli_op("member " + tag, ["member", "--input", path], check))
    level = MEMBER_LEVELS[1]
    for family, rank in UNDER_BUDGET:
        path = member_paths[family, rank, level]
        budget = rng.randint(level // 2, level - 1)
        want = "DescentStalled after %d steps\n" % budget

        def check_budget(rc, out, err, want=want):
            return _expect(rc, 3, out, want)
        ops.append(cli_op("member budget %d L%d" % (budget, level),
                          ["member", "--input", path,
                           "--max-steps", str(budget)], check_budget))
    rng.shuffle(ops)
    return ops


# -- identities -------------------------------------------------------------

RELATION_RANKS = (4, 8, 12, 16)
CHAIN_RANK = 10
BLOWUP_RANK = 12
FOLD_RANKS = (3, 4, 5, 6, 7, 8)
ROTATE_RANKS = (6, 8, 10, 12, 14, 16)
SPERM_LS = (2, 4, 8, 12, 14, 16)
SIGMA_RANKS = tuple(range(4, 16))
FINITE_MS = (4, 6, 8, 12, 14, 16)
CASES = {"A-I": AFFINE_A, "A-II": AFFINE_A, "Ct-I": AFFINE_CT,
         "Ct-II": AFFINE_CT, "Ct-III": AFFINE_CT, "Ct-IV": AFFINE_CT}


def _relations_op(flag, family, rank) -> Op:
    names = [name for name, _ in presentation_relations(AlgebraSpec(family, rank))]
    want = "".join("%s PASS\n" % name for name in names)

    def check(rc, out, err):
        return _expect(rc, 0, out, want)
    return cli_op("relations %s r%d" % (flag, rank),
                  ["relations", "--family", flag, "--rank", str(rank)],
                  check, units=len(names))


def _chain_op(family, n, idx, argv_set) -> Op:
    flag = exact.FAMILY_FLAG[family]

    def check(rc, out, err):
        lines = out.split("\n")
        if rc != 0 or len(lines) != 5 or lines[3:] != ["EQUAL", ""]:
            return "exit %d, output %r" % (rc, out[:200])
        word = exact.parse_word(lines[0][len("word "):])
        if lines[1] != "length %d" % len(word) or \
                len(word) != _chain_length(family, n, idx):
            return "chain length %s for a block of %d" % (lines[1], len(idx))
        target = exact.parse_vector_text(lines[2][len("target "):])
        if exact.apply_word(word, exact.generic(n + 1), family) != target:
            return "the chain word does not give the printed target"
        return None
    return cli_op("chain %s r%d %s" % (flag, n, " ".join(argv_set)),
                  ["chain", "--family", flag, "--rank", str(n)] + argv_set
                  + ["--verify"], check)


def chain_ops() -> list[Op]:
    n = CHAIN_RANK
    ops = []
    for family in (AFFINE_A, AFFINE_CT):
        for j in range(1, n + 1):
            for l in range(0, n + 1 - j):
                ops.append(_chain_op(family, n, list(range(j, j + l + 1)),
                                     ["--set", "%d:%d" % (j, l)]))
    for r2 in range(3, n + 2):
        for r1 in range(1, r2 - 1):
            idx = list(range(r2, n + 2)) + list(range(1, r1 + 1))
            ops.append(_chain_op(AFFINE_A, n, idx,
                                 ["--wrap", "%d,%d" % (r2, r1)]))
    return ops


def decomposition(rng, tag, n):
    """A random valid null set for a case tag; blocks in the listed order.

    Returns the blocks as index lists and the `--blocks` text.
    """
    top = n + 1
    while True:
        null = {i for i in range(2, top) if rng.random() < 0.3}
        if tag == "A-I":
            null.add(rng.choice((1, top)))
        elif tag == "Ct-I":
            null = (null - {2}) | {top}
        elif tag == "Ct-II":
            null.add(1)
        elif tag == "Ct-IV":
            null |= {1, top}
        if len(null) < top and (null - {1, top}
                                or tag in ("A-I", "Ct-I", "Ct-II", "Ct-IV")):
            break
    runs, cur = [], []
    for i in range(1, top + 1):
        if i in null:
            if cur:
                runs.append(cur)
            cur = []
        else:
            cur.append(i)
    if cur:
        runs.append(cur)
    if tag == "A-II":
        runs = [runs[-1] + runs[0]] + runs[1:-1]
    elif tag == "Ct-II":
        runs = [runs[-1]] + runs[:-1]
    texts = []
    for idx in runs:
        if idx[0] > idx[-1]:
            texts.append("w:%d:%d" % (idx[0], idx[-1]))
        else:
            texts.append("%d:%d" % (idx[0], len(idx) - 1))
    return runs, ",".join(texts)


def _blowup_op(rng, workdir, tag) -> Op:
    family, n = CASES[tag], BLOWUP_RANK
    blocks, text = decomposition(rng, tag, n)
    v = exact.apply_word(_random_word(rng, n + 1, rng.randint(10, 20)),
                         exact.zero(n + 1), family)
    path = _write_vector(workdir, "blowup-" + tag, family, v)
    length = sum(_chain_length(family, n, idx) for idx in blocks)

    def check(rc, out, err):
        head, _, body = out.partition("\n")
        if rc != 0 or not head.startswith("word "):
            return "exit %d, output %r" % (rc, out[:200])
        word = exact.parse_word(head[len("word "):])
        got = exact.vector_from_dict(json.loads(body))
        if len(word) != length:
            return "blowup word has %d letters, expected %d" % (len(word),
                                                                length)
        if got != exact.apply_word(word, v, family):
            return "blowup vector is not the word applied to the input"
        if exact.pohozaev(got, family):
            return "blowup vector has a nonzero residual"
        return None
    return cli_op("blowup-step %s %s" % (tag, text),
                  ["blowup-step", "--family", exact.FAMILY_FLAG[family],
                   "--rank", str(n), "--case", tag, "--blocks", text,
                   "--input", path], check)


def _fold_op(rng, workdir, n) -> Op:
    v = exact.apply_word(_random_word(rng, n + 1, rng.randint(10, 30)),
                         exact.zero(n + 1), AFFINE_CT)
    path = _write_vector(workdir, "fold-%d" % n, AFFINE_CT, v)
    src = [i if i <= n + 1 else 2 * n + 2 - i for i in range(1, 2 * n + 1)]

    def check(rc, out, err):
        if rc != 0:
            return "exit %d" % rc
        obj = json.loads(out)
        got = exact.vector_from_dict(obj)
        if (obj["family"], obj["n"]) != (AFFINE_A, 2 * n - 1):
            return "folded into %s rank %s" % (obj["family"], obj["n"])
        if got != tuple(v[s - 1] for s in src):
            return "folded entries are not the mirror of the input"
        diff = exact.cyclic_difference(got, [exact.mu(s) for s in src])
        ct = exact.pohozaev(v, AFFINE_CT)
        if diff != {m: 2 * c for m, c in ct.items()} or diff:
            return "folded residual is not zero and twice the Ct residual"
        return None
    return cli_op("fold ct r%d" % n, ["fold", "--input", path], check)


def _rotate_op(rng, workdir, n) -> Op:
    size = n + 1
    word = _random_word(rng, size, rng.randint(5, 15))
    v = exact.apply_word(word, exact.zero(size), AFFINE_A)
    r = rng.randint(1, size)
    path = _write_vector(workdir, "rotate-%d" % n, AFFINE_A, v)
    f = [(r - 1 + i - 1) % size + 1 for i in range(1, size + 1)]
    relabeled = [(i - r) % size + 1 for i in word]

    def check(rc, out, err):
        if rc != 0:
            return "exit %d" % rc
        got = exact.vector_from_dict(json.loads(out))
        if got != tuple(v[f[i] - 1] for i in range(size)):
            return "rotated entries are not entry f(i) of the input"
        cov = exact.apply_word(relabeled, exact.zero(size), AFFINE_A,
                               weights=[exact.mu(x) for x in f])
        if cov != got:
            return "rotation covariance fails"
        return None
    return cli_op("rotate a r%d --r %d" % (n, r),
                  ["rotate", "--input", path, "--r", str(r)], check)


def _sperm_op(rng, l) -> Op:
    word = [rng.randint(0, l) for _ in range(3 * l)]
    values = list(range(2 * l + 2))
    for i in word:
        s = list(range(2 * l + 2))
        s[i], s[i + 1] = i + 1, i
        s[2 * l - i], s[2 * l + 1 - i] = 2 * l + 1 - i, 2 * l - i
        values = [values[s[j]] for j in range(2 * l + 2)]
    want = "values %s\nconstraint PASS\n" % " ".join(map(str, values))

    def check(rc, out, err):
        return _expect(rc, 0, out, want)
    return cli_op("sperm l%d" % l, ["sperm", "--l", str(l), "--word",
                                    ",".join(map(str, word)), "--check"],
                  check)


def _sigma_op(rng, n) -> Op:
    """Criterion 11: sigma_f_ct(g, f.f_i, J) = R_target sigma_f_ct(g, f, J)."""
    spec = AlgebraSpec(AFFINE_CT, n)
    g = MassVector.generic(spec)
    l0 = rng.randint(0, min(5, n - 1))
    head = rng.random() < 0.5
    J = ConsecutiveSet(1, l0) if head else ConsecutiveSet(n + 1 - l0, l0)
    f = SPermC.identity(l0)
    for _ in range(6):
        f = f.compose(sc_simple(rng.randint(0, l0), l0))
    i = rng.randint(0, l0)
    target = l0 + 1 - i if head else i + J.start
    fi = f.compose(sc_simple(i, l0))

    def check(result):
        # the right-hand side is computed here, not while the inputs are
        # built, so the traced pass meets every Cartan matrix uncached
        want = exact.apply_generator(target, exact.vector_from_library(
            todamass.perms.sigma_f_ct(g, f, J)), AFFINE_CT)
        if exact.vector_from_library(result) != want:
            return "sigma_f_ct recursion fails"
        return None
    return Op("sigma_f_ct ct r%d %s l0=%d i=%d" % (n, "head" if head else "tail",
                                                   l0, i),
              lambda: todamass.perms.sigma_f_ct(g, fi, J), check)


def _finite_op(rng, m) -> Op:
    values = list(range(m + 1))
    rng.shuffle(values)
    perm = FinitePermutation(tuple(values))
    weights = [LinForm.weight(j) for j in range(1, m + 1)]

    def prefix(k):
        return {j: 1 for j in range(1, k + 1)}
    want, acc = [], {}
    for i in range(1, m + 1):
        acc = exact.add(acc, exact.add(prefix(values[i - 1]), prefix(i - 1), -1),
                        2)
        want.append(acc)

    def check(result):
        got = [exact.form_from_library(f) for f in result]
        return None if got == want else "finite_a_mass differs"
    return Op("finite_a_mass m%d" % m,
              lambda: todamass.perms.finite_a_mass(perm, weights), check)


def identities(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for family in (AFFINE_A, AFFINE_CT):
        for rank in RELATION_RANKS:
            ops.append(_relations_op(exact.FAMILY_FLAG[family], family, rank))
    ops += chain_ops()
    ops += [_blowup_op(rng, workdir, tag) for tag in CASES]
    ops += [_fold_op(rng, workdir, n) for n in FOLD_RANKS]
    ops += [_rotate_op(rng, workdir, n) for n in ROTATE_RANKS]
    ops += [_sperm_op(rng, l) for l in SPERM_LS]
    ops += [_sigma_op(rng, n) for n in SIGMA_RANKS]
    ops += [_finite_op(rng, m) for m in FINITE_MS]
    rng.shuffle(ops)
    return ops


BY_NAME = {"orbit-export": orbit_export, "member-deep": member_deep,
            "identities": identities}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    return BY_NAME[name](random.Random("%s/%d" % (name, seed)), workdir)


def _key(v: tuple) -> tuple:
    return tuple(tuple(sorted(e.items())) for e in v)


def exact_orbit(family: str, size: int, depth: int) -> dict:
    """Breadth-first orbit of zero within the depth: vector key -> level."""
    zero = exact.zero(size)
    levels = {_key(zero): 0}
    frontier = [zero]
    for level in range(1, depth + 1):
        nxt = []
        for v in frontier:
            for i in range(1, size + 1):
                child = exact.apply_generator(i, v, family)
                if _key(child) not in levels:
                    levels[_key(child)] = level
                    nxt.append(child)
        frontier = nxt
    return levels


def _check_orbit(flag, rank, depth, json_text, dot_text) -> Optional[str]:
    """Compare JSON nodes with an exact BFS, and DOT with the JSON nodes."""
    family = AFFINE_A if flag == "a" else AFFINE_CT
    nodes = json.loads(json_text)["nodes"]
    vectors = [exact.vector_from_dict(nd["vector"]) for nd in nodes]
    got = {_key(v): nd["level"] for v, nd in zip(vectors, nodes)}
    if len(got) != len(nodes):
        return "json nodes repeat a vector"
    if got != exact_orbit(family, rank + 1, depth):
        return "json nodes or levels differ from an exact BFS"
    lines = dot_text.split("\n")
    if lines[0] != "digraph orbit {" or lines[-2:] != ["}", ""]:
        return "dot header or footer"
    for k, v in enumerate(vectors):
        head = '  v%d [label="' % k
        line = lines[1 + k]
        if not (line.startswith(head) and line.endswith('"];')) or \
                exact.parse_vector_text(line[len(head):-3]) != v:
            return "dot node %d differs from the json vector" % k
    index = {_key(v): k for k, v in enumerate(vectors)}
    edges = []
    for k, nd in enumerate(nodes):
        word = nd["witness"]
        if word:
            parent = exact.apply_word(word[1:], exact.zero(rank + 1), family)
            edges.append("  v%d -> v%d [label=%d];"
                         % (index[_key(parent)], k, word[0]))
    if lines[1 + len(nodes):-2] != edges:
        return "dot edges differ from the json witnesses"
    return None


def write_orbit_reference() -> None:
    """Record the sha256 of every orbit-export output, checked first."""
    reference: dict = {"nodes": {}}
    for flag, rank, depth, mu in ORBIT_GRID:
        base = "orbit %s r%d d%d" % (flag, rank, depth)
        outputs = {}
        for fmt in ("json", "dot", "csv"):
            rc, data, err = run_cli(orbit_argv(flag, rank, depth, fmt,
                                               mu if fmt == "csv" else None))
            if rc != 0:
                raise SystemExit("%s %s: exit %d: %s" % (base, fmt, rc, err))
            outputs[fmt] = data.decode()
            reference["%s %s" % (base, fmt)] = hashlib.sha256(data).hexdigest()
        bad = _check_orbit(flag, rank, depth, outputs["json"],
                           outputs["dot"]) or _check_csv_from_json(
            flag, rank, mu, outputs["json"], outputs["csv"])
        if bad is not None:
            raise SystemExit("%s: %s" % (base, bad))
        reference["nodes"][base] = len(json.loads(outputs["json"])["nodes"])
    ORBIT_REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True)
                               + "\n")


if __name__ == "__main__":
    write_orbit_reference()
