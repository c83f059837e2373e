"""Command-line front end.

Exit codes: 0 success/verified, 1 usage or input error, 2 property
violated / not a member, 3 inconclusive (descent stalled).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from .algebra import (AFFINE_A, AFFINE_CT, AlgebraSpec, MassVector,
                      _read_rows)
from .cartan import ConsecutiveSet
from .action import (Word, _fold, _generic_packing, _residual,
                     presentation_relations, verify_relation)
from .chains import Decomposition, blowup_step, chain_word_a, chain_word_ct
from .errors import NotMassForm, TodamassError
from .orbit import (DESCENT_STALLED, MEMBER, _membership, _ranked_orbit,
                    _write_graph)
from .perms import (CyclicRotation, SPermC, _block_rows, _generic_text,
                    fold_ct_to_a, rotate_vector, sc_simple)

FAMILY_FLAGS = {"a": AFFINE_A, "ct": AFFINE_CT}
WORD_SLICE = 4096  # letters per piece of a written word


class UsageError(Exception):
    pass


class _Help(Exception):
    """Carries a parser's help text from -h/--help back to `run`."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


def _spec(args) -> AlgebraSpec:
    return AlgebraSpec(FAMILY_FLAGS[args.family], args.rank)


def _parse_pair(text: str, sep: str, form: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in text.split(sep))
    except ValueError:
        raise UsageError("expected %s, got %r" % (form, text))
    return a, b


def _wrap_set(spec: AlgebraSpec, r2: int, r1: int) -> ConsecutiveSet:
    """The wrapping set {r2, .., n+1} u {1, .., r1}."""
    return ConsecutiveSet(r2, (spec.n + 1) - r2 + r1, wrap=True)


def _parse_block(token: str, spec: AlgebraSpec) -> ConsecutiveSet:
    """One --blocks token: j:l, or w:r2:r1 for a wrapping block."""
    if token.startswith("w:"):
        return _wrap_set(spec, *_parse_pair(token[2:], ":", "r2:r1 after w:"))
    return ConsecutiveSet(*_parse_pair(token, ":", "block j:l or w:r2:r1"))


def _require(flag: str, value: int, least: int) -> None:
    if value < least:
        raise UsageError("%s must be at least %d, got %d"
                         % (flag, least, value))


def _parse_mu(text: str, size: int) -> list[Fraction]:
    if text == "ones":
        return [Fraction(1)] * size
    try:
        values = [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError("bad --mu list %r" % text)
    if len(values) != size:
        raise UsageError("--mu needs %d values" % size)
    return values


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _cmd_relations(args, out) -> int:
    spec = _spec(args)
    failed = 0
    for name, word in presentation_relations(spec):
        ok = verify_relation(word, spec)
        out.write("%s %s\n" % (name, "PASS" if ok else "FAIL"))
        failed += not ok
    return 0 if not failed else 2


def _write_word(out, word: Word) -> None:
    """Write "word %s\n" % word, the letters joined WORD_SLICE at a time,
    so that a word of millions of letters is never one string."""
    out.write("word [")
    for k in range(0, len(word), WORD_SLICE):
        out.write((" " if k else "")
                  + " ".join(map(str, word.letters[k:k + WORD_SLICE])))
    out.write("]\n")


def _cmd_chain(args, out) -> int:
    spec = _spec(args)
    if args.wrap:
        J = _wrap_set(spec, *_parse_pair(args.wrap, ",", "--wrap r2,r1"))
    else:
        if not args.set:
            raise UsageError("either --set or --wrap is required")
        J = ConsecutiveSet(*_parse_pair(args.set, ":", "--set j:l"))
    builder = chain_word_a if spec.family == AFFINE_A else chain_word_ct
    plan = builder(J, spec)
    _write_word(out, plan.word)
    out.write("length %d\n" % len(plan.word))
    if args.verify:
        # on the rows packed for the fold, proved wide enough (`chains`)
        packing = _generic_packing(spec, len(plan.word))
        new, target = _block_rows(packing, spec, J)
        out.write("target %s\n" % _generic_text(spec, target))
        want = tuple(new.get(s, row) for s, row in enumerate(packing[0], 1))
        equal = tuple(_fold(plan.word, spec, packing)) == want
        out.write("EQUAL\n" if equal else "UNEQUAL\n")
        return 0 if equal else 2
    return 0


def _cmd_orbit(args, out) -> int:
    _require("--depth", args.depth, 0)
    _require("--workers", args.workers, 1)
    if args.mu is not None and args.out != "csv":
        raise UsageError("--mu needs --out csv")
    spec = _spec(args)
    mu = _parse_mu(args.mu, spec.size) if args.mu is not None else None
    # each level's pieces go out as they are made, as bytes where out has
    # a binary buffer; every check is made before the first one
    write = out.write if not hasattr(out, "buffer") else (
        lambda text: out.buffer.write(text.encode()))
    _write_graph(*_ranked_orbit(spec, args.depth), args.out, mu, write)
    return 0


def _cmd_member(args, out) -> int:
    _require("--max-steps", args.max_steps, 0)
    rows = _read_rows(_read(args.input))
    try:
        report = _membership(*rows, args.max_steps)
    except NotMassForm as exc:
        out.write("NotInGammaN: %s\n" % exc)
        return 2
    if report.verdict == MEMBER:
        out.write("Member %s\n" % report.word)
        return 0
    if report.verdict == DESCENT_STALLED:
        out.write("DescentStalled after %d steps\n" % report.steps)
        return 3
    out.write("NotInGammaN: %s\n" % report.reason)
    return 2


def _cmd_pohozaev(args, out) -> int:
    residual = _residual(*_read_rows(_read(args.input)))
    out.write("residual %s\n" % residual)
    return 0 if residual.is_zero else 2


def _cmd_fold(args, out) -> int:
    folded, _ = fold_ct_to_a(MassVector.from_json(_read(args.input)))
    out.write(folded.to_json(indent=2) + "\n")
    return 0


def _cmd_rotate(args, out) -> int:
    v = MassVector.from_json(_read(args.input))
    out.write(rotate_vector(v, CyclicRotation(args.r)).to_json(indent=2) + "\n")
    return 0


def _cmd_sperm(args, out) -> int:
    _require("--l", args.l, 0)
    f = SPermC.identity(args.l)
    if args.word:
        for tok in args.word.split(","):
            f = f.compose(sc_simple(int(tok), args.l))
    out.write("values %s\n" % (" ".join(str(x) for x in f.values)))
    if args.check:  # SPermC refuses a permutation that breaks it
        out.write("constraint PASS\n")
    return 0


def _cmd_blowup_step(args, out) -> int:
    spec = _spec(args)
    blocks = [_parse_block(tok, spec) for tok in args.blocks.split(",")]
    null_set = frozenset(spec.indices).difference(
        *(b.indices(spec.n) for b in blocks))
    d = Decomposition(spec, args.case, tuple(blocks), null_set)
    v = (MassVector.from_json(_read(args.input)) if args.input
         else MassVector.zero(spec))
    result = blowup_step(v, d)
    _write_word(out, result.word)
    out.write(result.vector.to_json(indent=2) + "\n")
    return 0


@cache
def build_parser() -> _Parser:
    """The parser; each verb's subparser carries its handler.

    Built on the first call and shared by every later one, so callers
    must not change it; parsing does not.
    """
    parser = _Parser(prog="todamass")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, handler, family_rank=False):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        if family_rank:
            p.add_argument("--family", choices=sorted(FAMILY_FLAGS),
                           required=True)
            p.add_argument("--rank", type=int, required=True)
        return p

    verb("relations", _cmd_relations, family_rank=True)

    p = verb("chain", _cmd_chain, family_rank=True)
    block = p.add_mutually_exclusive_group()
    block.add_argument("--set")
    block.add_argument("--wrap")
    p.add_argument("--verify", action="store_true")

    p = verb("orbit", _cmd_orbit, family_rank=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", choices=["dot", "json", "csv"], default="json")
    p.add_argument("--mu")
    p.add_argument("--workers", type=int, default=1)

    p = verb("member", _cmd_member)
    p.add_argument("--input", required=True)
    p.add_argument("--max-steps", type=int, default=256)

    verb("pohozaev", _cmd_pohozaev).add_argument("--input", required=True)
    verb("fold", _cmd_fold).add_argument("--input", required=True)

    p = verb("rotate", _cmd_rotate)
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)

    p = verb("sperm", _cmd_sperm)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--word", default="")
    p.add_argument("--check", action="store_true")

    p = verb("blowup-step", _cmd_blowup_step, family_rank=True)
    p.add_argument("--case", required=True)
    p.add_argument("--blocks", required=True)
    p.add_argument("--input")

    parser.verbs = sub.choices
    return parser


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        # a verb's name first: its parser alone parses the rest, one pass
        parser = build_parser()
        verb = parser.verbs.get(argv[0]) if argv else None
        args = verb.parse_args(argv[1:]) if verb else parser.parse_args(argv)
        return args.handler(args, out)
    except _Help as exc:
        out.write(str(exc))
        return 0
    except UsageError as exc:
        err.write("usage error: %s\n" % exc)
        return 1
    except FileNotFoundError as exc:
        err.write("cannot read input: %s\n" % exc)
        return 1
    except TodamassError as exc:
        err.write("%s: %s\n" % (type(exc).__name__, exc))
        return exc.exit_code
    except (OSError, ValueError) as exc:
        err.write("error: %s\n" % exc)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
