import hashlib
import io
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from test_algebra import MALFORMED

from todamass.algebra import AlgebraSpec, LinForm, MassVector
from todamass.action import Word, apply_word
from todamass.cartan import ConsecutiveSet
from todamass.chains import chain_word_a, chain_word_ct
from todamass.cli import WORD_SLICE, _write_word, build_parser, run
from todamass.errors import TodamassError


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write_vector(tmp_path, name, v):
    path = tmp_path / name
    path.write_text(v.to_json())
    return str(path)


def test_relations_pass():
    code, out, _ = invoke(["relations", "--family", "a", "--rank", "3"])
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_usage_error():
    code, _, err = invoke(["relations", "--family", "x", "--rank", "3"])
    assert code == 1 and err


def test_chain_verify():
    code, out, _ = invoke(["chain", "--family", "a", "--rank", "4",
                           "--set", "1:2", "--verify"])
    assert code == 0
    assert "length 6" in out and "EQUAL" in out


def test_chain_wrap():
    code, out, _ = invoke(["chain", "--family", "a", "--rank", "4",
                           "--wrap", "4,1", "--verify"])
    assert code == 0 and "EQUAL" in out


def test_orbit_json_round_trips():
    code, out, _ = invoke(["orbit", "--family", "a", "--rank", "2",
                           "--depth", "2", "--out", "json"])
    assert code == 0
    payload = json.loads(out)
    for item in payload["nodes"]:
        MassVector.from_json(json.dumps(item["vector"]))


def test_orbit_csv_ones():
    code, out, _ = invoke(["orbit", "--family", "a", "--rank", "2",
                           "--depth", "1", "--out", "csv", "--mu", "ones"])
    assert code == 0
    assert out.splitlines()[0] == "index,mass"


def test_member_flow(tmp_path):
    spec = AlgebraSpec("affine_a", 2)
    v = apply_word(Word.of(2, 1), MassVector.zero(spec))
    path = write_vector(tmp_path, "v.json", v)
    code, out, _ = invoke(["member", "--input", path])
    assert code == 0 and out.startswith("Member")

    bad = MassVector(spec, (LinForm.make(1), LinForm.zero(), LinForm.zero()))
    path = write_vector(tmp_path, "bad.json", bad)
    code, out, _ = invoke(["member", "--input", path])
    assert code == 2 and "NotInGammaN" in out

    deep = apply_word(Word.of(1, 2, 1, 3, 2, 1, 2), MassVector.zero(spec))
    path = write_vector(tmp_path, "deep.json", deep)
    code, out, _ = invoke(["member", "--input", path, "--max-steps", "1"])
    assert code == 3 and "DescentStalled" in out


def test_member_malformed_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = invoke(["member", "--input", str(path)])
    assert code == 1 and err


@pytest.mark.parametrize("text", [text for text, _, _ in MALFORMED])
def test_member_and_pohozaev_reject_malformed_files_as_from_json(tmp_path,
                                                                  text):
    with pytest.raises(TodamassError) as info:
        MassVector.from_json(text)
    exc = info.value
    path = tmp_path / "v.json"
    path.write_text(text)
    for verb in ("member", "pohozaev"):
        assert invoke([verb, "--input", str(path)]) == \
            (exc.exit_code, "", "%s: %s\n" % (type(exc).__name__, exc))


def test_pohozaev(tmp_path):
    spec = AlgebraSpec("affine_a", 2)
    good = apply_word(Word.of(1, 2), MassVector.zero(spec))
    path = write_vector(tmp_path, "good.json", good)
    code, out, _ = invoke(["pohozaev", "--input", path])
    assert code == 0 and "residual 0" in out
    bad = MassVector(spec, (LinForm.make(1), LinForm.zero(), LinForm.zero()))
    path = write_vector(tmp_path, "bad.json", bad)
    code, out, _ = invoke(["pohozaev", "--input", path])
    assert code == 2


def test_fold_and_rotate(tmp_path):
    ct = MassVector.zero(AlgebraSpec("affine_ct", 2))
    path = write_vector(tmp_path, "ct.json", ct)
    code, out, _ = invoke(["fold", "--input", path])
    assert code == 0
    folded = MassVector.from_json(out)
    assert folded.spec == AlgebraSpec("affine_a", 3)

    a = apply_word(Word.of(1), MassVector.zero(AlgebraSpec("affine_a", 2)))
    path = write_vector(tmp_path, "a.json", a)
    code, out, _ = invoke(["rotate", "--input", path, "--r", "2"])
    assert code == 0
    assert str(MassVector.from_json(out)) == "(0, 0, 2*mu_1)"


def test_sperm():
    code, out, _ = invoke(["sperm", "--l", "2", "--word", "0,1,2", "--check"])
    assert code == 0 and "constraint PASS" in out


def test_sperm_check_passes_every_word():
    """Every word of simple palindromic involutions gives a permutation
    that keeps f(j) + f(2l+1-j) = 2l+1, so --check prints its values and
    constraint PASS and exits 0; the values are the product, in word
    order, of the swaps of i, i+1 and of their mirrors (`sc_simple`).
    Only a letter outside 0..l fails: a one-line DomainError, no output."""
    rng = random.Random(7)
    for l in range(4):
        top = 2 * l + 1
        for _ in range(40):
            letters = [rng.randint(0, l) for _ in range(rng.randint(0, 6))]
            values = list(range(top + 1))
            for i in letters:
                swap = {i: i + 1, i + 1: i, top - i: top - i - 1,
                        top - i - 1: top - i}
                values = [values[swap.get(j, j)] for j in range(top + 1)]
            argv = ["sperm", "--l", str(l), "--check"]
            if letters:
                argv += ["--word", ",".join(map(str, letters))]
            assert invoke(argv) == (0, "values %s\nconstraint PASS\n"
                                    % " ".join(map(str, values)), "")
        code, out, err = invoke(["sperm", "--l", str(l), "--word",
                                 str(l + 1), "--check"])
        assert (code, out) == (2, "") and err == \
            "DomainError: simple index %d outside 0..%d\n" % (l + 1, l)


def test_blowup_step():
    code, out, _ = invoke(["blowup-step", "--family", "ct", "--rank", "4",
                           "--case", "Ct-IV", "--blocks", "2:0,4:0"])
    assert code == 0 and out.startswith("word [2 4]")
    code, _, err = invoke(["blowup-step", "--family", "a", "--rank", "4",
                           "--case", "A-II", "--blocks", "w:4:1,3:0"])
    assert code == 2 and "DecompositionError" in err


# (family, rank, case tag, --blocks): valid decompositions of every case
# tag; the A-I block 1:100 has a chain of 5,151 letters, which
# `_write_word` writes in slices
BLOWUP_CASES = (
    ("a", 4, "A-I", "1:2"), ("a", 4, "A-I", "2:1"),
    ("a", 5, "A-I", "1:1,4:1"), ("a", 102, "A-I", "1:100"),
    ("a", 4, "A-II", "w:5:1,3:0"), ("a", 4, "A-II", "w:4:2"),
    ("a", 6, "A-II", "w:6:1,4:0"),
    ("ct", 4, "Ct-I", "1:2"), ("ct", 4, "Ct-I", "1:1,4:0"),
    ("ct", 4, "Ct-II", "3:2"), ("ct", 4, "Ct-II", "2:3"),
    ("ct", 4, "Ct-III", "1:0,3:2"), ("ct", 5, "Ct-III", "1:1,4:2"),
    ("ct", 4, "Ct-IV", "2:0,4:0"), ("ct", 5, "Ct-IV", "3:1"),
)
# sha256 over one JSON line [exit code, stdout, stderr] per blowup-step
# call below, taken when the verb wrote "word %s\n" % result.word
BLOWUP_SHA256 = \
    "15978d16539ab6ff68117c4f5ef1b18af1abffebb33c7e1a455ea6782874c267"


def test_blowup_step_writes_its_word_as_chain_does(tmp_path):
    digest = hashlib.sha256()
    for flag, n, case, blocks in BLOWUP_CASES:
        spec = AlgebraSpec({"a": "affine_a", "ct": "affine_ct"}[flag], n)
        path = write_vector(tmp_path, "v.json",
                            apply_word(Word.of(2, 1, 3), MassVector.zero(spec)))
        argv = ["blowup-step", "--family", flag, "--rank", str(n),
                "--case", case, "--blocks", blocks]
        for extra in ([], ["--input", path]):
            result = invoke(argv + extra)
            assert result[0] == 0 and result[2] == ""
            digest.update(json.dumps(result).encode() + b"\n")
    assert digest.hexdigest() == BLOWUP_SHA256


@pytest.mark.parametrize("opener", ["[", '{"n": '])
def test_deeply_nested_json_is_a_format_error(tmp_path, opener):
    path = tmp_path / "deep.json"
    path.write_text(opener * 200000)
    for argv in (["member"], ["pohozaev"], ["fold"], ["rotate", "--r", "1"],
                 ["blowup-step", "--family", "a", "--rank", "4",
                  "--case", "A-I", "--blocks", "1:2"]):
        code, out, err = invoke(argv + ["--input", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("FormatError: invalid JSON: ")
        assert err.count("\n") == 1 and err.endswith("\n")


def test_byte_identical_repeat_runs():
    args = ["orbit", "--family", "ct", "--rank", "3", "--depth", "3",
            "--out", "json"]
    outs = {invoke(args)[1] for _ in range(3)}
    assert len(outs) == 1


def test_word_written_in_slices_equals_its_string():
    rng = random.Random(8)
    for length in (0, 1, WORD_SLICE - 1, WORD_SLICE, WORD_SLICE + 1,
                   2 * WORD_SLICE, 2 * WORD_SLICE + 1):
        word = Word(tuple(rng.randint(1, 12) for _ in range(length)))
        out = io.StringIO()
        _write_word(out, word)
        assert out.getvalue() == "word %s\n" % word, length
    # the set {2, .., 2+l} has a chain of (l+1)(l+2)/2 letters: 4095 at
    # l = 89, 4186 at l = 90
    for flag, builder in (("a", chain_word_a), ("ct", chain_word_ct)):
        for l in (89, 90):
            plan = builder(ConsecutiveSet(2, l),
                           AlgebraSpec("affine_" + flag, l + 3))
            code, out, _ = invoke(["chain", "--family", flag, "--rank",
                                   str(l + 3), "--set", "2:%d" % l])
            assert code == 0
            assert out == "word %s\nlength %d\n" % (plan.word, len(plan.word))


# sha256 over one JSON line [exit code, stdout, stderr] per call of
# chain_and_relations_argvs(), taken from the implementation before chain
# targets and relation checks moved onto integer rows
CHAIN_RELATIONS_SHA256 = \
    "427da533019fbdaa169a269d22597bb20e1d2bf5d0023385cdd3a224e49f026e"


def chain_and_relations_argvs():
    """chain --verify for every --set j:l (j 0..n+2, l -1..n+1) and every
    --wrap r2,r1 (0..n+2) of A and Ct at ranks 2-8, invalid ones included,
    and relations at ranks 2, 3, 4, 8, 12 and 16: 1,916 calls."""
    for flag in ("a", "ct"):
        for n in range(2, 9):
            base = ["chain", "--family", flag, "--rank", str(n), "--verify"]
            for j in range(n + 3):
                for l in range(-1, n + 2):
                    yield base + ["--set", "%d:%d" % (j, l)]
            for r2 in range(n + 3):
                for r1 in range(n + 3):
                    yield base + ["--wrap", "%d,%d" % (r2, r1)]
        for n in (2, 3, 4, 8, 12, 16):
            yield ["relations", "--family", flag, "--rank", str(n)]


def test_chain_and_relations_output_is_byte_identical():
    digest, calls = hashlib.sha256(), 0
    for argv in chain_and_relations_argvs():
        digest.update(json.dumps(invoke(argv)).encode() + b"\n")
        calls += 1
    assert calls == 1916
    assert digest.hexdigest() == CHAIN_RELATIONS_SHA256


def test_orbit_mu_needs_csv():
    for fmt in (["--out", "json"], ["--out", "dot"], []):
        code, out, err = invoke(["orbit", "--family", "a", "--rank", "2",
                                 "--depth", "1", "--mu", "ones"] + fmt)
        assert code == 1 and out == "", fmt
        assert err == "usage error: --mu needs --out csv\n"


def test_orbit_csv_refuses_an_empty_mu_list():
    """An empty --mu is a list of no values, not a missing flag."""
    for flag in ("a", "ct"):
        code, out, err = invoke(["orbit", "--family", flag, "--rank", "3",
                                 "--depth", "2", "--out", "csv", "--mu", ""])
        assert (code, out, err) == (1, "", "usage error: bad --mu list ''\n")


def test_orbit_rejects_workers_below_one():
    for workers in ("0", "-2"):
        code, out, err = invoke(["orbit", "--family", "a", "--rank", "2",
                                 "--depth", "2", "--workers", workers])
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1


def test_orbit_rejects_negative_depth():
    code, out, err = invoke(["orbit", "--family", "a", "--rank", "2",
                             "--depth", "-1"])
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_member_rejects_negative_max_steps(tmp_path):
    v = apply_word(Word.of(2, 1), MassVector.zero(AlgebraSpec("affine_a", 2)))
    path = write_vector(tmp_path, "v.json", v)
    code, out, err = invoke(["member", "--input", path, "--max-steps", "-1"])
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_malformed_blocks_and_wrap_are_usage_errors():
    for blocks in ("w:4", "x", "1", "2:0,w:1:2:3", ""):
        code, out, err = invoke(["blowup-step", "--family", "a", "--rank",
                                 "4", "--case", "A-II", "--blocks", blocks])
        assert code == 1 and out == "", blocks
        assert err.startswith("usage error:") and err.count("\n") == 1
    for wrap in ("4", "4,x", "4,1,2"):
        code, out, err = invoke(["chain", "--family", "a", "--rank", "4",
                                 "--wrap", wrap])
        assert code == 1 and err.startswith("usage error:"), wrap


def test_chain_set_and_wrap_together_are_a_usage_error():
    for flags in (["--set", "1:2", "--wrap", "3,1"],
                  ["--wrap", "3,1", "--set", "1:2", "--verify"]):
        code, out, err = invoke(["chain", "--family", "a", "--rank", "3"]
                                + flags)
        assert code == 1 and out == "", flags
        assert err.startswith("usage error:") and err.count("\n") == 1
    code, _, err = invoke(["chain", "--family", "a", "--rank", "3"])
    assert code == 1
    assert err == "usage error: either --set or --wrap is required\n"


def test_out_of_range_index_is_a_format_error(tmp_path):
    path = tmp_path / "v.json"
    path.write_text('{"family": "affine_a", "n": 2, "entries": '
                    '[{"mu": {"1": "2"}}, {"mu": {"99": "2"}}, {}]}')
    for verb in ("pohozaev", "member"):
        code, out, err = invoke([verb, "--input", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("FormatError:") and err.count("\n") == 1


def test_negative_sperm_l_is_a_usage_error():
    code, out, err = invoke(["sperm", "--l", "-1"])
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    code, out, _ = invoke(["sperm", "--l", "0", "--check"])
    assert code == 0 and out == "values 0 1\nconstraint PASS\n"


def test_fold_rejects_an_affine_a_vector(tmp_path):
    a = apply_word(Word.of(1), MassVector.zero(AlgebraSpec("affine_a", 2)))
    path = write_vector(tmp_path, "a.json", a)
    code, out, err = invoke(["fold", "--input", path])
    assert code == 2 and out == ""
    assert err.startswith("DomainError:") and err.count("\n") == 1


VERBS = ["relations", "chain", "orbit", "member", "pohozaev", "fold",
         "rotate", "sperm", "blowup-step"]


def test_help_is_written_to_out_and_exits_zero():
    requests = [[flag] for flag in ("-h", "--help")]
    requests += [[verb, flag] for verb in VERBS for flag in ("-h", "--help")]
    requests += [["orbit", "--family", "a", "-h"]]
    for argv in requests:
        code, out, err = invoke(argv)
        assert code == 0 and err == "", argv
        verb = [argv[0]] if argv[0] in VERBS else []
        assert out.startswith("usage: " + " ".join(["todamass"] + verb)), argv
        assert "-h, --help" in out


def test_reused_parser_matches_a_fresh_one():
    chain = ["chain", "--family", "a", "--rank", "4", "--set", "1:2"]
    orbit = ["orbit", "--family", "a", "--rank", "2", "--depth", "1",
             "--out", "csv"]
    sequence = [chain + ["--verify"], chain, orbit + ["--mu", "ones"], orbit,
                ["sperm", "--l", "2", "--word", "0,1", "--check"],
                ["sperm", "--l", "2", "--word", "0,1"],
                ["member", "--help"], ["orbit", "--family", "x"]]

    def fresh(argv):
        build_parser.cache_clear()
        return invoke(argv)

    expected = [fresh(argv) for argv in sequence]
    assert "EQUAL" in expected[0][1] and "EQUAL" not in expected[1][1]
    assert expected[2][1] != expected[3][1]
    assert "constraint" in expected[4][1] and \
        "constraint" not in expected[5][1]
    assert [code for code, _, _ in expected[6:]] == [0, 1]
    build_parser.cache_clear()
    assert [invoke(argv) for argv in sequence] == expected
    assert build_parser() is build_parser()
    assert [invoke(argv) for argv in reversed(sequence)] == expected[::-1]


# Every numeric token that can size the work (--rank, --depth, --l, word
# letters) stays at 6 or below: an unbounded rank makes `relations` run
# without end, which is not what the fuzz test checks.
_small = st.sampled_from(["2", "3", "1", "4", "0", "5", "6", "-1"])
_junk = st.sampled_from(["", "x", "-", "1.5", "1/0", "1:2", "w:3:1", "2,1",
                         "ones", "--", "nan", "0x3", "-h", "--help"])
_value = st.one_of(_small, _small, _small, _junk)  # mostly well formed


def _pairs(sep):
    return st.one_of(*[st.tuples(_small, _small).map(sep.join)] * 3, _junk)


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    vectors = {
        "a.json": apply_word(Word.of(2, 1),
                             MassVector.zero(AlgebraSpec("affine_a", 2))),
        "ct.json": apply_word(Word.of(1, 3, 2),
                              MassVector.zero(AlgebraSpec("affine_ct", 3))),
        "seeded.json": MassVector.generic(AlgebraSpec("affine_ct", 2)),
        "half.json": MassVector(AlgebraSpec("affine_a", 2),
                                (LinForm.weight(1, 1), LinForm.zero(),
                                 LinForm.zero())),
    }
    for name, v in vectors.items():
        (root / name).write_text(v.to_json())
    (root / "junk.json").write_text("{not json")
    (root / "list.json").write_text("[1, 2]")
    return [str(root / name) for name in sorted(vectors)] + [
        str(root / "junk.json"), str(root / "list.json"),
        str(root / "missing.json"), str(root)]


def _verb_options(paths):
    family = st.sampled_from(["a", "ct", "a", "ct", "b"])
    path = st.sampled_from(paths) | _junk
    letters = st.lists(_small, max_size=6).map(",".join)
    fr = [("--family", family), ("--rank", _value)]
    return {
        "relations": fr,
        "chain": fr + [("--set", _pairs(":")), ("--wrap", _pairs(",")),
                       ("--verify", None)],
        "orbit": fr + [("--depth", st.integers(-1, 3).map(str) | _junk),
                       ("--out", st.sampled_from(["json", "dot", "csv"] * 2
                                                 + ["png"])),
                       ("--mu", st.sampled_from(["ones"] * 4 + [
                           "1,2,3", "1,1/2,1,2", "1,x,2", "1,1/0,1"])),
                       ("--workers", _value)],
        "member": [("--input", path), ("--max-steps", _value)],
        "pohozaev": [("--input", path)],
        "fold": [("--input", path)],
        "rotate": [("--input", path), ("--r", _value)],
        "sperm": [("--l", _value), ("--word", letters), ("--check", None)],
        "blowup-step": fr + [("--case", st.sampled_from(
            ["A-I", "A-II", "Ct-I", "Ct-II", "Ct-III", "Ct-IV", "B-I"])),
            ("--blocks", st.lists(_pairs(":"), min_size=1, max_size=3)
             .map(",".join)), ("--input", path)],
    }


@st.composite
def _argv(draw, paths):
    """A verb with most of its flags, each well formed or not, maybe a
    stray token; now and then no known verb at all."""
    options = _verb_options(paths)
    verb = draw(st.sampled_from(sorted(options) * 3 + ["", "x", "--rank"]))
    flags = options.get(verb, options["relations"])
    argv = [verb]
    for flag, value in draw(st.permutations(flags)):
        if draw(st.sampled_from([True] * 5 + [False])):
            argv.append(flag)
            if value is not None:
                argv.append(draw(value))
    if draw(st.sampled_from([False] * 3 + [True])):
        argv.insert(draw(st.integers(0, len(argv))), draw(_value))
    return argv


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_fuzzed_argv_exits_cleanly(input_paths, data):
    argv = data.draw(_argv(input_paths))
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out=out, err=err) in (0, 1, 2, 3)


def two_level(argv):
    """invoke(argv) with argv parsed as before the one-pass dispatch: with
    no verb known to it, run hands every argv to the top-level parser,
    build_parser().parse_args(argv), which hands a verb's tokens to its
    subparser, and calls the handler."""
    with mock.patch.object(build_parser(), "verbs", {}):
        return invoke(argv)


CHAIN = ["--family", "a", "--rank", "3", "--set", "1:1", "--verify"]
DISPATCH_ARGVS = (
    [[], ["-h"], ["--help"], ["--he"], ["-h", "chain"], ["x"], [""],
     ["chains"] + CHAIN, ["chai"] + CHAIN, ["--family", "a", "chain"],
     ["--rank", "3", "chain"] + CHAIN, ["--"] + ["chain"] + CHAIN,
     ["chain"] + CHAIN, ["chain", "--fam", "a", "--ran", "3", "--se",
                         "1:1", "--ver"],
     ["chain", "--family=a", "--rank=3", "--set=1:1", "--verify"],
     ["chain", "--"] + CHAIN, ["chain"] + CHAIN + ["--"],
     ["chain"] + CHAIN + ["extra"], ["chain"] + CHAIN + ["chain"],
     ["chain", "--help=x"], ["chain", "--family", "a", "--h"],
     ["chain", "--family", "a", "--rank", "3", "--set", "1:1",
      "--wrap", "3,1"], ["relations", "--rank", "3", "--family", "b"],
     ["relations", "--family", "a", "--rank", "-1"], ["sperm", "--l", "x"]]
    + [[verb, flag] for verb in VERBS for flag in ("-h", "--help")]
    + [[verb] for verb in VERBS])


def test_one_pass_dispatch_matches_the_two_level_parse():
    for argv in DISPATCH_ARGVS:
        assert invoke(argv) == two_level(argv), argv
    # a verb named first never reaches the top-level parser
    top = mock.patch.object(build_parser(), "parse_args",
                            side_effect=AssertionError("top-level parse"))
    with top:
        assert invoke(["chain"] + CHAIN)[0] == 0
        assert invoke(["sperm", "-h"])[0] == 0


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_fuzzed_argv_dispatch_matches_the_two_level_parse(input_paths, data):
    argv = data.draw(_argv(input_paths))
    assert invoke(argv) == two_level(argv), argv
