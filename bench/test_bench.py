"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import program
import run
import tracer as tracing
import workloads
from exact import AFFINE_A
from todamass.algebra import MassVector
from todamass.orbit import MEMBER, descend_to_zero, gamma_n_test

SPEC = json.loads((program.ROOT / "BENCHMARK.json").read_text())


def _workdir():
    root = program.ROOT / ".bench_work"
    root.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=root))


def test_traced_pass_restores_every_original():
    workdir = _workdir()
    try:
        ops = [op for op in workloads.build("orbit-export", 1, workdir)
               if " r5 d4 " in op.label or "--workers" in op.label]
        ops += workloads.build("member-deep", 1, workdir)[:6]
        ops += workloads.build("identities", 1, workdir)[:12]
        assert tracing.find_wrapped() == []
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert tracing.find_wrapped()
            failures = []
            run.run_pass(ops, 0, failures, {}, tracer)
        finally:
            tracer.uninstall()
        assert failures == []
        assert tracing.find_wrapped() == []
        metrics = tracer.layer_metrics(1.0)
        assert set(metrics) == set(tracing.metric_units())
        library = ("sigma_f_ct", "finite_a_mass")
        assert metrics["cli.run.calls"] == len(
            [op for op in ops if not op.label.startswith(library)])
        # one root span per op: spans from the --workers 2 pool threads
        # nest under enumerate_orbit instead of starting roots of their own
        roots = [rec[0] for rec in tracer.spans if rec[3] is None]
        assert len(roots) == len(ops)
        assert set(roots) <= {"cli.run", "perms.sigma_f_ct",
                              "perms.finite_a_mass"}
        assert metrics["orbit.children"] > 0 and metrics["orbit.nodes"] > 0
    finally:
        shutil.rmtree(workdir)


def test_member_inputs_have_the_intended_mix():
    inputs = workloads.member_inputs(random.Random("member-deep/7"))
    kinds = [kind for kind, *_ in inputs]
    assert kinds.count("half") + kinds.count("residual") == workloads.NON_MEMBERS
    assert len(inputs) == 5 * workloads.NON_MEMBERS
    assert kinds.count("half") and kinds.count("residual")
    for kind, family, v, level in inputs:
        mv = MassVector.from_json(workloads.exact.vector_json(family, v))
        if kind == "member":
            report = descend_to_zero(mv, max_steps=1000)
            assert report.verdict == MEMBER and report.steps == level
            continue
        report = gamma_n_test(mv)
        assert report.verdict != MEMBER
        if kind == "half":
            assert not report.coeffs_ok
        else:
            assert report.coeffs_ok and not report.pohozaev_ok


def test_under_budget_inputs_exit_3():
    workdir = _workdir()
    try:
        ops = [op for op in workloads.build("member-deep", 7, workdir)
               if op.label.startswith("member budget")]
        assert len(ops) == len(workloads.UNDER_BUDGET)
        for op in ops:
            result = op.call()
            assert result[0] == 3 and op.check(result) is None
    finally:
        shutil.rmtree(workdir)


def test_decompositions_are_valid_for_every_case():
    rng = random.Random(5)
    for tag, family in workloads.CASES.items():
        for _ in range(20):
            blocks, text = workloads.decomposition(rng, tag, 12)
            flag = "a" if family == AFFINE_A else "ct"
            rc, _, err = workloads.run_cli(
                ["blowup-step", "--family", flag, "--rank", "12",
                 "--case", tag, "--blocks", text])
            assert rc == 0, (tag, text, err)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert [m["name"] for m in SPEC["per_layer"]] == \
        list(tracing.metric_units())
    assert SPEC["command"] == ["python3", "bench/run.py"]


def _bench(*args):
    proc = subprocess.run([sys.executable, "bench/run.py"] + list(args),
                          cwd=program.ROOT, capture_output=True, text=True,
                          timeout=600)
    return proc


def test_second_seed_runs_end_to_end():
    names = {"0": [m["name"] for m in SPEC["end_to_end"]],
             "1": [m["name"] for m in SPEC["per_layer"]]}
    for workload, trace in (("orbit-export", "0"), ("member-deep", "0"),
                            ("identities", "1")):
        proc = _bench("--workload", workload, "--seed", "2",
                      "--seconds", "0", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        assert result["correct"] and result["failed"] == 0
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert list(result["metrics"]) == names[trace]
    # the traced pass runs before anything fills the Cartan matrix cache
    assert result["metrics"]["cartan.build.calls"]["value"] > 0


def test_fails_without_the_program():
    bare = _workdir()
    try:
        shutil.copytree(program.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(program.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "identities",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(bare)


def test_tail_percentile_keeps_ten_ops_beyond():
    assert run.tail_percentile(39) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(205) == 95.0
    assert run.tail_percentile(1000) == 99.0
