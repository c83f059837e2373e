"""Benchmark for todamass: one workload per process, outputs checked exactly.

    python3 bench/run.py --workload orbit-export --seed 1 --seconds 36 --trace 0

Builds the workload's inputs from the seed, then runs whole passes over
its ops for --seconds (at least MIN_PASSES passes; no pass is started
that would not end in time), timing each op and checking its output
outside the timed region.

Every time is reported at a fixed machine speed.  On a shared 2-core
virtual machine the CPU speed drifted by up to 2x over minutes, which
moved raw medians by 20-40% between otherwise identical runs.  So a fixed
pure-Python probe that does not touch todamass runs before every op and
after the last, and each op's wall time is scaled by PROBE_REFERENCE_S
over the mean of the two probes around it: the op's time on a machine
where the probe takes PROBE_REFERENCE_S.  An op's time is the median of
its scaled times over the passes.  The record line keeps the raw figures.

With --trace 0 it reports the end-to-end metrics:

  setup_s      median time for a fresh interpreter to import todamass.cli,
               over launches made before and after the passes
  op_p50_ms    median op time
  op_tail_ms   op time at the highest percentile with ten ops beyond it
  work_per_s   work units of one pass over the sum of the op times
  peak_rss_mb  peak resident memory of this process

With --trace 1 it reports the per-layer metrics instead, from one pass
under the span tracer; span times there are raw.  That pass runs first,
before any untimed or timed call into todamass, so work the program
caches per process (the Cartan matrix of each family and size) is done
and traced once, as it is in every fresh CLI process.  The untraced
passes follow, for trace.overhead_ratio.  The last stdout line is the
result object; the line before it records the machine, the run, the raw
times, the peak memory before the first op, fail_ratio and every failing
op.  Exits 2 without a result when the checkout holds no todamass
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import program

MIN_PASSES = 3
SETUP_LAUNCHES = 21
PROBE_REFERENCE_S = 0.002
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)
WORKLOADS = ("orbit-export", "member-deep", "identities")


def tail_percentile(ops: int) -> float:
    """Highest ladder percentile with at least ten of the ops beyond it."""
    for p in TAIL_LADDER:
        if ops * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(samples: list[float], p: float) -> float:
    data = sorted(samples)
    pos = (len(data) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def probe() -> float:
    """Time a fixed piece of pure-Python work: Fraction arithmetic, dicts."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    counts: dict = {}
    for i in range(4000):
        key = (i % 97, i % 7)
        counts[key] = counts.get(key, 0) + i
    return perf_counter() - t0


def setup_launches() -> tuple[list[float], list[float]]:
    """Time SETUP_LAUNCHES fresh interpreters that import todamass.cli.

    Returns each launch's time at reference speed and its raw time.
    """
    argv = [sys.executable, "-c",
            "import sys; sys.path.insert(0, %r); import todamass.cli"
            % str(program.SRC)]
    subprocess.run(argv, check=True)  # writes bytecode caches
    raw, scaled = [], []
    before = probe()
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run(argv, check=True)
        raw.append(perf_counter() - t0)
        after = probe()
        scaled.append(raw[-1] * 2 * PROBE_REFERENCE_S / (before + after))
        before = after
    return scaled, raw


def run_pass(ops, pass_no, failures, verdicts, tracer=None):
    """Run every op once and check its output.

    Returns the raw op wall times and the same times at reference speed.
    ``verdicts`` maps (op index, output) to the check's verdict, so an
    output identical to one already checked in this run is not checked
    again.  CLI stdout is keyed by its sha256.
    """
    times, probes = [], [probe()]
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.begin((pass_no, k))
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception:  # an op that raises is a failed op, not a crash
            result = None
            reason = "raised: " + traceback.format_exc(limit=3)
        t1 = perf_counter()
        if tracer is not None:
            tracer.end()
        times.append(t1 - t0)
        if result is not None:
            key = (k, _output_key(result))
            if key not in verdicts:
                try:
                    verdicts[key] = op.check(result)
                except Exception:
                    verdicts[key] = "check raised: " + traceback.format_exc(
                        limit=3)
            reason = verdicts[key]
        if reason is not None:
            failures.append({"op": op.label, "pass": pass_no, "index": k,
                             "reason": reason})
        probes.append(probe())
    scaled = [t * 2 * PROBE_REFERENCE_S / (p0 + p1)
              for t, p0, p1 in zip(times, probes, probes[1:])]
    return times, scaled


def _output_key(result):
    if isinstance(result, tuple) and isinstance(result[1], bytes):
        rc, data, err = result
        return rc, hashlib.sha256(data).hexdigest(), err
    return tuple(result) if isinstance(result, list) else result


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "platform": platform.platform(),
            "python": platform.python_version()}


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = program.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (program.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program.load()
    import tracer as tracing
    import workloads

    workroot = program.ROOT / ".bench_work"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workroot)
    try:
        return measure(args, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, workloads, tracing, workdir) -> int:
    ops = workloads.build(args.workload, args.seed, Path(workdir))
    rss_before_ops = peak_rss_mb()
    problems = []
    if tracing.find_wrapped():
        problems.append("todamass was patched before the run")
    setup = setup_launches() if args.trace == 0 else None

    failures: list[dict] = []
    verdicts: dict = {}
    attempted = 0
    if args.trace == 1:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, traced = run_pass(ops, 0, failures, verdicts, tracer)
        finally:
            tracer.uninstall()
        attempted += len(ops)
        if tracing.find_wrapped():
            problems.append("tracer wrappers were left installed")

    raw_passes, passes, walls = [], [], []
    start = perf_counter()
    # start a pass only while a typical pass still ends within --seconds
    while len(passes) < MIN_PASSES or (perf_counter() - start
                                       + statistics.median(walls)
                                       <= args.seconds):
        t0 = perf_counter()
        raw, scaled = run_pass(ops, args.trace + len(passes), failures,
                               verdicts)
        walls.append(perf_counter() - t0)
        raw_passes.append(raw)
        passes.append(scaled)
    if tracing.find_wrapped():
        problems.append("the untraced passes ran patched code")
    attempted += len(ops) * len(passes)
    typical = [statistics.median(times) for times in zip(*passes)]
    raw_typical = [statistics.median(times) for times in zip(*raw_passes)]
    failed_ops = {f["index"] for f in failures}
    units = sum(op.units for k, op in enumerate(ops) if k not in failed_ops)

    p = tail_percentile(len(ops))
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "commit": commit(), "machine": machine(),
              "passes": len(passes), "op_tail_percentile": p,
              "op_samples": len(ops), "probe_reference_s": PROBE_REFERENCE_S,
              "rss_before_ops_mb": rss_before_ops,
              "raw": {"op_p50_ms": statistics.median(raw_typical) * 1e3,
                      "op_tail_ms": percentile(raw_typical, p) * 1e3,
                      "work_per_s": units / sum(raw_typical)}}
    if args.trace == 0:
        # launches before and after the passes, so that set-up time is a
        # median over two moments --seconds apart on a drifting machine
        for launches, more in zip(setup, setup_launches()):
            launches.extend(more)
        record["raw"]["setup_s"] = statistics.median(setup[1])
        metrics = {
            "setup_s": (statistics.median(setup[0]), "s"),
            "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
            "op_tail_ms": (percentile(typical, p) * 1e3, "ms"),
            "work_per_s": (units / sum(typical), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        ratio = sum(traced) / statistics.median(sum(t) for t in passes)
        record["trace.overhead_ratio"] = ratio
        record["spans"] = len(tracer.spans)
        unit_of = tracing.metric_units()
        metrics = {name: (value, unit_of[name]) for name, value
                   in tracer.layer_metrics(ratio).items()}

    failed = len({(f["pass"], f["index"]) for f in failures})
    record["fail_ratio"] = failed / attempted
    record["failures"] = failures
    record["problems"] = problems
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
