"""Steadiness check: run each workload repeatedly and summarise every metric.

    python3 bench/steady.py --runs 10 [--trace]

Runs `bench/run.py` once per seed (seeds 1 .. runs) for each workload,
one process at a time, for BENCHMARK.json's run_seconds, and prints each
end-to-end metric by name with its unit, median, quartiles and spread
(the distance between the quartiles as a share of the median), next to
the bound from BENCHMARK.json.  A spread above a third of its bound is
flagged.  With --trace it then makes one traced run per workload and
prints every per-layer metric.  Exits 1 if any run fails, reports
failing ops or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import program

SPEC = json.loads((program.ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace):
    argv = [sys.executable, str(program.ROOT / "bench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=program.ROOT, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d exited %d" % (workload, seed,
                                                   proc.returncode))
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarise(workload, results) -> bool:
    ok = True
    for record, result in results:
        if not result["correct"] or result["failed"]:
            ok = False
            print("  seed %d: %d of %d ops failed, fail_ratio %.4g"
                  % (record["seed"], result["failed"], result["attempted"],
                     record["fail_ratio"]))
            for f in record["failures"]:
                print("    pass %d %s: %s" % (f["pass"], f["op"], f["reason"]))
            for problem in record["problems"]:
                print("    %s" % problem)
    rec = results[0][0]
    print("  fail_ratio max %.4g; op_tail_ms is p%g of %d ops; passes %s"
          % (max(r["fail_ratio"] for r, _ in results),
             rec["op_tail_percentile"], rec["op_samples"],
             sorted(r["passes"] for r, _ in results)))
    print("  peak memory before the first op: median %.4g MB"
          % statistics.median(r["rss_before_ops_mb"] for r, _ in results))
    print("  %-12s %-6s %12s %12s %12s %8s %6s" % (
        "metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [res["metrics"][name]["value"] for _, res in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "  > bound/3" if spread > metric["bound"] / 3 else ""
        print("  %-12s %-6s %12.6g %12.6g %12.6g %8.4f %6.3g%s" % (
            name, metric["unit"], med, q1, q3, spread, metric["bound"], flag))
        print("  %19s %s" % ("", " ".join("%.4g" % v for v in values)))
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(prog="bench/steady.py")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    seeds = range(1, args.runs + 1)
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        print("%s: %d runs, seeds %d..%d, %d s each"
              % (workload, args.runs, seeds[0], seeds[-1],
                 SPEC["run_seconds"]))
        results = [run_once(workload, s, 0) for s in seeds]
        ok &= summarise(workload, results)
        if args.trace:
            record, result = run_once(workload, seeds[0], 1)
            ok &= result["correct"] and not result["failed"]
            print("  traced run, seed %d: %d spans" % (seeds[0],
                                                       record["spans"]))
            for name, m in result["metrics"].items():
                print("    %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("all outputs correct" if ok else "SOME OUTPUTS WRONG")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
