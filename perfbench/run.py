#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark program (perfbench/perfbench.cc, linked against the
repository's libraries) from the sources in this checkout, then runs one
workload and passes its output through. The last line of standard output is
the program's JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads and metrics are listed in BENCHMARK.json. Build files go to
.bench_build/perfbench and traces to .bench_build/perfbench-out, both under
the checkout root. --self-test runs every workload at a tiny size, traced and
untraced, and checks each result's outputs and that it names every metric of
BENCHMARK.json with its unit.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170


def build():
    """Configures once and builds the program; build logs go to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def run_program(args, capture):
    cmd = [PROGRAM] + args + ["--out", OUT]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in spec["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run_program(["--workload", workload["name"], "--seed", "1",
                                "--seconds", "4", "--trace", trace, "--tiny"],
                               capture=True)
            lines = proc.stdout.strip().splitlines()
            problems = []
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
                problems.append("no JSON result line")
            if proc.returncode != 0 or result.get("correct") is not True:
                problems.append("exit %d, correct=%s" %
                                (proc.returncode, result.get("correct")))
                problems += [l[len("check:  "):] for l in lines
                             if l.startswith("check:  FAIL")]
            metrics = result.get("metrics", {})
            for m in spec[kind]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("metric %s missing or not in %s"
                                    % (m["name"], m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[kind]}
            if extra:
                problems.append("unlisted metrics " + ", ".join(sorted(extra)))
            label = "%s trace=%s" % (workload["name"], trace)
            print("self-test: %-26s %s" % (label, "; ".join(problems) or "ok"))
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    proc = run_program(["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", args.trace],
                       capture=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
