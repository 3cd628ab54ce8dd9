#!/usr/bin/env python3
"""Entry point of the repository benchmark (the command named in BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (CMake, Release) into the build directory (CARGO_TARGET_DIR when
set, else .bench_build, relative to the repository root), runs the benchmark's own
tests, then runs the workload. Human-readable lines come first; the last stdout line
is the result object {"correct", "attempted", "failed", "metrics"} holding exactly the
end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer metrics (--trace 1).
Build output goes to stderr. Exits non-zero, printing no result, when the sources,
the build, the self-test or the run fail.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails the benchmark on error."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"command failed ({result.returncode}): {' '.join(cmd)}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Neuro-C sources (src/CMakeLists.txt) next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
               "--target", "perfbench", "perfbench_selftest"])
    run_quiet([os.path.join(build_dir, "perfbench_selftest")])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)
    expected = expected_metrics(args.trace == 1)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail(f"workload {args.workload} exited with {result.returncode}")
    for line in lines[:-1]:
        print(line)
    out = json.loads(lines[-1])

    metrics = {}
    for name, unit in expected.items():
        got = out["metrics"].get(name)
        if got is None or got["unit"] != unit:
            fail(f"metric {name} missing or not in {unit}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} has no finite value (its percentile fell on failures)")
        metrics[name] = {"value": value, "unit": unit}
    extra = sorted(set(out["metrics"]) - set(expected))
    if extra:
        fail(f"metrics not declared in BENCHMARK.json: {', '.join(extra)}")
    print(json.dumps({"correct": bool(out["correct"]), "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
