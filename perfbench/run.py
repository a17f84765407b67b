#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload engine-recursive --seed 1 \
        --seconds 10 --trace 0

Run from the root of a source checkout. The first run builds the
benchmark (perfbench/CMakeLists.txt compiles src/ directly) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. Scratch files (mmap shard files, journals, span dumps) go under
.bench_run/. Build output goes to stderr; stdout ends with one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The exit code is non-zero when the build fails, the workload fails or
times out, or any output is wrong.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("engine-recursive", "engine-resident", "service-durable")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build incrementally; True on success."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", choices=("corrupt-read", "drop-suffix"),
                    help="inject a wrong output to prove the checks fail")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", ".bench_run"]
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("perfbench: %s exited with %d" % (args.workload, proc.returncode),
              file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
