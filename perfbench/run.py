#!/usr/bin/env python3
"""Builds the mocemg end-to-end benchmark from source and runs it.

Usage, from the repository root:

  python3 perfbench/run.py --workload <capture_classify|knn_serve|stream_control>
                           --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest   # unit tests + smoke run of all workloads

The build goes to .bench_build/perfbench (Release); its log to
.bench_build/perfbench/build.log. The benchmark's own output is passed
through unchanged: its last line is the JSON result. Spans of a traced
run are written under .bench_build/perfbench/traces. See NOTES.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("capture_classify", "knn_serve", "stream_control")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build(build_dir, tests=False):
    """Configures (once) and builds; returns True on success."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DPERFBENCH_BUILD_TESTS=" + ("ON" if tests else "OFF")])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log.write("\n%s\n" % e)
                rc = 1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return False
    return True


def run(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        test_dir = os.path.join(BUILD_ROOT, "perfbench-test")
        if not build(test_dir, tests=True):
            return 1
        rc = run([os.path.join(test_dir, "perfbench_test")])
        return rc or run([os.path.join(test_dir, "perfbench"), "--smoke"])

    if args.workload is None:
        parser.error("--workload is required")
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    if not build(build_dir):
        return 1
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    return run([os.path.join(build_dir, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--trace-dir", trace_dir])


if __name__ == "__main__":
    sys.exit(main())
