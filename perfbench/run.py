#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build (CMake, Release) lands in `.bench_build/perfbench` under the
checkout root; the first run configures and compiles, later runs only
check that it is up to date.  The benchmark's self-tests run after every
build check, and a failing self-test stops the run.  The last stdout line
is the benchmark's JSON result; traced runs also write their spans to
`.bench_build/traces/`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    # Compiler scratch files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log, "w") as out:
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, env=env)
    if done.returncode != 0:
        with open(log) as f:
            tail = f.read()[-4000:]
        fail("command failed: %s\n%s" % (" ".join(cmd), tail))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.hpp")):
        fail("library sources not found under %s" % os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD, "configure.log"))
    jobs = str(max(1, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "-j", jobs], os.path.join(BUILD, "build.log"))
    if not os.access(BINARY, os.X_OK):
        fail("build produced no %s" % BINARY)


def source_hash():
    """SHA-256 over the library and benchmark sources: the provenance of a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build()
    selftest = subprocess.run([BINARY, "--selftest"], capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        fail("self-tests failed:\n" + selftest.stdout + selftest.stderr)
    if args.selftest:
        print(selftest.stdout.strip())
        return
    if not args.workload:
        parser.error("--workload is required")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-commit", git_commit(), "--source-hash", source_hash()]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("workload %s exited with %d" % (args.workload, done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: %r" % lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys: %s" % sorted(result))
    for line in lines[:-1]:
        print(line)
    print(lines[-1])


if __name__ == "__main__":
    main()
