#!/usr/bin/env python3
"""Build and run the engine benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of the source tree. Configures and builds the benchmark
package (perfbench/CMakeLists.txt, which builds the paremsp library from
the tree around it) in .bench_build/, runs the perfbench binary, and passes its
output through: the last stdout line is the result object. Build output
goes to stderr. --selftest builds and runs the tests of the benchmark's
own helpers instead.

Exits nonzero if an output check fails (the result line then reads
"correct": false), and without a result line if the build fails (for
example outside a full source tree), if the binary aborts, or if the
binary's metric names differ from the ones BENCHMARK.json declares.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("batch_small", "scene_sharded", "stream_tall")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configure once, then build `target`; serialized across processes."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "--target", target, "-j", jobs]]
        if any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
            steps = steps[1:]  # configured; the build re-runs cmake if needed
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log(f"build step failed: {' '.join(step)}")
                sys.exit(done.returncode or 1)
    return os.path.join(BUILD, target)


def git(*args):
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True, timeout=10)
    return done.stdout.strip() if done.returncode == 0 else None


def source_id():
    """The git commit (+dirty) when ROOT is a git work tree's top, else a
    digest of the sources."""
    try:
        top = git("rev-parse", "--show-toplevel")
        if top and os.path.realpath(top) == os.path.realpath(ROOT):
            head = git("rev-parse", "HEAD")
            if head:
                return head + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--commit", source_id(), "--out-dir", out_dir],
        capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        # A failed output check still prints its result (correct: false).
        sys.stdout.write(done.stdout)
        log(f"perfbench exited {done.returncode}")
        sys.exit(done.returncode)
    result = json.loads(lines[-1])
    want = declared_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"metric names {sorted(result['metrics'])} differ from "
            f"BENCHMARK.json {sorted(want)}")
        sys.exit(3)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
