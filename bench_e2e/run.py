#!/usr/bin/env python3
"""Build and run the layered end-to-end benchmark.

Run from the root of a checkout:

    python3 bench_e2e/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --self-test

The first call configures and builds bench_e2e/ (the repository's
library plus the jigsaw_e2e binary) into .bench_build/e2e; later calls only
re-check the build. Build output goes to standard error, so the last
line of standard output is the binary's JSON result. The exit code is
the binary's: 0 only when every correctness check passed.

--self-test runs every workload traced on tiny inputs. The binary
checks that layer self-times plus the residual add up to the wall or
job time; this script checks that every counter in the printed
reports is an integer.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "jigsaw_e2e")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("bench_e2e: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no JigSaw sources next to " + HERE)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "jigsaw_e2e",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def source_hash():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit():
    """HEAD of the checkout when it is itself a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run(args):
    try:
        return subprocess.run([BINARY] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("jigsaw_e2e did not finish within %d s" % RUN_TIMEOUT_S)


def self_test():
    done = run(["--self-test"])
    sys.stderr.write(done.stderr)
    sys.stdout.write(done.stdout)
    reports = [json.loads(line)["report"] for line in done.stdout.splitlines()
               if line.startswith('{"report"')]
    problems = []
    if len(reports) != 3:
        problems.append("expected 3 reports, got %d" % len(reports))
    for report in reports:
        for name, value in report["counters"].items():
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append("%s counter %s is not an integer"
                                % (report["workload"], name))
        for name, metric in report["metrics"].items():
            if metric["unit"] == "count" and \
                    float(metric["value"]) != int(metric["value"]):
                problems.append("%s count metric %s is not an integer"
                                % (report["workload"], name))
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    ok = done.returncode == 0 and not problems
    print("self-test: " + ("passed" if ok else "FAILED"), file=sys.stderr)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["paper-sweep", "stream-bursty", "vqa-loop"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    build()
    if args.self_test:
        return self_test()
    done = run(["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--commit", commit(), "--source-sha256", source_hash()])
    sys.stderr.write(done.stderr)
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
