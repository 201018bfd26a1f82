#!/usr/bin/env python3
"""Pipeline benchmark runner.

Builds the benchmark (and libasap, from the repository's own CMake
files) on first use, then runs one workload:

    python3 pipebench/run.py --workload firehose --seed 1 --seconds 10 --trace 0

or, with no --workload, every workload in turn with a summary table:

    python3 pipebench/run.py [--seed 1] [--seconds 10] [--trace 0|1]

    python3 pipebench/run.py --selftest   # the benchmark's own tests

The build goes to $CARGO_TARGET_DIR (default .bench_build, relative to
the current directory); the durable-store workloads write their data
under it. The last line of a workload run is the JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["firehose", "refresh_heavy", "live_dashboard", "restart"]
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            # A failed configure must not leave a cache that makes the
            # next run skip it.
            shutil.rmtree(out, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (from /proc/mounts)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3 and path.startswith(parts[1]) and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2] + " on " + parts[0]
    except OSError:
        pass
    return fstype


def host_facts():
    compiler = "unknown"
    try:
        for name in sorted(os.listdir(os.path.join(build_dir(), "CMakeFiles"))):
            p = os.path.join(build_dir(), "CMakeFiles", name, "CMakeCXXCompiler.cmake")
            if os.path.exists(p):
                with open(p) as f:
                    fields = dict(
                        line.strip()[4:-1].split(" ", 1)
                        for line in f
                        if line.startswith("set(CMAKE_CXX_COMPILER_ID ")
                        or line.startswith("set(CMAKE_CXX_COMPILER_VERSION "))
                compiler = "%s %s" % (fields.get("CMAKE_CXX_COMPILER_ID", "?").strip('"'),
                                      fields.get("CMAKE_CXX_COMPILER_VERSION", "?").strip('"'))
    except OSError:
        pass
    sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(HERE, "..", ".git")):
        r = subprocess.run(["git", "-C", HERE, "rev-parse", "--short", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    return "host: nproc=%d compiler=%s git=%s store_fs=%s" % (
        os.cpu_count() or 0, compiler, sha, filesystem_of(build_dir()))


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed JSON result or None)."""
    binary = os.path.join(build_dir(), "pipebench")
    data_dir = os.path.join(build_dir(), "pipebench-data")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--data-dir", data_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        log("pipebench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    targets = ["pipebench_selftest"] if args.selftest else ["pipebench"]
    if not build(targets):
        log("pipebench: build failed")
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(build_dir(), "pipebench_selftest")]).returncode

    log(host_facts())
    if args.workload:
        code, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
        return code

    # Every workload, then one table of every metric by name and unit.
    summary, failed = [], False
    for workload in WORKLOADS:
        code, result = run_workload(workload, args.seed, args.seconds, args.trace)
        ok = code == 0 and result is not None and result.get("correct") is True
        failed = failed or not ok
        summary.append((workload, ok, result))
    print("\n%-16s %-40s %18s  %s" % ("workload", "metric", "value", "unit"))
    for workload, ok, result in summary:
        if not ok:
            print("%-16s %-40s" % (workload, "CHECKS FAILED (no numbers)"))
            continue
        attempted, nfailed = result["attempted"], result["failed"]
        print("%-16s %-40s %18.6g  %s" % (workload, "failed_frac",
                                           nfailed / attempted if attempted else 0.0, "ratio"))
        for name, m in result["metrics"].items():
            print("%-16s %-40s %18.6g  %s" % (workload, name, m["value"], m["unit"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
