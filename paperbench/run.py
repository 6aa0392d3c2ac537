#!/usr/bin/env python3
"""Build the paper benchmark binary and run one workload.

Usage (from the root of the repository):
    python3 paperbench/run.py --workload cg-npb|mm-abft|mc-xsbench \
        --seed N --seconds S --trace 0|1

The benchmark binary is configured and built (CMake, Release, the library's default
options) under $CARGO_TARGET_DIR, or .bench_build when that is unset, then run
once. Its human-readable lines are passed through; the last line printed is
the result object {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the span file it writes is checked with
scripts/check_trace.py --validate before the result is printed.

Exit code 0 only when the build, the run, every output check and (traced) the
span-file validation succeed. A run whose outputs fail a check still prints
its result (with the failed operations counted) and exits 1; a failed build
prints no result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cg-npb", "mm-abft", "mc-xsbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"paperbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"{what} failed ({proc.returncode})")


def build(root, build_dir):
    cmake_dir = build_dir / "paperbench"
    if not (cmake_dir / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(root / "paperbench"), "-B", str(cmake_dir),
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    jobs = str(os.cpu_count() or 1)
    run_quiet(["cmake", "--build", str(cmake_dir), "-j", jobs], "build")
    binary = cmake_dir / "paperbench"
    if not binary.exists():
        fail(f"benchmark binary missing at {binary}")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    binary = build(root, build_dir)

    scratch = build_dir / "run" / f"{args.workload}-{os.getpid()}"
    trace_out = build_dir / "traces" / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--scratch", str(scratch)]
    if args.trace == "1":
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed",
                                                          "metrics"]:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark binary exited with {proc.returncode} and printed no result object")
    if proc.returncode != 0:
        # A failed output check: the result shows how many operations failed.
        print("\n".join(lines), flush=True)
        sys.exit(proc.returncode)

    if args.trace == "1":
        check = subprocess.run([sys.executable, str(root / "scripts" / "check_trace.py"),
                                "--validate", str(trace_out)],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if check.returncode != 0:
            sys.stderr.write(check.stdout)
            fail("span file failed validation")
        lines.insert(-1, f"# span file: {trace_out} ({check.stdout.strip()})")

    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
