#!/usr/bin/env python3
"""Builds the dataplane benchmark from the repository's sources and runs it.

Run from the repository root:

  python3 dpbench/run.py --workload fwd_min_kernel --seed 1 --seconds 10 --trace 0
  python3 dpbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; the first run builds the library and takes about a
minute on four cores.  All other arguments go to the benchmark binary,
whose last line of output is the result JSON.  Traced runs write their
spans to spans-<workload>.csv in the build directory.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SECONDS = 10  # the binary's default --seconds


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run_timeout(args):
    """The measured time plus a minute for set-up, drain and idle updates."""
    try:
        seconds = float(args[args.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = DEFAULT_SECONDS
    return seconds + 60


def main():
    bdir = build_dir()
    if not build(bdir):
        print("dpbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(bdir, "dpbench")] + sys.argv[1:] + ["--spans-dir", bdir]
    timeout = run_timeout(sys.argv[1:])
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"dpbench: run did not end within {timeout:.0f} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
