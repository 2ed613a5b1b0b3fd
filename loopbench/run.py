#!/usr/bin/env python3
"""Run one loopbench workload and print its metrics.

    python3 loopbench/run.py --workload fig5_cold --seed 1 --seconds 10 --trace 0

Builds the loopbench binary (loopbench/CMakeLists.txt, which compiles the
simulator library from ../src) into loopbench/.build on first use, then
runs it with a scratch directory under loopbench/.work. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Workloads and metrics are defined in README.md.

Exit status: 0 when the figures match their golden digests, 1 when
they do not, 2 on a usage error, 3 when the sources or the build are
missing or broken.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE / ".build"
WORK = HERE / ".work"
BINARY = BUILD / "loopbench"
GOLDENS = HERE / "goldens.txt"
WORKLOADS = ("fig5_cold", "fig8_isolated", "warm_replay")
# A run stops itself after --seconds plus one repetition; this only
# guards against a wedged binary.
BINARY_TIMEOUT_S = 170


def whole_number(lo, hi):
    def parse(text):
        if not text.isdigit() or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(
                f"expected a whole number in [{lo}, {hi}], got {text!r}")
        return text
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="loopbench/run.py", allow_abbrev=False,
        description="Time-to-figure benchmark for loopsim campaigns.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=whole_number(0, 2**32 - 1))
    p.add_argument("--seconds", required=True, type=whole_number(1, 3600))
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args(argv)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        print("loopbench: simulator sources (src/) not found next to "
              "loopbench/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "loopbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("loopbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    args = parse_args(argv)
    if not build():
        return 3
    # The benchmark's inputs come from --seed alone: drop every
    # LOOPSIM_* knob (overlays, store, jobs, kernel) from the environment.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LOOPSIM_")}
    work = WORK / str(os.getpid())
    cmd = [str(BINARY), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--work", str(work), "--goldens", str(GOLDENS)]
    try:
        proc = subprocess.run(cmd, env=env, timeout=BINARY_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print(f"loopbench: binary exceeded {BINARY_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
