#!/usr/bin/env python3
"""Build the benchmark and the slopt daemon from source, then run one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a checkout. "all" runs every workload, each in a
fresh process, and fails if any of them does. The build lands in
_build/ of the checkout; dune's shared cache is disabled so that nothing is written
outside it. The last line of standard output is the benchmark's JSON
result; the exit code is the benchmark's (1 on any reference or
determinism failure). Without the library sources, the build fails and
so does this script, with exit code 2.
"""

import os
import shutil
import signal
import subprocess
import sys

TARGETS = ["./perfbench/bench.exe", "./bin/slopt.exe"]
WORKLOADS = ["pbo-pipeline", "advise-roster", "serve-mixed", "tune-search"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")


def bench(args):
    """Run the benchmark in its own process group, so that a timeout also
    stops the daemon it may have started."""
    p = subprocess.Popen([BENCH] + args, start_new_session=True)
    try:
        return p.wait(timeout=175)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 2


def main():
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--display", "quiet"] + TARGETS,
            stdout=sys.stderr, env=env, timeout=850)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(BENCH):
        print("run.py: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    args = sys.argv[1:]
    if "all" not in args:
        return bench(args)
    rest = [a for a in args if a not in ("--workload", "all")]
    return max([bench(["--workload", w] + rest) for w in WORKLOADS])


if __name__ == "__main__":
    sys.exit(main())
