#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 10 --trace 0

Every argument is passed to perfbench/main.exe (see README.md).  The
build output goes to standard error, so the last line of standard output
is the benchmark's JSON result.  The build uses dune with its shared
cache disabled and its temporary files inside the checkout, so nothing
is written outside it.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TMP = os.path.join(ROOT, ".perfbench-tmp", "build")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    os.makedirs(BUILD_TMP, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=BUILD_TMP)
    try:
        done = subprocess.run(
            [dune, "build", "--root", ROOT, "--profile", "release",
             "--display", "quiet", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    finally:
        shutil.rmtree(BUILD_TMP, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(BUILD_TMP))
        except OSError:
            pass
    if done.returncode != 0:
        fail("build failed (dune exited with %d)" % done.returncode)


def pin():
    """Run on one CPU.  front_door's client and server domains then hand
    each request over on one core instead of waking an idle one, whose
    wake-up latency on a shared machine swings a run by a factor of two;
    the other workloads use one domain and lose nothing."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})


def main():
    build()
    pin()
    os.chdir(ROOT)
    sys.stdout.flush()
    # Replace this process: the benchmark is the only process left.
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
