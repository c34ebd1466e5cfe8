#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/bench.exe with
dune (the first build compiles the libraries under lib/), runs it with
the same arguments and passes its output and exit code through: the last
line of standard output is one JSON object with the run's verdict and
metrics. Build output goes to standard error. Exits 3, printing no
result, when the checkout has no buildable sources.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/bench.exe"


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("run.py: no dune project with lib/ at " + ROOT, file=sys.stderr)
        return False
    cmd = dune()
    if cmd is None:
        print("run.py: dune not found", file=sys.stderr)
        return False
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(cmd + ["build", "--root", ROOT, TARGET], cwd=ROOT,
                          env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def main():
    if not build():
        return 3
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
