#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload wan_steady --seed 1 --seconds 10 --trace 0

It builds perfbench/spire_bench.exe with dune in the release profile
(the first build compiles the whole library tree), then runs it with
the same arguments. The benchmark's last stdout line is the JSON
result; build output goes to stderr. Exits non-zero, printing no
result, when the tree is not a checkout of this repository, the build
fails, or a correctness check fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "spire_bench.exe")
RUN_TIMEOUT_S = 175


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the repository root (dune-project and lib/ not found)",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/spire_bench.exe"],
        stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([EXE] + sys.argv[1:], stdin=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
