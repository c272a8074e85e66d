#!/usr/bin/env python3
"""Build the vic benchmark from this source tree and run one workload.

Usage, from the root of the source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark executable (perfbench/main.ml) is built with dune into
.bench_build/dune and then run with the same arguments.  Dune's shared
cache is off and TMPDIR points into .bench_build/, so nothing is
written outside the tree.  Its standard output ends with the one-line
JSON result; its exit code is passed on (1 when an output check
failed, 2 when it cannot run).  Workloads and metrics are listed in
BENCHMARK.json at the root, the layer map in perfbench/layers.json.
"""

import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
TMP_DIR = os.path.join(".bench_build", "tmp")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir(os.path.join("corpus", "polybench"))):
        sys.stderr.write("perfbench: run from the root of the vic source tree\n")
        return 2
    # The compiler's and the benchmark's temporary files stay in the tree.
    env = dict(os.environ, TMPDIR=os.path.abspath(TMP_DIR))
    os.makedirs(TMP_DIR, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
         "--cache", "disabled", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
