#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload bootstrap --seed 1 --seconds 10 --trace 0

Every argument is passed to the binary (see perfbench/README.md). The Go
build cache, temporary files and the binary live under
.bench_build/ in the current directory, so a run writes nothing outside
it. The binary replaces this process, so its exit code is the run's and
signals reach it directly; a failed build returns the build's exit code
without printing a result.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
    )
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    go = shutil.which("go") or "/usr/local/go/bin/go"
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        [go, "build", "-o", binary, "."],
        cwd=bench,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        return built.returncode
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
