#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload warm-draw --seed 1 --seconds 15 --trace 0

The Go build cache, module cache and every other file the toolchain
writes go under the build directory ($CARGO_TARGET_DIR, or .bench_build
at the repository root), so a run reads and writes only inside the
checkout. The last line of standard output is the benchmark's JSON
result; a failed build exits non-zero without printing one.
"""

import os
import subprocess
import sys


def main() -> int:
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isabs(build):
        build = os.path.join(root, build)
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)
    return 1  # not reached: execve replaces this process


if __name__ == "__main__":
    sys.exit(main())
