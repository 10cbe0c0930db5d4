#!/usr/bin/env python3
"""Build and run the AccMoS benchmark.

    python3 perfbench/run.py --workload cold-pipeline --seed 1 --seconds 10 --trace 0

Run from the repository root. Everything the benchmark writes (its binary,
the Go build caches, generated programs, traces) stays under .bench_build/.
The last line of standard output is the result object.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache-tool"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench")
    steps = [
        (["go", "build", "-o", binary, "."], HERE),
        ([binary, "-root", ROOT, "stdcache"], ROOT),
    ]
    for cmd, cwd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("run.py: %s failed" % " ".join(cmd[:2]), file=sys.stderr)
            return done.returncode or 1
    return subprocess.run([binary, "-root", ROOT] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
