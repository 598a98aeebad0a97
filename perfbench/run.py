#!/usr/bin/env python3
"""Build the verifier benchmark from this checkout and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-unsat --seed 1 --seconds 24 --trace 0

The harness is compiled into .bench_build/ with a Go build cache kept in
the same directory, so nothing outside the checkout is read or written
beyond the Go toolchain itself. Every argument is passed to the harness;
its last line of standard output is the result. A failed build exits
non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# A run measures for at most a minute and its harness gives up after
# 150 s, so a run that is still going after this is stuck.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def go_binary():
    go = shutil.which("go")
    if go:
        return go
    goroot = os.environ.get("GOROOT", "/usr/local/go")
    return os.path.join(goroot, "bin", "go")


def build_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home", ".config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def commit():
    """The checkout's git commit, or "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv):
    os.makedirs(os.path.join(BUILD, "home"), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    try:
        built = subprocess.run(
            [go_binary(), "build", "-buildvcs=false", "-o", binary, "."],
            cwd=HERE, env=build_env(), timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--spec", os.path.join(ROOT, "BENCHMARK.json"),
           "--workdir", os.path.join(BUILD, "run"), "--commit", commit()] + argv
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
