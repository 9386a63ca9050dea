#!/usr/bin/env python3
"""Build and run the svwsim benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload paper-exact --seed 1 --seconds 20 --trace 0

perfbench is a Go module of its own (perfbench/go.mod) that builds against
the repository's packages through a `replace svwsim => ../` directive. This
script builds it into the build directory ($CARGO_TARGET_DIR, default
.bench_build) with every Go cache and config directory inside that build
directory, then runs the binary with the given arguments and exits with its
status. Without the repository's sources next to perfbench/, the build fails
and the script exits 1 without printing a result.
"""
import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    gohome = os.path.join(build, "go")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(gohome, "cache"),
        "GOPATH": os.path.join(gohome, "path"),
        "GOMODCACHE": os.path.join(gohome, "path", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(gohome, "config"),
        "GOFLAGS": "-buildvcs=false",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    for d in (env["GOCACHE"], env["GOPATH"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(build, "perfbench-bin")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod at %s; run from the root of a source checkout" % root,
              file=sys.stderr)
        return 1
    gobin = shutil.which("go")
    if gobin is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    built = subprocess.run([gobin, "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary, "-scratch", build] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
