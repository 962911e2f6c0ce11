#!/usr/bin/env python3
"""Build the benchmark and eigserve from source, then make one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --workload lib-lowdefl --seed 1 --seconds 30 --trace 0

Workloads: lib-lowdefl, lib-highdefl, svc-mix. With --trace 1 the run prints
the per-layer metrics instead of the end-to-end ones. The binaries, the Go
build cache, run records and traces go under $CARGO_TARGET_DIR, or
.bench_build when it is unset. The last line of standard output is the run's
JSON result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bindir = os.path.join(out, "bin")
    tmp = os.path.join(out, "tmp")
    os.makedirs(bindir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    # Every file the go command writes (build cache, module and telemetry
    # state, temporaries) stays under out.
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTELEMETRY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        GOWORK="off",
    )
    for pkg, name in ((".", "perfbench"), ("tridiag/cmd/eigserve", "eigserve")):
        build = subprocess.run(["go", "build", "-o", os.path.join(bindir, name), pkg],
                               cwd=here, env=env, stdout=sys.stderr)
        if build.returncode != 0:
            sys.exit(build.returncode)
    prog = os.path.join(bindir, "perfbench")
    os.execv(prog, [prog, "-out", out, "-bin", bindir] + sys.argv[1:])


if __name__ == "__main__":
    main()
