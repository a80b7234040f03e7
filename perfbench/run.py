#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload serve --steady 10 --seconds 15

The Go build cache, the binary, scratch files and Chrome traces all go
under .bench_build/ in the repository root, so a run writes nothing
outside the checkout. The program's flags are described in main.go.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        sys.stderr.write("perfbench: the checker's sources (go.mod, internal/) "
                         "are not in the current directory; run from the repository root\n")
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env)
    if built.returncode != 0:
        return built.returncode
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
