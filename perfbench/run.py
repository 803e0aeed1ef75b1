#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stable-1k --seed 1 --seconds 30 --trace 0

The OCaml program is built with dune inside the checkout (build output in
_build/, dune's shared cache disabled), then run once. Its standard output
passes through unchanged; the last line is the JSON result. The exit code
is the program's: 0 on success, 1 when a correctness gate failed, 2 on a
usage error or when the checkout lacks the sources to build from.

With --workload all, every workload runs twice, with --trace 0 and with
--trace 1 (the --trace argument is then ignored), so one command prints
every end-to-end and per-layer metric. It exits with the worst code.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("stable-1k", "zipf-4shard", "xshard-bank")
TARGET = "./perfbench/main.exe"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args()


def main():
    args = parse_args()
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        print(
            "perfbench: no dune-project or lib/ at %s; run from a full checkout" % ROOT,
            file=sys.stderr,
        )
        return 2
    if shutil.which("dune") is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    worst = 0
    for workload, trace in runs:
        cmd = [
            exe,
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(trace),
        ]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
