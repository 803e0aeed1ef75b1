#!/usr/bin/env python3
"""Compare two git revisions on the perfbench benchmark, on one host.

Usage, from anywhere inside the repository:

    python3 tools/ab.py --base HEAD~1 --change HEAD --workload stable-1k \\
        --seed 1 --seconds 30 --pairs 10

Each revision is exported with `git archive` into its own temporary
directory and built there (`dune build ./perfbench/main.exe`, dune's
shared cache disabled), so the two builds share nothing and the working
tree is not touched. Then, for each pair, both builds run

    perfbench/main.exe --workload W --seed S --seconds N --trace 0

one after the other, the base first in even pairs and the change first in
odd ones, so slow drift of the host's speed falls on both sides alike.

For every end-to-end metric BENCHMARK.json names, the report gives each
side's median and quartiles, the change/base ratio of the medians and the
pairs each side won (ties count for neither). For host_commits_per_s it
also applies the gain rule: the change wins at least nine tenths of the
pairs and the medians differ by more than the base's interquartile range.
A workload is reported only when all its runs passed their correctness
gates. The exit code is 0 when every run passed, 1 otherwise, 2 on a
build or usage error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_METRIC = "host_commits_per_s"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision measured as the parent")
    p.add_argument("--change", required=True, help="git revision measured as the change")
    p.add_argument("--workload", required=True, action="append",
                   help="perfbench workload (repeatable)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workdir", default=None,
                   help="directory to build in (default: the system's temporary directory)")
    return p.parse_args()


def die(msg):
    print("ab: " + msg, file=sys.stderr)
    raise SystemExit(2)


def export_and_build(rev, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        die("git archive %s failed" % rev)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", dest, "./perfbench/main.exe"],
                           cwd=dest, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        die("build of %s failed" % rev)
    return os.path.join(dest, "_build", "default", "perfbench", "main.exe")


def run_once(exe, workload, seed, seconds):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=os.path.dirname(exe), stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        result = {"correct": False, "metrics": {}}
    result["exit"] = out.returncode
    return result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def directions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]


def report(workload, runs):
    print("\n== %s: %d pairs ==" % (workload, len(runs)))
    print("%-20s %26s %26s %7s %9s" % ("metric", "base median [q1, q3]",
                                        "change median [q1, q3]", "ratio", "wins b/c"))
    for name, better, bound in directions():
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        sign = 1 if better == "higher" else -1
        change_wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        base_wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
        mb, mc = statistics.median(base), statistics.median(change)
        (b1, b3), (c1, c3) = quartiles(base), quartiles(change)
        ratio = mc / mb if mb else float("nan")
        worse = sign * (mc - mb) < 0 and abs(mc - mb) > bound * abs(mb)
        print("%-20s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %7.3f %4d/%-4d%s" % (
            name, mb, b1, b3, mc, c1, c3, ratio, base_wins, change_wins,
            "  WORSE THAN BOUND %.2f" % bound if worse else ""))
        if name == GAIN_METRIC:
            gain = (change_wins * 10 >= 9 * len(runs)) and sign * (mc - mb) > (b3 - b1)
            print("%-20s gain rule (>= 9/10 pairs won, median gap > base IQR %.4g): %s" % (
                "", b3 - b1, "met" if gain else "NOT met"))


def main():
    args = parse_args()
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    workdir = tempfile.mkdtemp(prefix="afs-ab-", dir=args.workdir)
    try:
        exes = {side: export_and_build(rev, os.path.join(workdir, side))
                for side, rev in (("base", args.base), ("change", args.change))}
        failed = []
        for workload in args.workload:
            runs = []
            ok = True
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {}
                for side in order:
                    pair[side] = run_once(exes[side], workload, args.seed, args.seconds)
                    ok = ok and pair[side].get("correct") is True and pair[side]["exit"] == 0
                print("%s pair %d: base %s, change %s" % (
                    workload, i + 1,
                    pair["base"]["metrics"].get(GAIN_METRIC, {}).get("value"),
                    pair["change"]["metrics"].get(GAIN_METRIC, {}).get("value")),
                    file=sys.stderr, flush=True)
                runs.append(pair)
            if ok:
                report(workload, runs)
            else:
                failed.append(workload)
        if failed:
            print("ab: a run failed its correctness gates on: " + ", ".join(failed),
                  file=sys.stderr)
        return 1 if failed else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
