#!/usr/bin/env python3
"""Parent-versus-change comparison on the serving benchmark, in pairs.

    tools/bench_pairs.py --parent DIR --change DIR --workload W \\
        [--seed S] [--pairs N]

DIR is a checkout (or an unpacked copy) of each commit. Every pair runs
the benchmark command from BENCHMARK.json (servebench/run.py) once in each
checkout, at BENCHMARK.json's run_seconds, and the side that runs first
alternates from pair to pair. Each checkout builds its own binary in its
own .bench_build/ directory.

The tool fails on any run that is not correct or that has failed
operations, and on a pair whose determinism lines disagree in what
servebench/run.py's exact_view keeps (the counts that summarize.py's
timing_dependent_counts names are left out). For every end-to-end metric it prints the per-pair
values, each side's median and quartiles, and the change's wins (ties
count for neither), then a verdict under each metric's bound and
direction from BENCHMARK.json:

  worse       the change's median is worse than the parent's by more
              than the bound (the tool then exits 1)
  unresolved  otherwise, when the parent's interquartile range exceeds
              the bound, unless every change run beats every parent run
  better      at least ten pairs ran, the change wins at least nine in
              ten, and its median beats the parent's by more than the
              parent's IQR
  within      otherwise

Relative differences are taken against the parent's median. BENCHMARK.json
is read from the parent checkout; nothing is written outside the two
build directories.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True


def load_runner(checkout):
    """The checkout's servebench/run.py, for its exact_view."""
    path = checkout / "servebench" / "run.py"
    spec = importlib.util.spec_from_file_location("servebench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_side(checkout, command, workload, seed, seconds):
    """One benchmark run in `checkout`; returns (result, determinism)."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds its own binary
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: benchmark exited {proc.returncode}")
    result = json.loads(lines[-1])
    determinism = [json.loads(line[len("determinism "):])
                   for line in lines if line.startswith("determinism ")]
    if not result.get("correct") or result.get("failed", 1) != 0:
        raise SystemExit(f"{checkout}: run not correct or with failed "
                         f"operations: {lines[-1]}")
    return result, determinism


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative(delta, base):
    if base != 0:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf")


def verdict(parent, change, bound, better):
    """The simplicity guide's reading of one metric; see the docstring."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means worse
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    worse_by = relative(sign * (cmed - pmed), pmed)
    spread = relative(p3 - p1, pmed)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if worse_by > bound:
        return "worse", wins, worse_by, spread
    if spread > bound and not all_better:
        return "unresolved", wins, worse_by, spread
    if len(parent) >= 10 and wins * 10 >= 9 * len(parent) and \
            -worse_by > spread:
        return "better", wins, worse_by, spread
    return "within", wins, worse_by, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    parent_dir = args.parent.resolve()
    change_dir = args.change.resolve()

    bench = json.loads((parent_dir / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload}")
    command = list(bench["command"])
    seconds = bench["run_seconds"]
    runner = load_runner(parent_dir)

    def exact(determinism):
        return [runner.exact_view({"workload": args.workload,
                                   "determinism": det})
                for det in determinism]

    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        dets = {}
        for side in order:
            checkout = parent_dir if side == "parent" else change_dir
            result, dets[side] = run_side(checkout, command, args.workload,
                                          args.seed, seconds)
            runs[side].append(result["metrics"])
        same = exact(dets["parent"]) == exact(dets["change"])
        print(f"pair {pair + 1}: {order[0]} first, determinism "
              f"{'equal' if same else 'DIFFERENT'}", flush=True)
        if not same:
            print(json.dumps(dets, sort_keys=True))
            raise SystemExit("determinism lines differ")

    print(f"\nworkload {args.workload}, seed {args.seed}, {args.pairs} pairs "
          f"of {seconds} s runs")
    failed = False
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent = [m[name]["value"] for m in runs["parent"]]
        change = [m[name]["value"] for m in runs["change"]]
        kind, wins, worse_by, spread = verdict(parent, change, metric["bound"],
                                               metric["better"])
        failed = failed or kind == "worse"
        p1, pmed, p3 = quartiles(parent)
        c1, cmed, c3 = quartiles(change)
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {metric['bound']:.0%})")
        print("  parent: " + " ".join(f"{v:.6g}" for v in parent))
        print("  change: " + " ".join(f"{v:.6g}" for v in change))
        print(f"  parent median {pmed:.6g} (quartiles {p1:.6g} - {p3:.6g}); "
              f"change median {cmed:.6g} (quartiles {c1:.6g} - {c3:.6g})")
        print(f"  change wins {wins} of {args.pairs}; change median against "
              f"the parent's: {-worse_by:+.1%} (positive is better); parent "
              f"IQR {spread:.1%} of its median")
        print(f"  verdict: {kind}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
