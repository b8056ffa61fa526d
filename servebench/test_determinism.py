#!/usr/bin/env python3
"""Determinism self-test of the serving benchmark.

Runs every workload twice at a small size with one seed, plus once traced,
and fails on any difference in the reply digest or the exact counts
(cache hits, inserts, evictions and kills; NA and PA; TPNN calls; router
fan-out; frames and sendmsg calls; pushes sent and crossings) — or on any
failed operation. It also checks that BENCHMARK.json, design.json and the
metrics run.py and summarize.py print name the same workloads and metrics.

    python3 servebench/test_determinism.py [--seed N]
"""

import argparse
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def check_design(traced):
    """Names and units agree across BENCHMARK.json, design.json and code."""
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    design = json.loads((run.HERE / "design.json").read_text())
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if sorted(design["workloads"]) != sorted(run.WORKLOADS):
        problems.append("design.json workloads differ from run.WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    layers, _ = run.summarize.per_layer(
        traced, traced, run.build_dir() / "trace-selftest.json")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != {k: unit for k, (_, unit) in layers.items()}:
        problems.append("BENCHMARK.json per_layer differs from summarize.py")
    if set(design["per_layer"]) != set(declared):
        problems.append("design.json per_layer differs from BENCHMARK.json")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    cli = parser.parse_args()
    binary = run.build()
    problems = []
    for workload in run.WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=cli.seed, seconds=1.0,
                                  small=True)
        first = run.run_once(binary, args)
        second = run.run_once(binary, args)
        traced = run.run_once(
            binary, args, trace_out=run.build_dir() / "trace-selftest.json")
        for name, report in (("first", first), ("second", second),
                             ("traced", traced)):
            if report["failed"] or report["attempted"] < 1:
                problems.append(f"{workload}: {name} run failed "
                                f"{report['failures']}")
        reference = run.exact_view(first)
        for name, report in (("second", second), ("traced", traced)):
            view = run.exact_view(report)
            diffs = sorted(k for k in set(reference) | set(view)
                           if reference.get(k) != view.get(k))
            diffs += sorted(
                f"counts.{k}" for k in set(reference["counts"])
                if reference["counts"][k] != view["counts"].get(k))
            diffs = [d for d in diffs if d != "counts"]
            if diffs:
                problems.append(f"{workload}: {name} run differs in {diffs}")
        if workload == run.WORKLOADS[0]:
            problems += check_design(traced)
        print(f"{workload}: digest {first['determinism']['digest']}, "
              f"{first['determinism']['answers']} answers, "
              f"{first['attempted']} ops attempted")
    for p in problems:
        print("FAIL " + p)
    print("determinism: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
