#!/usr/bin/env python3
"""Serving benchmark of lbsq: four deterministic workloads through the real
loopback serving stack. BENCHMARK.json at the repository root records the
design: what each workload is and why, and which end-to-end metric and
workload each per-layer metric should move.

    python3 servebench/run.py --workload hot_hits --seed 1 --seconds 10 --trace 0

Builds servebench/ with CMake (Release) into $CARGO_TARGET_DIR/servebench,
or .bench_build/servebench when that is unset, runs one workload and prints
one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. Every reply is verified
against the benchmark's own reference answers.

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload
twice with the same seed, untraced and then traced, checks that every
exact count and the reply digest agree, and reports the per-layer metrics
that summarize.py derives from the traced run's spans and counters.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import summarize  # noqa: E402

WORKLOADS = ("hot_hits", "cold_miss", "churn_k4", "push_walk")
END_TO_END_UNITS = {
    "qps": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "wire_bytes_per_answer": "B",
    "round_trips_per_km": "1/km",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# A whole invocation must end within 180 s (900 s when it builds); --trace 1
# runs the binary twice.
RUN_TIMEOUT_S = 170
TRACE_RUN_TIMEOUT_S = 85
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def log(message):
    print(f"servebench: {message}", file=sys.stderr, flush=True)


def run_command(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout the whole group (a
    build's compiler processes too) is killed and reaped."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        return proc.returncode, out


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "servebench"


def build():
    """Configures (once) and builds the servebench binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no lbsq sources next to {HERE.name}/ in {ROOT}")
    out = build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "servebench",
                  "-j", jobs])
    for cmd in steps:
        code, _ = run_command(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                              stderr=sys.stderr, env=env)
        if code != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return out / "servebench"


def run_once(binary, args, trace_out=None, timeout=RUN_TIMEOUT_S):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if args.small:
        cmd.append("--small")
    code, out = run_command(cmd, timeout, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    if code != 0:
        raise BenchError(f"servebench exited with {code}")
    for line in out.splitlines():
        if line.startswith("REPORT "):
            return json.loads(line[len("REPORT "):])
    raise BenchError("servebench printed no REPORT line")


def exact_view(report):
    """Everything that must repeat exactly for one seed."""
    det = dict(report["determinism"])
    skip = summarize.timing_dependent_counts(report["workload"])
    det["counts"] = {k: v for k, v in det["counts"].items() if k not in skip}
    return det


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrunken inputs for the determinism self-test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
        timeout = RUN_TIMEOUT_S if args.trace == 0 else TRACE_RUN_TIMEOUT_S
        untraced = run_once(binary, args, timeout=timeout)
        reports = [untraced]
        correct = untraced["failed"] == 0
        if args.trace == 0:
            metrics = {name: {"value": untraced["metrics"][name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
        else:
            trace_path = build_dir() / f"trace-{args.workload}.json"
            traced = run_once(binary, args, trace_out=trace_path,
                              timeout=timeout)
            reports.append(traced)
            same = exact_view(traced) == exact_view(untraced)
            if not same:
                log("traced and untraced exact counts differ")
            correct = correct and traced["failed"] == 0 and same
            layers, lines = summarize.per_layer(traced, untraced, trace_path)
            for line in lines:
                print(line)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layers.items()}
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as error:
        log(f"error: {error}")
        return 1

    for report in reports:
        print("host " + json.dumps({"traced": report["traced"],
                                    "latency_samples": report["latency_samples"],
                                    **report["host"]}))
        print("determinism " + json.dumps(report["determinism"],
                                          sort_keys=True))
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if failed:
        log("failures " + json.dumps([r["failures"] for r in reports]))
    print(json.dumps({"correct": bool(correct and attempted >= 1),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
