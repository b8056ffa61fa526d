#!/usr/bin/env bash
# Full local verification matrix for lbsq. Runs every configuration a
# change must survive before it ships, prints one PASS/FAIL line per
# stage, and exits nonzero if any stage failed. Stages:
#
#   lint    tools/lbsq_lint over the whole tree (tier-1 invariants);
#           also writes the machine-readable findings artifact
#           LINT_findings.json next to the BENCH_*.json artifacts
#   plain   default build + full ctest suite
#   werror  -Wall -Wextra -Wshadow -Werror build (warnings are errors;
#           catches dropped [[nodiscard]] Status/StatusOr results)
#   werror-thread-safety  clang -Wthread-safety -Werror build proving
#           the annotations in src/common/annotations.h; PASS-skips
#           when no clang++ is on the box (lbsq_lint's guarded-access
#           rule remains the everywhere gate)
#   asan    ASan+UBSan build + full ctest suite
#   tsan    TSan build + the threaded suites (BatchServer's plain and
#           checked batches, the semantic cache, fault injection, the
#           net and push suites whose event loop runs on its own thread,
#           and the partition suite's concurrent routing-table readers)
#           — the rest are single-threaded and add nothing
#   bench-smoke  micro + net_loadgen + the partition K-sweep +
#           push_loadgen + ext_range_validity (the one bench that derives
#           range influence objects from the client-side polygon) at
#           tiny sizes; fails on crash, a failed reply
#           verification (incl. push_loadgen's zero-answer-gap check),
#           or a missing/malformed BENCH_*.json artifact (the numbers
#           themselves are not gated here — a smoke box is too noisy
#           for thresholds)
#   bench-gate   micro BM_KnnBestFirst/100 + the kNN/window/range
#           validity engine micros + the 100k-point bulk load, churn,
#           a quarter-scale net_loadgen and a quarter-scale throughput
#           (batch-server q/s) compared against bench/baseline.json via
#           tools/bench_gate.py; the baseline's bands are generous
#           multiples so only a real regression trips them
#   servebench  python3 servebench/test_determinism.py: builds the
#           serving benchmark, runs every workload twice at a small size
#           plus once traced, and fails on any difference in the reply
#           digest or the exact counts, on any failed operation, or on
#           metric names that disagree across BENCHMARK.json and
#           servebench/
#
# Build directories are reused across runs (build/, build-werror/,
# build-asan/, build-tsan/), so incremental invocations are cheap.
# Usage: tools/check.sh [stage ...]   (default: all stages)

set -u
cd "$(dirname "$0")/.."
ROOT="$PWD"
JOBS="$(nproc 2>/dev/null || echo 1)"

STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] && STAGES=(lint plain werror werror-thread-safety \
  asan tsan bench-smoke bench-gate servebench)

declare -A RESULT
FAILED=0

note() { printf '\n== %s ==\n' "$*"; }

run_stage() {
  local name="$1"
  shift
  note "stage: $name"
  if "$@"; then
    RESULT[$name]=PASS
  else
    RESULT[$name]=FAIL
    FAILED=1
  fi
}

stage_lint() {
  cmake -S "$ROOT" -B "$ROOT/build" >/dev/null &&
    cmake --build "$ROOT/build" --target lbsq_lint -j "$JOBS" &&
    "$ROOT/build/tools/lbsq_lint" --root "$ROOT" \
      --json "$ROOT/LINT_findings.json"
}

# Opportunistic clang proof of the thread-safety annotations. On a box
# without clang++ this PASSes as an explicit skip: the contract is still
# enforced by lbsq_lint's flow-sensitive rules on every run, clang just
# proves it with a real compiler analysis when available.
stage_werror_thread_safety() {
  local clangxx
  clangxx="$(command -v clang++ || true)"
  if [ -z "$clangxx" ]; then
    echo "no clang++ on this box; skipping (lbsq_lint guarded-access still gates)"
    return 0
  fi
  cmake -S "$ROOT" -B "$ROOT/build-clang-ts" \
    -DCMAKE_CXX_COMPILER="$clangxx" -DLBSQ_WERROR=ON \
    -DLBSQ_THREAD_SAFETY=ON >/dev/null &&
    cmake --build "$ROOT/build-clang-ts" -j "$JOBS"
}

stage_plain() {
  cmake -S "$ROOT" -B "$ROOT/build" >/dev/null &&
    cmake --build "$ROOT/build" -j "$JOBS" &&
    ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"
}

stage_werror() {
  cmake -S "$ROOT" -B "$ROOT/build-werror" -DLBSQ_WERROR=ON >/dev/null &&
    cmake --build "$ROOT/build-werror" -j "$JOBS"
}

stage_asan() {
  cmake -S "$ROOT" -B "$ROOT/build-asan" -DLBSQ_SANITIZE=address >/dev/null &&
    cmake --build "$ROOT/build-asan" -j "$JOBS" &&
    ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$JOBS"
}

stage_tsan() {
  cmake -S "$ROOT" -B "$ROOT/build-tsan" -DLBSQ_SANITIZE=thread >/dev/null &&
    cmake --build "$ROOT/build-tsan" --target batch_server_test \
      fault_injection_test semantic_cache_test net_test net_fault_test \
      push_test partition_test -j "$JOBS" &&
    "$ROOT/build-tsan/tests/batch_server_test" &&
    "$ROOT/build-tsan/tests/fault_injection_test" &&
    "$ROOT/build-tsan/tests/semantic_cache_test" &&
    "$ROOT/build-tsan/tests/net_test" &&
    "$ROOT/build-tsan/tests/net_fault_test" &&
    "$ROOT/build-tsan/tests/push_test" &&
    "$ROOT/build-tsan/tests/partition_test"
}

stage_bench_smoke() {
  cmake -S "$ROOT" -B "$ROOT/build" >/dev/null &&
    cmake --build "$ROOT/build" --target micro net_loadgen partition \
      push_loadgen ext_range_validity -j "$JOBS" || return 1
  local dir
  dir="$(mktemp -d)" || return 1
  local ok=0
  # One fast micro benchmark (min-of-rounds still applies), the loadgen,
  # the K-fragment sweep and the push-vs-pull trajectory walk at small
  # datasets — the loadgen's reply verification, the partition
  # differential tests and the push walk's zero-answer-gap check are the
  # correctness gates; artifacts must exist and parse.
  LBSQ_BENCH_DIR="$dir" "$ROOT/build/bench/micro" \
    '--benchmark_filter=BM_KnnBestFirst/10/' >/dev/null &&
    LBSQ_BENCH_DIR="$dir" LBSQ_SCALE=0.05 "$ROOT/build/bench/net_loadgen" \
      >/dev/null &&
    LBSQ_BENCH_DIR="$dir" LBSQ_SCALE=0.05 LBSQ_ROUNDS=1 \
      "$ROOT/build/bench/partition" >/dev/null &&
    LBSQ_BENCH_DIR="$dir" LBSQ_SCALE=0.05 "$ROOT/build/bench/push_loadgen" \
      >/dev/null &&
    LBSQ_QUERIES=20 LBSQ_SCALE=0.05 "$ROOT/build/bench/ext_range_validity" \
      >/dev/null &&
    python3 -m json.tool "$dir/BENCH_micro.json" >/dev/null &&
    python3 -m json.tool "$dir/BENCH_net_loadgen.json" >/dev/null &&
    python3 -m json.tool "$dir/BENCH_partition.json" >/dev/null &&
    python3 -m json.tool "$dir/BENCH_push.json" >/dev/null ||
    ok=1
  rm -rf "$dir"
  return "$ok"
}

# Re-runs the three gated benchmarks at the baseline's own
# configuration and compares the numbers against bench/baseline.json.
# Hit rates are deterministic; timing bands are generous multiples.
stage_bench_gate() {
  cmake -S "$ROOT" -B "$ROOT/build" >/dev/null &&
    cmake --build "$ROOT/build" --target micro churn net_loadgen \
      throughput -j "$JOBS" || return 1
  local dir
  dir="$(mktemp -d)" || return 1
  local ok=0
  LBSQ_BENCH_DIR="$dir" "$ROOT/build/bench/micro" \
    '--benchmark_filter=BM_KnnBestFirst/100/|BM_NnValidityQuery|BM_WindowValidityQuery|BM_RangeValidityQuery|BM_BulkLoad/100000/' \
    >/dev/null &&
    LBSQ_BENCH_DIR="$dir" LBSQ_ROUNDS=1 "$ROOT/build/bench/churn" \
      >/dev/null &&
    LBSQ_BENCH_DIR="$dir" LBSQ_SCALE=0.25 "$ROOT/build/bench/net_loadgen" \
      >/dev/null &&
    LBSQ_BENCH_DIR="$dir" LBSQ_SCALE=0.25 "$ROOT/build/bench/throughput" \
      >/dev/null &&
    python3 "$ROOT/tools/bench_gate.py" "$dir" "$ROOT/bench/baseline.json" ||
    ok=1
  rm -rf "$dir"
  return "$ok"
}

# The serving benchmark's own determinism self-test; it builds
# servebench/ against the checkout's src/ in .bench_build/.
stage_servebench() {
  python3 "$ROOT/servebench/test_determinism.py"
}

for s in "${STAGES[@]}"; do
  case "$s" in
    lint | plain | werror | asan | tsan) run_stage "$s" "stage_$s" ;;
    werror-thread-safety) run_stage "$s" stage_werror_thread_safety ;;
    bench-smoke) run_stage "$s" stage_bench_smoke ;;
    bench-gate) run_stage "$s" stage_bench_gate ;;
    servebench) run_stage "$s" stage_servebench ;;
    *)
      echo "unknown stage: $s (known: lint plain werror" \
        "werror-thread-safety asan tsan bench-smoke bench-gate" \
        "servebench)" >&2
      exit 2
      ;;
  esac
done

printf '\n== summary ==\n'
for s in "${STAGES[@]}"; do
  printf '%-20s %s\n' "$s" "${RESULT[$s]}"
done
exit "$FAILED"
