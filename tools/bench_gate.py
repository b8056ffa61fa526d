#!/usr/bin/env python3
"""Compare fresh BENCH_*.json artifacts against bench/baseline.json.

Usage: bench_gate.py <artifact_dir> <baseline_json>

Reads the artifacts the bench-gate stage of tools/check.sh just
produced (BENCH_micro.json, BENCH_churn.json, BENCH_net_loadgen.json,
BENCH_throughput.json) and checks each gated number against its band
in the baseline file:

  knn_best_first_100   micro's min-of-repeats BM_KnnBestFirst/100 time
                       must stay under min_ns * max_ratio
  window_validity_query / range_validity_query
                       same band shape for the full window/range
                       validity-region engine queries (min-of-repeats)
  nn_validity_query_1 / nn_validity_query_10
                       same band shape for the kNN miss path, the full
                       k-NN validity-region query at k = 1 and k = 10
                       (min-of-repeats BM_NnValidityQuery/1/ and /10/)
  bulk_load_100k       same band shape for the index build: an STR bulk
                       load of 100k uniform points into a fresh tree
                       (min-of-repeats BM_BulkLoad/100000/)
  net_cache_qps        the loadgen's cache-on end-to-end q/s must stay
                       above value * min_ratio
  batch4_qps           the 4-worker BatchServer's end-to-end q/s at the
                       gate's quarter scale must stay above
                       value * min_ratio (ROADMAP perf-gating item; the
                       band is wide because 4 workers share 1 vcpu on
                       the reference box)
  churn_*_hit_at_100   at 100 updates per 1k queries the region-scoped
                       cache must keep a hit rate above `min`, and the
                       epoch-nuke twin must stay below `max` (if the
                       nuke path ever stops collapsing there, the
                       workload no longer exercises the difference and
                       the gate is meaningless)

Exits nonzero listing every violated band. Timing bands are generous
multiples (see the baseline's comment); hit rates are deterministic.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    art_dir, baseline_path = sys.argv[1], sys.argv[2]
    with open(baseline_path) as f:
        base = json.load(f)
    failures = []

    def check(label, ok, detail):
        print(f"bench-gate: {label}: {detail} [{'ok' if ok else 'FAIL'}]")
        if not ok:
            failures.append(label)

    with open(f"{art_dir}/BENCH_micro.json") as f:
        micro = json.load(f)

    def micro_min(prefix):
        result = None
        for b in micro["benchmarks"]:
            if (b["name"].startswith(prefix)
                    and b.get("aggregate_name") == "min"):
                result = b["real_time"]
        return result

    def check_micro(label, prefix):
        spec = base[label]
        limit = spec["min_ns"] * spec["max_ratio"]
        t = micro_min(prefix)
        check(label, t is not None and t <= limit,
              f"min {t if t is None else round(t)} ns, "
              f"limit {round(limit)} ns")

    check_micro("knn_best_first_100", "BM_KnnBestFirst/100/")
    check_micro("window_validity_query", "BM_WindowValidityQuery/")
    check_micro("range_validity_query", "BM_RangeValidityQuery/")
    check_micro("nn_validity_query_1", "BM_NnValidityQuery/1/")
    check_micro("nn_validity_query_10", "BM_NnValidityQuery/10/")
    check_micro("bulk_load_100k", "BM_BulkLoad/100000/")

    with open(f"{art_dir}/BENCH_net_loadgen.json") as f:
        loadgen = json.load(f)
    spec = base["net_cache_qps"]
    floor = spec["value"] * spec["min_ratio"]
    qps = loadgen["net_cache_qps"]
    check("net_cache_qps", qps >= floor,
          f"{round(qps)} q/s, floor {round(floor)} q/s")

    with open(f"{art_dir}/BENCH_throughput.json") as f:
        throughput = json.load(f)
    spec = base["batch4_qps"]
    floor = spec["value"] * spec["min_ratio"]
    qps = throughput["batch4_qps"]
    check("batch4_qps", qps >= floor,
          f"{round(qps)} q/s, floor {round(floor)} q/s")

    with open(f"{art_dir}/BENCH_churn.json") as f:
        churn = json.load(f)
    row = next((s for s in churn["series"]
                if s["updates_per_kquery"] == 100), None)
    if row is None:
        check("churn_series", False, "no updates_per_kquery=100 row")
    else:
        region = row["region"]["hit_rate"]
        epoch = row["epoch"]["hit_rate"]
        check("churn_region_hit_at_100",
              region >= base["churn_region_hit_at_100"]["min"],
              f"{region:.4f}, floor "
              f"{base['churn_region_hit_at_100']['min']:.2f}")
        check("churn_epoch_hit_at_100",
              epoch <= base["churn_epoch_hit_at_100"]["max"],
              f"{epoch:.4f}, cap "
              f"{base['churn_epoch_hit_at_100']['max']:.2f}")

    if failures:
        print(f"bench-gate: FAILED: {', '.join(failures)}")
        return 1
    print("bench-gate: all bands hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
