"""Turns a traced servebench run into the per-layer metrics of BENCHMARK.json.

Inputs: the traced run's REPORT (exact counts over the checkpoint prefix,
timed-phase counts, host clocks), the untraced run's REPORT of the same
seed (for the tracing overhead), and the Chrome trace-event file the
traced run wrote (one complete "X" event per line). run.py --trace 1
calls per_layer().

Span times come from the traced run only. A span's self time is its
duration minus the part of it that its child spans cover: a request's
`client` span has the loop-thread spans of the same request as children
(`service.*`, `partition.update`); on the push walk, where the client
waits on a clock advance rather than a request id, the children are the
loop-thread spans inside the client span.
"""

import bisect
import json
import statistics


def timing_dependent_counts(workload):
    """Counts that depend on wall-clock timing, so two runs of one seed may
    differ in them: the traced run's span sums and, on the push walk,
    sendmsg calls — a push emitted by a clock advance shares a sendmsg
    with the fence ping's pong only if the ping arrived before the loop
    polled."""
    counts = {"span.service_ns", "span.update_ns"}
    if workload == "push_walk":
        counts.add("net.writev_calls")
    return counts


KINDS = ("nn1", "nn10", "window", "range")


def load_spans(path):
    """name -> list of (start_us, dur_us, op, hit, tid)."""
    spans = {}
    with open(path) as f:
        for line in f:
            line = line.strip().rstrip(",")
            if not line.startswith('{"name"'):
                continue
            e = json.loads(line)
            spans.setdefault(e["name"], []).append(
                (e["ts"], e["dur"], e["args"]["op"], e["args"]["hit"], e["tid"]))
    return spans


def pct(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def ratio(num, den):
    return num / den if den else 0.0


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total, cursor = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def client_self_times(spans, by_op):
    # Loop-thread spans run one after another, so sorting by start also
    # sorts them by end.
    loop = sorted((s, s + d) for name, items in spans.items()
                  if name.startswith(("service.", "partition.", "push."))
                  for s, d, _, _, _ in items)
    starts = [iv[0] for iv in loop]
    ends = [iv[1] for iv in loop]
    out = []
    for s, d, op, _, _ in spans.get("client", []):
        if by_op is not None:
            children = [(cs, cs + cd) for cs, cd in by_op.get(op, [])]
        else:
            children = loop[bisect.bisect_right(ends, s):
                            bisect.bisect_left(starts, s + d)]
        out.append(d - covered(s, s + d, children))
    return out


def per_layer(traced, untraced, trace_path):
    """Returns ({metric: (value, unit)}, [summary lines])."""
    spans = load_spans(trace_path)
    c = traced["determinism"]["counts"]
    t = traced["timed_counts"]
    host = traced["host"]
    push_walk = traced["workload"] == "push_walk"

    def durs(name, hit=None):
        return [d for _, d, _, h, _ in spans.get(name, [])
                if hit is None or h == hit]

    service_hits = [d for k in KINDS for d in durs(f"service.{k}", 1)]
    misses_nn = c["misses.nn1"] + c["misses.nn10"] + c["misses.push"]
    misses = misses_nn + c["misses.window"] + c["misses.range"]
    frames = t["net.frames_out"]
    updates = c["updates.inserts"] + c["updates.deletes"]
    span_s = (t["span.service_ns"] + t["span.update_ns"]) / 1e9

    by_op = None
    if not push_walk:
        by_op = {}
        for name, items in spans.items():
            if name.startswith(("service.", "partition.")):
                for s, d, op, _, _ in items:
                    by_op.setdefault(op, []).append((s, d))

    client_self = client_self_times(spans, by_op)
    m = {
        "net.loop_us_per_reply": (
            ratio(max(0.0, host["loop_cpu_s"] - span_s), frames) * 1e6, "us"),
        "net.loop_idle_share": (
            1.0 - ratio(host["loop_cpu_s"], host["timed_wall_s"]), "ratio"),
        "net.frames_per_sendmsg": (
            ratio(c["net.frames_out"], c["net.writev_calls"]), "count"),
        "net.copied_bytes_share": (
            ratio(c["net.bytes_copied"], c["net.bytes_out"]), "ratio"),
        "net.client_us_per_reply": (
            ratio(host["client_cpu_s"], frames) * 1e6, "us"),
        "client.self_us_p50": (
            statistics.median(client_self or [0.0]), "us"),
        "service.hit_us_p50": (pct(service_hits, 0.50), "us"),
        "service.hit_us_p99": (pct(service_hits, 0.99), "us"),
    }
    for k in KINDS:
        m[f"service.miss_us_p50.{k}"] = (pct(durs(f"service.{k}", 0), 0.50), "us")
        m[f"service.miss_us_p99.{k}"] = (pct(durs(f"service.{k}", 0), 0.99), "us")
    m.update({
        "service.failed": (
            c["service.query_errors"] + c["service.query_retries"], "count"),
        "cache.hit_rate": (
            ratio(c["calls"] - misses, c["calls"]), "ratio"),
        "cache.evictions_per_insert": (
            ratio(c["cache.evictions"], c["cache.inserts"]), "ratio"),
        "cache.killed_per_update": (
            ratio(c["cache.killed_by_update"], updates), "count"),
        "cache.epoch_invalidations": (c["cache.epoch_invalidations"], "count"),
        "core.nn.tpnn_per_miss": (ratio(c["nn.tpnn_queries"], misses_nn), "count"),
        "core.nn.confirming_share": (
            ratio(c["nn.confirming_queries"], c["nn.tpnn_queries"]), "ratio"),
        "core.window.outer_candidates_per_miss": (
            ratio(c["window.outer_candidates"], c["misses.window"]), "count"),
        "core.range.outer_candidates_per_miss": (
            ratio(c["range.outer_candidates"], c["misses.range"]), "count"),
    })
    for k in KINDS:
        m[f"core.engine_us_p50.{k}"] = (pct(durs(f"probe.engine.{k}"), 0.5), "us")
        m[f"core.encode_us_p50.{k}"] = (pct(durs(f"probe.encode.{k}"), 0.5), "us")
    m.update({
        "tp.node_accesses_per_nn_miss": (
            ratio(c["nn.tpnn_node_accesses"], misses_nn), "count"),
        "rtree.node_accesses_per_miss": (
            ratio(c["nn.node_accesses"] + c["window.node_accesses"]
                  + c["range.node_accesses"], misses), "count"),
        "storage.page_accesses_per_miss": (
            ratio(c["buffer.misses"], misses), "count"),
        "storage.buffer_hit_rate": (
            ratio(c["buffer.hits"], c["buffer.hits"] + c["buffer.misses"]),
            "ratio"),
        "partition.update_us_p50": (pct(durs("partition.update"), 0.50), "us"),
        "partition.update_us_p99": (pct(durs("partition.update"), 0.99), "us"),
        "partition.fanout_per_query": (
            ratio(c["router.fanout_fragments"], c["router.fanout_queries"]),
            "count"),
        "partition.node_accesses_per_miss": (
            ratio(c["router.node_accesses"], misses), "count"),
        "partition.page_accesses_per_miss": (
            ratio(c["router.page_accesses"], misses), "count"),
        "partition.boundary_insert_share": (
            ratio(c["partition.boundary_inserts"],
                  c["partition.owner_inserts"] + c["partition.boundary_inserts"]),
            "ratio"),
        "partition.boundary_kill_share": (
            ratio(c["partition.boundary_kills"],
                  c["partition.owner_kills"] + c["partition.boundary_kills"]),
            "ratio"),
        "push.query_us_p50": (pct(durs("push.query"), 0.50), "us"),
        "push.query_us_p99": (pct(durs("push.query"), 0.99), "us"),
        "push.cache_hit_rate": (
            ratio(c["push.cache_hits"], c["push.queries"]), "ratio"),
        "push.pushes_per_crossing": (
            ratio(c["net.pushes_sent"], traced["determinism"]["crossings"]),
            "count"),
        "trace.overhead_share": (
            1.0 - ratio(traced["metrics"]["qps"], untraced["metrics"]["qps"]),
            "ratio"),
    })

    rows = {name: [x[1] for x in items] for name, items in spans.items()}
    rows["client (self)"] = client_self
    lines = [f"trace {'span':<22}{'count':>9}{'p50_us':>12}{'p99_us':>12}"]
    for name in sorted(rows):
        d = rows[name]
        lines.append(f"trace {name:<22}{len(d):>9}{pct(d, 0.5):>12.3f}"
                     f"{pct(d, 0.99):>12.3f}")
    return m, lines

