// Load generator for the TCP serving layer (src/net): N pipelined
// loopback connections drive the clustered hotspot workload through a
// real NetServer, with the semantic answer cache off and then on.
//
// Every reply is verified, not just counted:
//
//   cache off  each answer payload must be byte-identical to the
//              in-process Server::*QueryWire bytes for the same query
//              (precomputed before the server starts; cache-off answers
//              are order-independent, so the comparison is exact even
//              across concurrent connections);
//   cache on   a hit serves the verbatim stored bytes of whichever
//              earlier query's answer covers this one, so the payload
//              must be a member of the precomputed fresh-answer set,
//              and sampled replies are additionally decoded and checked
//              IsValidAt(query point). The strict same-order byte
//              differential for the cache-on path lives in
//              tests/net_test.cc (CacheOnSingleConnectionMatchesInProcessReplay)
//              where a single pipelined connection makes the processing
//              order deterministic.
//
// Any mismatch, protocol error, bad request, or dropped connection
// fails the run (exit 1). Rates are min-of-rounds (same reasoning as
// bench/throughput.cc: interference inflates rounds, never deflates
// them); per-request latency percentiles come from the fastest round.
//
// Output: an aligned table plus one "BENCH {...}" JSON line with net
// q/s and p50/p99 latency for both phases. Knobs: LBSQ_SCALE scales the
// dataset (default 20k points); LBSQ_CONNS sets the connection count
// (default 8, the acceptance floor).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "core/server.h"
#include "core/wire_format.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "workload/queries.h"

namespace {

using namespace lbsq;
using Clock = std::chrono::steady_clock;

constexpr size_t kPoints = 20000;
constexpr size_t kQueriesPerConn = 1024;  // unique stream per connection
constexpr size_t kCacheOnRepeats = 6;     // stream passes in the on phase
constexpr size_t kPipelineWindow = 32;    // in-flight requests per conn
constexpr size_t kValiditySampleEvery = 64;
constexpr double kMinSeconds = 0.5;  // per-phase timing floor

struct QuerySpec {
  enum class Type { kNn, kWindow, kRange };
  Type type = Type::kNn;
  geo::Point q;
  double a = 0.0;  // hx / radius
  double b = 0.0;  // hy
  uint32_t k = 0;
};

// Clustered hotspot mix, same shape as throughput.cc's cache section:
// discrete per-type parameters so nearby clients ask comparable queries.
std::vector<QuerySpec> MakeSpecs(const geo::Rect& universe, size_t count) {
  const std::vector<geo::Point> locations = workload::MakeHotspotQueries(
      universe, count, /*hotspots=*/16, /*seed=*/4711, /*sigma=*/0.005);
  std::vector<QuerySpec> specs(count);
  for (size_t i = 0; i < count; ++i) {
    QuerySpec& s = specs[i];
    s.q = locations[i];
    switch (i % 20) {
      case 12: case 13: case 14: case 15: case 16:
        s.type = QuerySpec::Type::kWindow;
        s.a = 0.01;
        s.b = 0.008;
        break;
      case 17: case 18: case 19:
        s.type = QuerySpec::Type::kRange;
        s.a = 0.01;
        break;
      default:
        s.type = QuerySpec::Type::kNn;
        s.k = 10;
        break;
    }
  }
  return specs;
}

std::vector<uint8_t> FreshWireBytes(core::Server& server,
                                    const QuerySpec& s) {
  switch (s.type) {
    case QuerySpec::Type::kNn:
      return server.NnQueryWire(s.q, s.k).value();
    case QuerySpec::Type::kWindow:
      return server.WindowQueryWire(s.q, s.a, s.b).value();
    case QuerySpec::Type::kRange:
      return server.RangeQueryWire(s.q, s.a).value();
  }
  return {};
}

// Decodes an answer and checks the validity region covers the asking
// point — the semantic guarantee a cached answer must honor.
bool AnswerValidAt(const QuerySpec& s, const std::vector<uint8_t>& payload) {
  switch (s.type) {
    case QuerySpec::Type::kNn: {
      const auto decoded = core::wire::DecodeNnResult(payload);
      return decoded.ok() && decoded->IsValidAt(s.q);
    }
    case QuerySpec::Type::kWindow: {
      const auto decoded = core::wire::DecodeWindowResult(payload);
      return decoded.ok() && decoded->IsValidAt(s.q);
    }
    case QuerySpec::Type::kRange: {
      const auto decoded = core::wire::DecodeRangeResult(payload);
      return decoded.ok() && decoded->IsValidAt(s.q);
    }
  }
  return false;
}

std::string Key(const std::vector<uint8_t>& bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

// One connection's work for one round: pipeline the spec slice `repeats`
// times through an open client, verifying every reply. Replies come back
// FIFO per connection, so reply j answers query j of the stream.
struct ConnRun {
  net::NetClient* client = nullptr;
  const std::vector<QuerySpec>* specs = nullptr;
  const std::vector<std::vector<uint8_t>>* fresh = nullptr;  // per spec
  const std::unordered_set<std::string>* fresh_set = nullptr;
  size_t repeats = 1;
  bool cache_on = false;
  // Outputs, reset every round:
  size_t replies = 0;
  size_t failures = 0;
  std::vector<double> latency_ms;
};

void RunConn(ConnRun* r) {
  const size_t total = r->specs->size() * r->repeats;
  r->replies = 0;
  r->failures = 0;
  r->latency_ms.clear();
  r->latency_ms.reserve(total);
  std::deque<Clock::time_point> sends;
  size_t sent = 0;
  size_t received = 0;
  while (received < total) {
    while (sent < total && sent - received < kPipelineWindow) {
      const QuerySpec& s = (*r->specs)[sent % r->specs->size()];
      StatusOr<uint32_t> id = Status::Internal("unreachable");
      switch (s.type) {
        case QuerySpec::Type::kNn:
          id = r->client->SendNn(s.q, s.k);
          break;
        case QuerySpec::Type::kWindow:
          id = r->client->SendWindow(s.q, s.a, s.b);
          break;
        case QuerySpec::Type::kRange:
          id = r->client->SendRange(s.q, s.a);
          break;
      }
      if (!id.ok()) {
        ++r->failures;
        return;
      }
      sends.push_back(Clock::now());
      ++sent;
    }
    const StatusOr<net::NetClient::Reply> reply = r->client->Receive();
    const Clock::time_point now = Clock::now();
    if (!reply.ok() || reply->type != net::FrameType::kAnswer) {
      ++r->failures;
      return;
    }
    r->latency_ms.push_back(
        std::chrono::duration<double, std::milli>(now - sends.front())
            .count());
    sends.pop_front();
    const size_t qi = received % r->specs->size();
    const QuerySpec& s = (*r->specs)[qi];
    const std::vector<uint8_t>& want = (*r->fresh)[qi];
    if (r->cache_on) {
      // Miss => fresh bytes for this query; hit => stored bytes of some
      // covering workload query. Anything else is a wire corruption.
      if (reply->payload != want &&
          r->fresh_set->count(Key(reply->payload)) == 0) {
        ++r->failures;
      } else if (received % kValiditySampleEvery == 0 &&
                 !AnswerValidAt(s, reply->payload)) {
        ++r->failures;
      }
    } else if (reply->payload != want) {
      ++r->failures;
    }
    ++received;
    ++r->replies;
  }
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct PhaseResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t replies = 0;   // across all rounds, warm-up included
  size_t failures = 0;
  double hit_rate = 0.0;
  net::NetStats stats;
};

PhaseResult RunPhase(rtree::RTree* tree, const geo::Rect& universe,
                     bool cache_on, size_t connections,
                     const std::vector<std::vector<QuerySpec>>& specs,
                     const std::vector<std::vector<std::vector<uint8_t>>>& fresh,
                     const std::unordered_set<std::string>& fresh_set) {
  // Heap-allocated: g++ 12 -O2 emits a -Wmaybe-uninitialized false
  // positive for the optional<SemanticCache> member on the stack.
  auto server = std::make_unique<core::Server>(tree, universe);
  if (cache_on) {
    cache::CacheConfig config;
    config.max_entries = 1u << 15;
    config.max_bytes = 32u << 20;
    server->EnableCache(config);
  }
  net::NetOptions options;
  options.max_connections = connections + 4;
  net::NetServer serving(server.get(), options);
  if (const Status listening = serving.Listen(); !listening.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", listening.ToString().c_str());
    std::exit(1);
  }
  std::thread loop([&serving] { serving.Run(); });

  std::vector<std::unique_ptr<net::NetClient>> clients;
  std::vector<ConnRun> runs(connections);
  for (size_t c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<net::NetClient>());
    if (const Status connected =
            clients.back()->Connect("127.0.0.1", serving.port());
        !connected.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   connected.ToString().c_str());
      std::exit(1);
    }
    ConnRun& r = runs[c];
    r.client = clients.back().get();
    r.specs = &specs[c];
    r.fresh = &fresh[c];
    r.fresh_set = &fresh_set;
    r.repeats = cache_on ? kCacheOnRepeats : 1;
    r.cache_on = cache_on;
  }
  const size_t queries_per_round =
      connections * kQueriesPerConn * (cache_on ? kCacheOnRepeats : 1);

  PhaseResult result;
  auto round = [&] {
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (ConnRun& r : runs) threads.emplace_back(RunConn, &r);
    for (std::thread& t : threads) t.join();
    for (const ConnRun& r : runs) {
      result.replies += r.replies;
      result.failures += r.failures;
    }
  };

  round();  // warm-up (and, cache on, the cache-filling pass), untimed
  double best_seconds = std::numeric_limits<double>::infinity();
  double total_seconds = 0.0;
  std::vector<double> best_latencies;
  do {
    const Clock::time_point start = Clock::now();
    round();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed < best_seconds) {
      best_seconds = elapsed;
      best_latencies.clear();
      for (const ConnRun& r : runs) {
        best_latencies.insert(best_latencies.end(), r.latency_ms.begin(),
                              r.latency_ms.end());
      }
    }
    total_seconds += elapsed;
  } while (total_seconds < kMinSeconds);

  result.qps = static_cast<double>(queries_per_round) / best_seconds;
  result.p50_ms = Percentile(best_latencies, 0.50);
  result.p99_ms = Percentile(best_latencies, 0.99);

  for (auto& client : clients) client->Close();
  serving.RequestDrain();
  loop.join();
  result.stats = serving.stats();
  if (cache_on) {
    const cache::CacheStats cache_stats = server->cache_stats();
    result.hit_rate = cache_stats.lookups == 0
                          ? 0.0
                          : static_cast<double>(cache_stats.hits) /
                                static_cast<double>(cache_stats.lookups);
  }
  return result;
}

// Server-side counters that must stay at zero for a clean run.
bool PhaseClean(const PhaseResult& r, size_t connections) {
  return r.failures == 0 && r.stats.protocol_errors == 0 &&
         r.stats.bad_requests == 0 && r.stats.query_errors == 0 &&
         r.stats.drops == 0 && r.stats.accepts == connections;
}

}  // namespace

int main() {
  const size_t n = bench::Scaled(kPoints);
  const size_t connections = bench::EnvCount("LBSQ_CONNS", 8);
  bench::Workbench wb = bench::MakeUniformBench(n, /*buffer_fraction=*/0.0);

  // Per-connection query streams plus their in-process reference bytes,
  // computed before any server thread exists (the engines share the
  // tree's buffer pool, so the reference pass must not run concurrently
  // with serving).
  std::vector<std::vector<QuerySpec>> specs(connections);
  std::vector<std::vector<std::vector<uint8_t>>> fresh(connections);
  std::unordered_set<std::string> fresh_set;
  {
    const std::vector<QuerySpec> all =
        MakeSpecs(wb.dataset.universe, connections * kQueriesPerConn);
    auto reference =
        std::make_unique<core::Server>(wb.tree.get(), wb.dataset.universe);
    for (size_t c = 0; c < connections; ++c) {
      specs[c].assign(all.begin() + c * kQueriesPerConn,
                      all.begin() + (c + 1) * kQueriesPerConn);
      fresh[c].reserve(kQueriesPerConn);
      for (const QuerySpec& s : specs[c]) {
        fresh[c].push_back(FreshWireBytes(*reference, s));
        fresh_set.insert(Key(fresh[c].back()));
      }
    }
  }

  bench::PrintTitle("Net serving over loopback (" + bench::FormatCount(n) +
                    " points, " + std::to_string(connections) +
                    " pipelined connections, window " +
                    std::to_string(kPipelineWindow) + ")");
  std::printf("%-14s %12s %10s %10s %9s\n", "configuration", "queries/s",
              "p50 ms", "p99 ms", "hit rate");

  const PhaseResult off = RunPhase(wb.tree.get(), wb.dataset.universe,
                                   /*cache_on=*/false, connections, specs,
                                   fresh, fresh_set);
  std::printf("%-14s %12.0f %10.3f %10.3f %8s\n", "net-nocache", off.qps,
              off.p50_ms, off.p99_ms, "-");
  const PhaseResult on = RunPhase(wb.tree.get(), wb.dataset.universe,
                                  /*cache_on=*/true, connections, specs,
                                  fresh, fresh_set);
  std::printf("%-14s %12.0f %10.3f %10.3f %8.1f%%\n", "net-cache", on.qps,
              on.p50_ms, on.p99_ms, on.hit_rate * 100.0);

  const size_t completed = off.replies + on.replies;
  std::printf("\ncompleted %zu queries (%zu cache-off, %zu cache-on), "
              "every reply verified\n",
              completed, off.replies, on.replies);

  bool ok = true;
  for (const auto* phase : {&off, &on}) {
    if (!PhaseClean(*phase, connections)) {
      std::printf("FAIL %s: %zu reply mismatches, %llu protocol errors, "
                  "%llu bad requests, %llu query errors, %llu drops, "
                  "%llu accepts\n",
                  phase == &off ? "net-nocache" : "net-cache",
                  phase->failures,
                  static_cast<unsigned long long>(phase->stats.protocol_errors),
                  static_cast<unsigned long long>(phase->stats.bad_requests),
                  static_cast<unsigned long long>(phase->stats.query_errors),
                  static_cast<unsigned long long>(phase->stats.drops),
                  static_cast<unsigned long long>(phase->stats.accepts));
      ok = false;
    }
  }
  const size_t per_run = connections * kQueriesPerConn * (1 + kCacheOnRepeats);
  if (per_run < 50000) {
    std::printf("FAIL: %zu queries per timed run is below the 50k floor\n",
                per_run);
    ok = false;
  }

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\"name\":\"net_loadgen\",\"points\":%zu,\"connections\":%zu,"
      "\"pipeline_window\":%zu,\"queries\":%zu,"
      "\"net_nocache_qps\":%.0f,\"net_cache_qps\":%.0f,"
      "\"cache_speedup\":%.3f,\"cache_hit_rate\":%.3f,"
      "\"nocache_p50_ms\":%.3f,\"nocache_p99_ms\":%.3f,"
      "\"cache_p50_ms\":%.3f,\"cache_p99_ms\":%.3f,"
      "\"writev_calls\":%llu,\"writev_iovecs\":%llu,"
      "\"bytes_copied\":%llu,\"bytes_zero_copy\":%llu,"
      "\"verified\":%s}",
      n, connections, kPipelineWindow, completed, off.qps, on.qps,
      on.qps / off.qps, on.hit_rate, off.p50_ms, off.p99_ms, on.p50_ms,
      on.p99_ms, static_cast<unsigned long long>(on.stats.writev_calls),
      static_cast<unsigned long long>(on.stats.writev_iovecs),
      static_cast<unsigned long long>(on.stats.bytes_copied),
      static_cast<unsigned long long>(on.stats.bytes_zero_copy),
      ok ? "true" : "false");
  std::printf("\nBENCH %s\n", json);
  bench::WriteBenchArtifact("net_loadgen", json);
  return ok ? 0 : 1;
}
