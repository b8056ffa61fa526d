// Command-line workbench for the library: generate datasets, build a
// persistent on-disk index, and run location-based queries against it.
//
//   lbsq_cli generate --type uniform|gr|na --n 100000 --seed 7 --out pts.csv
//   lbsq_cli build    --data pts.csv --index idx.db
//   lbsq_cli stats    --index idx.db
//   lbsq_cli scrub    --index idx.db
//   lbsq_cli nn       --index idx.db --x 0.31 --y 0.74 --k 3
//   lbsq_cli window   --index idx.db --x 0.31 --y 0.74 --hx 0.02 --hy 0.02
//   lbsq_cli range    --index idx.db --x 0.31 --y 0.74 --r 0.05
//   lbsq_cli serve    --index idx.db --port 19537 --cache on [--fragments 4]
//                     [--push on|off] [--push-subs 1024]
//   lbsq_cli ping     --port 19537 [--host 127.0.0.1] [--count 5]
//   lbsq_cli info     --port 19537 [--host 127.0.0.1]
//
// `serve` exposes the index over the framed TCP protocol (src/net) on
// loopback; Ctrl-C drains gracefully. Any NetClient — `ping`,
// bench/net_loadgen, or library code — can then query it. With
// --fragments K > 1 the points are re-sharded into K spatial fragments
// served through the FragmentRouter (src/partition); `info` then shows
// per-fragment point counts, MBRs and cache hit rates. With --push on
// (the default) clients may register trajectory subscriptions
// (kSubscribe) and receive the next validity region's answer as an
// unsolicited kPush before they cross into it (src/push).
//
// The index file is self-contained: logical page 0 stores the tree meta
// and the data universe, so every later invocation can re-attach. Builds
// also write a checksum sidecar (<index>.sum); later invocations verify
// every fetched page against it and `scrub` audits the whole file, so
// on-disk corruption is reported instead of silently served.
//
// Numeric flags must be one whole number (common/parse.h), and query
// flags must lie in the query's domain: the point inside the index's
// universe, 1 <= k <= 1024 (the wire protocol's bound), hx, hy and r
// positive, ports within 16 bits. Anything else prints a message and
// exits 2, as a missing flag does; aborts are left to internal
// invariants.

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/semantic_cache.h"
#include "common/parse.h"
#include "core/nn_validity.h"
#include "core/range_validity.h"
#include "core/server.h"
#include "core/window_validity.h"
#include "net/frame.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "partition/partitioned_server.h"
#include "push/push_scheduler.h"
#include "rtree/rtree.h"
#include "rtree/tree_stats.h"
#include "storage/checksummed_page_store.h"
#include "storage/file_page_manager.h"
#include "workload/datasets.h"

namespace {

using namespace lbsq;

using ArgMap = std::map<std::string, std::string>;

ArgMap ParseArgs(int argc, char** argv, int first) {
  ArgMap args;
  for (int i = first; i < argc; i += 2) {
    const char* key = argv[i];
    if (std::strncmp(key, "--", 2) != 0) {
      std::fprintf(stderr, "expected --flag, got '%s'\n", key);
      std::exit(2);
    }
    if (i + 1 == argc) {
      std::fprintf(stderr, "flag %s has no value\n", key);
      std::exit(2);
    }
    args[key + 2] = argv[i + 1];
  }
  return args;
}

std::string Require(const ArgMap& args, const std::string& key) {
  auto it = args.find(key);
  if (it == args.end()) {
    std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

std::string GetOr(const ArgMap& args, const std::string& key,
                  const std::string& fallback) {
  auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

[[noreturn]] void BadFlag(const std::string& key, const std::string& value,
                          const char* expected) {
  std::fprintf(stderr, "bad --%s '%s': expected %s\n", key.c_str(),
               value.c_str(), expected);
  std::exit(2);
}

// Numeric flag --key: required when `fallback` is null, else defaulted.
uint64_t CountFlag(const ArgMap& args, const std::string& key,
                   const char* fallback = nullptr) {
  const std::string text =
      fallback == nullptr ? Require(args, key) : GetOr(args, key, fallback);
  const std::optional<uint64_t> v = ParseCount(text);
  if (!v.has_value()) BadFlag(key, text, "a non-negative integer");
  return *v;
}

double FiniteFlag(const ArgMap& args, const std::string& key) {
  const std::string text = Require(args, key);
  const std::optional<double> v = ParseFinite(text);
  if (!v.has_value()) BadFlag(key, text, "a finite number");
  return *v;
}

double PositiveFlag(const ArgMap& args, const std::string& key) {
  const double v = FiniteFlag(args, key);
  if (!(v > 0.0)) BadFlag(key, Require(args, key), "a positive number");
  return v;
}

uint16_t PortFlag(const ArgMap& args, const char* fallback = nullptr) {
  const uint64_t port = CountFlag(args, "port", fallback);
  if (port > UINT16_MAX) {
    BadFlag("port", std::to_string(port), "a port in [0, 65535]");
  }
  return static_cast<uint16_t>(port);
}

// The query point --x/--y, which must lie in the index's universe.
geo::Point PointFlags(const ArgMap& args, const geo::Rect& universe) {
  const geo::Point q{FiniteFlag(args, "x"), FiniteFlag(args, "y")};
  if (!universe.Contains(q)) {
    std::fprintf(stderr,
                 "query point (%g, %g) lies outside the index's universe "
                 "[%g, %g] x [%g, %g]\n",
                 q.x, q.y, universe.min_x, universe.max_x, universe.min_y,
                 universe.max_y);
    std::exit(2);
  }
  return q;
}

// ---------------------------------------------------------------------------
// generate
// ---------------------------------------------------------------------------

int CmdGenerate(const ArgMap& args) {
  const std::string type = GetOr(args, "type", "uniform");
  const uint64_t seed = CountFlag(args, "seed", "42");
  const size_t n = CountFlag(args, "n", "100000");
  const std::string out_path = Require(args, "out");

  workload::Dataset dataset;
  if (type == "uniform") {
    dataset = workload::MakeUnitUniform(n, seed);
  } else if (type == "gr") {
    dataset = workload::MakeGrLike(seed, n);
  } else if (type == "na") {
    dataset = workload::MakeNaLike(seed, n);
  } else {
    std::fprintf(stderr, "unknown --type '%s' (uniform|gr|na)\n",
                 type.c_str());
    return 2;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << "# universe " << dataset.universe.min_x << ' '
      << dataset.universe.min_y << ' ' << dataset.universe.max_x << ' '
      << dataset.universe.max_y << '\n';
  out.precision(17);
  for (const rtree::DataEntry& e : dataset.entries) {
    out << e.point.x << ',' << e.point.y << ',' << e.id << '\n';
  }
  std::printf("wrote %zu points (%s) to %s\n", dataset.entries.size(),
              type.c_str(), out_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// build / attach
// ---------------------------------------------------------------------------

bool LoadCsv(const std::string& path, workload::Dataset* dataset) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream header(line.substr(1));
      std::string word;
      header >> word;  // "universe"
      header >> dataset->universe.min_x >> dataset->universe.min_y >>
          dataset->universe.max_x >> dataset->universe.max_y;
      continue;
    }
    std::istringstream row(line);
    rtree::DataEntry e;
    char comma;
    row >> e.point.x >> comma >> e.point.y >> comma >> e.id;
    dataset->entries.push_back(e);
  }
  return !dataset->entries.empty();
}

// Page 0 layout: tree meta at offset 0, universe rect at offset 32.
void SaveIndexHeader(storage::PageStore* store, storage::PageId page,
                     const rtree::RTree::Meta& meta,
                     const geo::Rect& universe) {
  storage::Page header;
  meta.SerializeTo(&header, 0);
  header.WriteAt<double>(32, universe.min_x);
  header.WriteAt<double>(40, universe.min_y);
  header.WriteAt<double>(48, universe.max_x);
  header.WriteAt<double>(56, universe.max_y);
  store->Write(page, header);
}

std::string SidecarPath(const std::string& index_path) {
  return index_path + ".sum";
}

struct AttachedIndex {
  std::unique_ptr<storage::FilePageManager> file;
  std::unique_ptr<storage::ChecksummedPageStore> store;
  std::unique_ptr<rtree::RTree> tree;
  geo::Rect universe;
};

AttachedIndex Attach(const std::string& path) {
  AttachedIndex idx;
  idx.file = std::make_unique<storage::FilePageManager>(
      path, storage::FilePageManager::Mode::kOpen);
  idx.store = std::make_unique<storage::ChecksummedPageStore>(idx.file.get());
  const Status loaded = idx.store->LoadTable(SidecarPath(path));
  if (!loaded.ok()) {
    // Not fatal — pages simply cannot be verified until rebuilt — but the
    // user should know the integrity net is down.
    std::fprintf(stderr, "warning: checksum sidecar %s unusable (%s)\n",
                 SidecarPath(path).c_str(), loaded.ToString().c_str());
  }
  storage::PageStore::ClearReadError();
  storage::Page header;
  idx.store->Read(0, &header);
  const Status header_status = storage::PageStore::TakeReadError();
  if (!header_status.ok()) {
    std::fprintf(stderr, "index header page corrupt: %s\n",
                 header_status.ToString().c_str());
    std::exit(1);
  }
  const auto meta = rtree::RTree::Meta::DeserializeFrom(header, 0);
  idx.universe =
      geo::Rect(header.ReadAt<double>(32), header.ReadAt<double>(40),
                header.ReadAt<double>(48), header.ReadAt<double>(56));
  idx.tree = std::make_unique<rtree::RTree>(
      idx.store.get(), /*buffer_capacity=*/256, rtree::RTree::Options(),
      meta);
  return idx;
}

int CmdBuild(const ArgMap& args) {
  const std::string data_path = Require(args, "data");
  const std::string index_path = Require(args, "index");
  workload::Dataset dataset;
  if (!LoadCsv(data_path, &dataset)) {
    std::fprintf(stderr, "failed to load %s\n", data_path.c_str());
    return 1;
  }
  if (dataset.universe.IsEmpty()) {
    for (const rtree::DataEntry& e : dataset.entries) {
      dataset.universe = dataset.universe.ExpandedToInclude(e.point);
    }
  }
  storage::FilePageManager file(index_path,
                                storage::FilePageManager::Mode::kCreate);
  storage::ChecksummedPageStore store(&file);
  const storage::PageId header_page = store.Allocate();
  rtree::RTree tree(&store, /*buffer_capacity=*/256);
  tree.BulkLoad(dataset.entries);
  tree.buffer().FlushAll();
  SaveIndexHeader(&store, header_page, tree.meta(), dataset.universe);
  file.Sync();
  const Status saved = store.SaveTable(SidecarPath(index_path));
  if (!saved.ok()) {
    std::fprintf(stderr, "failed to write checksum sidecar: %s\n",
                 saved.ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu points into %s (%zu nodes, height %d)\n",
              tree.size(), index_path.c_str(), tree.num_nodes(),
              tree.height());
  return 0;
}

// Reads every checksummed page back and verifies it: the offline
// integrity audit for an index file that has been sitting on disk.
int CmdScrub(const ArgMap& args) {
  AttachedIndex idx = Attach(Require(args, "index"));
  const size_t bad = idx.store->Scrub();
  std::printf("scrubbed %zu pages: %zu corrupt\n", idx.file->live_pages(),
              bad);
  return bad == 0 ? 0 : 1;
}

int CmdStats(const ArgMap& args) {
  AttachedIndex idx = Attach(Require(args, "index"));
  std::printf("points:   %zu\n", idx.tree->size());
  std::printf("nodes:    %zu (%zu pages on disk)\n", idx.tree->num_nodes(),
              idx.store->live_pages());
  std::printf("height:   %d\n", idx.tree->height());
  std::printf("universe: [%g, %g] x [%g, %g]\n", idx.universe.min_x,
              idx.universe.max_x, idx.universe.min_y, idx.universe.max_y);
  std::printf("%s", rtree::CollectTreeStats(*idx.tree).ToString().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// queries
// ---------------------------------------------------------------------------

int CmdNn(const ArgMap& args) {
  AttachedIndex idx = Attach(Require(args, "index"));
  const geo::Point q = PointFlags(args, idx.universe);
  const size_t k = CountFlag(args, "k", "1");
  if (k < 1 || k > net::kMaxRequestK) {
    BadFlag("k", std::to_string(k), "an integer in [1, 1024]");
  }
  core::NnValidityEngine engine(idx.tree.get(), idx.universe);
  storage::PageStore::ClearReadError();
  const auto result = engine.Query(q, k);
  if (const Status s = storage::PageStore::TakeReadError(); !s.ok()) {
    std::fprintf(stderr, "query failed: %s\n", s.ToString().c_str());
    return 1;
  }
  for (const auto& n : result.answers()) {
    std::printf("neighbor id=%u at (%.6g, %.6g), distance %.6g\n",
                n.entry.id, n.entry.point.x, n.entry.point.y, n.distance);
  }
  std::printf("validity region: %zu edges, area %.6g, |S_inf|=%zu\n",
              result.region().num_vertices(), result.region().Area(),
              result.InfluenceSetSize());
  return 0;
}

int CmdWindow(const ArgMap& args) {
  AttachedIndex idx = Attach(Require(args, "index"));
  const geo::Point q = PointFlags(args, idx.universe);
  const double hx = PositiveFlag(args, "hx");
  const double hy = PositiveFlag(args, "hy");
  core::WindowValidityEngine engine(idx.tree.get(), idx.universe);
  storage::PageStore::ClearReadError();
  const auto result = engine.Query(q, hx, hy);
  if (const Status s = storage::PageStore::TakeReadError(); !s.ok()) {
    std::fprintf(stderr, "query failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("%zu objects in window\n", result.result().size());
  const geo::Rect& c = result.conservative_region();
  std::printf("validity: inner rect area %.6g, %zu outer obstacles, "
              "conservative [%g, %g] x [%g, %g]\n",
              result.region().base().Area(), result.region().holes().size(),
              c.min_x, c.max_x, c.min_y, c.max_y);
  return 0;
}

int CmdRange(const ArgMap& args) {
  AttachedIndex idx = Attach(Require(args, "index"));
  const geo::Point q = PointFlags(args, idx.universe);
  const double r = PositiveFlag(args, "r");
  core::RangeValidityEngine engine(idx.tree.get(), idx.universe);
  storage::PageStore::ClearReadError();
  const auto result = engine.Query(q, r);
  if (const Status s = storage::PageStore::TakeReadError(); !s.ok()) {
    std::fprintf(stderr, "query failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("%zu objects within %.6g\n", result.result().size(), r);
  std::vector<size_t> cut_inner, cut_outer;
  const geo::ConvexPolygon conservative =
      result.region().ConservativePolygon(q, 16, &cut_inner, &cut_outer);
  std::printf("validity: %zu inner + %zu outer influence objects, "
              "conservative polygon with %zu vertices\n",
              cut_inner.size(), cut_outer.size(),
              conservative.num_vertices());
  return 0;
}

// ---------------------------------------------------------------------------
// serve / ping
// ---------------------------------------------------------------------------

// SIGINT drains the serving loop instead of killing the process: pending
// replies flush, counters print. RequestDrain is an atomic store plus a
// pipe write — both async-signal-safe.
net::NetServer* g_serving = nullptr;

void HandleSigint(int) {
  if (g_serving != nullptr) g_serving->RequestDrain();
}

int CmdServe(const ArgMap& args) {
  AttachedIndex idx = Attach(Require(args, "index"));
  const size_t fragments = CountFlag(args, "fragments", "1");
  if (fragments == 0) BadFlag("fragments", "0", "at least 1");

  const std::string cache_flag = GetOr(args, "cache", "on");
  cache::CacheConfig config;
  config.max_entries = CountFlag(args, "cache-entries", "4096");
  config.max_bytes =
      CountFlag(args, "cache-bytes", std::to_string(4u << 20).c_str());
  if (cache_flag != "on" && cache_flag != "off") {
    std::fprintf(stderr, "unknown --cache '%s' (on|off)\n", cache_flag.c_str());
    return 2;
  }

  // Heap-allocated: g++ 12 -O2 emits a -Wmaybe-uninitialized false positive
  // for the optional<SemanticCache> member when Server lives on the stack.
  std::unique_ptr<core::Server> server;
  std::unique_ptr<partition::PartitionedServer> sharded;
  core::WireService* service = nullptr;
  if (fragments > 1) {
    // Re-shard the attached index into K in-memory fragments: pull every
    // entry out of the on-disk tree and bulk-load one tree per fragment
    // behind the FragmentRouter. The on-disk file stays untouched.
    std::vector<rtree::DataEntry> entries;
    idx.tree->WindowQuery(idx.universe, &entries);
    partition::PartitionedServerOptions popt;
    popt.fragments = fragments;
    sharded = std::make_unique<partition::PartitionedServer>(
        std::move(entries), idx.universe, popt);
    if (cache_flag == "on") sharded->EnableCache(config);
    service = sharded.get();
  } else {
    server = std::make_unique<core::Server>(idx.tree.get(), idx.universe);
    if (cache_flag == "on") server->EnableCache(config);
    service = server.get();
  }

  const std::string push_flag = GetOr(args, "push", "on");
  if (push_flag != "on" && push_flag != "off") {
    std::fprintf(stderr, "unknown --push '%s' (on|off)\n", push_flag.c_str());
    return 2;
  }

  net::NetOptions options;
  options.port = PortFlag(args, "19537");
  net::NetServer serving(service, options);
  std::unique_ptr<push::PushScheduler> pusher;
  if (push_flag == "on") {
    push::PushConfig push_config;
    push_config.max_subscriptions = CountFlag(args, "push-subs", "1024");
    pusher = std::make_unique<push::PushScheduler>(service, push_config,
                                                   serving.mutable_stats());
    pusher->set_wake([&serving] { serving.Wake(); });
    serving.set_subscriptions(pusher.get());
  }
  if (const Status listening = serving.Listen(); !listening.ok()) {
    std::fprintf(stderr, "cannot listen: %s\n", listening.ToString().c_str());
    return 1;
  }
  g_serving = &serving;
  std::signal(SIGINT, HandleSigint);
  std::signal(SIGTERM, HandleSigint);

  std::printf("serving %zu points on 127.0.0.1:%u (cache %s, push %s, %zu "
              "fragment%s) — Ctrl-C to drain\n",
              idx.tree->size(), serving.port(), cache_flag.c_str(),
              push_flag.c_str(), fragments, fragments == 1 ? "" : "s");
  std::fflush(stdout);
  serving.Run();
  g_serving = nullptr;

  const net::NetStats& stats = serving.stats();
  std::printf("drained: %llu connections (%llu clean, %llu dropped), "
              "%llu frames in, %llu out, %llu bad requests, "
              "%llu protocol errors\n",
              static_cast<unsigned long long>(stats.accepts),
              static_cast<unsigned long long>(stats.clean_closes),
              static_cast<unsigned long long>(stats.drops),
              static_cast<unsigned long long>(stats.frames_in),
              static_cast<unsigned long long>(stats.frames_out),
              static_cast<unsigned long long>(stats.bad_requests),
              static_cast<unsigned long long>(stats.protocol_errors));
  if (pusher) {
    std::printf("push: %llu subscribes, %llu pushes (%llu corrective), "
                "%llu revokes, %llu closed with connection\n",
                static_cast<unsigned long long>(stats.subscribes_accepted),
                static_cast<unsigned long long>(stats.pushes_sent),
                static_cast<unsigned long long>(stats.pushes_corrective),
                static_cast<unsigned long long>(stats.pushes_revoked),
                static_cast<unsigned long long>(stats.subscriptions_closed));
  }
  if (sharded ? sharded->cache_enabled() : server->cache_enabled()) {
    const cache::CacheStats cache_stats =
        sharded ? sharded->cache_stats() : server->cache_stats();
    std::printf("cache: %llu lookups, %llu hits\n",
                static_cast<unsigned long long>(cache_stats.lookups),
                static_cast<unsigned long long>(cache_stats.hits));
  }
  if (sharded) {
    const core::ServiceInfo info = sharded->info();
    for (size_t f = 0; f < info.fragments.size(); ++f) {
      const core::FragmentStat& fs = info.fragments[f];
      std::printf("fragment %zu: %llu points, mbr [%g, %g] x [%g, %g], "
                  "%llu cache hits / %llu lookups\n",
                  f, static_cast<unsigned long long>(fs.points), fs.mbr.min_x,
                  fs.mbr.max_x, fs.mbr.min_y, fs.mbr.max_y,
                  static_cast<unsigned long long>(fs.cache_hits),
                  static_cast<unsigned long long>(fs.cache_lookups));
    }
  }
  return 0;
}

int CmdPing(const ArgMap& args) {
  const std::string host = GetOr(args, "host", "127.0.0.1");
  const uint16_t port = PortFlag(args);
  const size_t count = CountFlag(args, "count", "5");

  net::NetClient client;
  if (const Status connected = client.Connect(host, port); !connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 connected.ToString().c_str());
    return 1;
  }
  const auto info = client.Info();
  if (info.ok()) {
    std::printf("server: %llu points, universe [%g, %g] x [%g, %g], "
                "cache %s\n",
                static_cast<unsigned long long>(info->points),
                info->universe.min_x, info->universe.max_x,
                info->universe.min_y, info->universe.max_y,
                info->cache_enabled ? "on" : "off");
  }
  for (size_t i = 0; i < count; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const Status pong = client.Ping();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (!pong.ok()) {
      std::fprintf(stderr, "ping failed: %s\n", pong.ToString().c_str());
      return 1;
    }
    std::printf("pong %zu: %.3f ms\n", i,
                std::chrono::duration<double, std::milli>(elapsed).count());
  }
  return 0;
}

// One INFO round trip, pretty-printed. Against a partitioned server this
// shows the per-fragment breakdown (point count, MBR, cache hit rate)
// that the serve-side FragmentStat list carries over the wire.
int CmdInfo(const ArgMap& args) {
  const std::string host = GetOr(args, "host", "127.0.0.1");
  const uint16_t port = PortFlag(args);

  net::NetClient client;
  if (const Status connected = client.Connect(host, port); !connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 connected.ToString().c_str());
    return 1;
  }
  const auto info = client.Info();
  if (!info.ok()) {
    std::fprintf(stderr, "info failed: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  std::printf("server: %llu points, universe [%g, %g] x [%g, %g], "
              "cache %s, %zu fragment%s\n",
              static_cast<unsigned long long>(info->points),
              info->universe.min_x, info->universe.max_x,
              info->universe.min_y, info->universe.max_y,
              info->cache_enabled ? "on" : "off",
              info->fragments.empty() ? 1 : info->fragments.size(),
              info->fragments.size() > 1 ? "s" : "");
  for (size_t f = 0; f < info->fragments.size(); ++f) {
    const core::FragmentStat& frag = info->fragments[f];
    const double rate =
        frag.cache_lookups == 0
            ? 0.0
            : static_cast<double>(frag.cache_hits) /
                  static_cast<double>(frag.cache_lookups);
    std::printf("fragment %zu: %llu points, mbr [%g, %g] x [%g, %g], "
                "cache %llu/%llu hits (%.1f%%)\n",
                f, static_cast<unsigned long long>(frag.points),
                frag.mbr.min_x, frag.mbr.max_x, frag.mbr.min_y,
                frag.mbr.max_y,
                static_cast<unsigned long long>(frag.cache_hits),
                static_cast<unsigned long long>(frag.cache_lookups),
                100.0 * rate);
  }
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: lbsq_cli "
               "<generate|build|stats|scrub|nn|window|range|serve|ping|info> "
               "[--flag value ...]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  const ArgMap args = ParseArgs(argc, argv, 2);
  if (command == "generate") return CmdGenerate(args);
  if (command == "build") return CmdBuild(args);
  if (command == "stats") return CmdStats(args);
  if (command == "scrub") return CmdScrub(args);
  if (command == "nn") return CmdNn(args);
  if (command == "window") return CmdWindow(args);
  if (command == "range") return CmdRange(args);
  if (command == "serve") return CmdServe(args);
  if (command == "ping") return CmdPing(args);
  if (command == "info") return CmdInfo(args);
  Usage();
  return 2;
}
