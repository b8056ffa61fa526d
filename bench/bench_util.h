#ifndef LBSQ_BENCH_BENCH_UTIL_H_
#define LBSQ_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.h"
#include "geometry/point.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"
#include "workload/datasets.h"
#include "workload/queries.h"

// Shared plumbing for the figure-reproduction benchmarks (bench/fig*.cc).
// Each benchmark binary regenerates one figure of the paper's Section 6
// and prints the same series as an aligned table.
//
// Environment knobs:
//   LBSQ_QUERIES  - queries per workload       (default 500, the paper's)
//   LBSQ_SCALE    - multiplies dataset sizes   (default 1.0; use e.g. 0.1
//                   for a quick smoke pass)

namespace lbsq::bench {

// A positive integer knob from the environment: `fallback` when unset,
// and also, with a warning on stderr, when set to anything but a
// positive decimal count (common/parse.h).
inline size_t EnvCount(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::optional<uint64_t> v = ParseCount(env);
  if (v.has_value() && *v > 0) return *v;
  std::fprintf(stderr, "warning: %s='%s' is not a positive count; using %zu\n",
               name, env, fallback);
  return fallback;
}

// The same for a positive real knob (finite, > 0).
inline double EnvPositive(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::optional<double> v = ParseFinite(env);
  if (v.has_value() && *v > 0.0) return *v;
  std::fprintf(stderr,
               "warning: %s='%s' is not a positive finite number; using %g\n",
               name, env, fallback);
  return fallback;
}

// Read once per process, so a bad value warns once.
inline size_t NumQueries() {
  static const size_t queries = EnvCount("LBSQ_QUERIES", 500);
  return queries;
}

inline double Scale() {
  static const double scale = EnvPositive("LBSQ_SCALE", 1.0);
  return scale;
}

inline size_t Scaled(size_t n) {
  const double scaled = static_cast<double>(n) * Scale();
  if (scaled < 16.0) return 16;
  // Converting a double at or past 2^64 to size_t is undefined; a size
  // that large fails at allocation instead.
  if (scaled >= 0x1p64) return std::numeric_limits<size_t>::max();
  return static_cast<size_t>(scaled);
}

// A dataset bulk-loaded into an R*-tree on a fresh simulated disk, with
// the LRU buffer sized as a fraction of the tree (0 = unbuffered) and all
// access counters reset.
struct Workbench {
  workload::Dataset dataset;
  std::unique_ptr<storage::PageManager> disk;
  std::unique_ptr<rtree::RTree> tree;
};

inline Workbench MakeBench(workload::Dataset dataset,
                           double buffer_fraction) {
  Workbench bench;
  bench.dataset = std::move(dataset);
  bench.disk = std::make_unique<storage::PageManager>();
  bench.tree = std::make_unique<rtree::RTree>(bench.disk.get(), 0);
  bench.tree->BulkLoad(bench.dataset.entries);
  if (buffer_fraction > 0.0) {
    bench.tree->SetBufferFraction(buffer_fraction);
  }
  bench.tree->buffer().ResetCounters();
  bench.disk->ResetCounters();
  return bench;
}

inline Workbench MakeUniformBench(size_t n, double buffer_fraction,
                                  uint64_t seed = 4242) {
  return MakeBench(workload::MakeUnitUniform(n, seed), buffer_fraction);
}

// Query locations distributed like the data (Section 6's workloads). The
// jitter is kept small relative to the universe so that queries land in
// populated areas even on the line-clustered GR stand-in — the paper's
// queries are drawn from the data distribution itself.
inline std::vector<geo::Point> QueryWorkload(const Workbench& bench,
                                             uint64_t seed = 9001) {
  return workload::MakeDataDistributedQueries(bench.dataset, NumQueries(),
                                              seed, /*jitter=*/0.001);
}

// Machine-readable artifacts: each bench binary writes its "BENCH"
// JSON object to BENCH_<name>.json as well as printing it, so the perf
// trajectory is tracked across PRs as files instead of living only in
// commit messages. LBSQ_BENCH_DIR picks the directory (default: the
// current one); check.sh's bench-smoke stage validates the files parse.
inline std::string BenchArtifactPath(const std::string& name) {
  std::string dir = ".";
  if (const char* env = std::getenv("LBSQ_BENCH_DIR"); env && *env) {
    dir = env;
  }
  return dir + "/BENCH_" + name + ".json";
}

inline void WriteBenchArtifact(const std::string& name,
                               const std::string& json_object) {
  const std::string path = BenchArtifactPath(name);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs(json_object.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

// Pretty-printers for the table output.
inline void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline std::string FormatCount(size_t n) {
  char buf[32];
  if (n % 1000000 == 0 && n >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%zuM", n / 1000000);
  } else if (n % 1000 == 0 && n >= 1000) {
    std::snprintf(buf, sizeof(buf), "%zuk", n / 1000);
  } else {
    std::snprintf(buf, sizeof(buf), "%zu", n);
  }
  return buf;
}

}  // namespace lbsq::bench

#endif  // LBSQ_BENCH_BENCH_UTIL_H_
