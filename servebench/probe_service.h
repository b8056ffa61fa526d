#ifndef SERVEBENCH_PROBE_SERVICE_H_
#define SERVEBENCH_PROBE_SERVICE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/server.h"
#include "core/wire_service.h"
#include "net/net_stats.h"
#include "partition/partitioned_server.h"
#include "push/push_scheduler.h"
#include "rtree/rtree.h"
#include "trace.h"
#include "workloads.h"

// The benchmark's WireService wrapper, installed between NetServer (and
// PushScheduler) and the real service. It runs on the serving loop thread
// and does three things around each forwarded call:
//   * applies the updates that precede the request in the stream
//     (PartitionedServer::Insert/Delete), so updates land at fixed
//     stream positions whatever the pipelining;
//   * reads the program's public per-request and cumulative counters;
//   * with tracing on, records a span per call and per update.
// FIFO replies on one connection make the k-th call the k-th request.

namespace lbsq::servebench {

// Cumulative counters read from the program's public surfaces plus the
// wrapper's own per-request sums. Differences of two snapshots are the
// exact counts of the ops in between.
enum Counter : size_t {
  kCalls,
  kCallsNn1,
  kCallsNn10,
  kCallsWindow,
  kCallsRange,
  kCallsPush,
  kMissesNn1,
  kMissesNn10,
  kMissesWindow,
  kMissesRange,
  kMissesPush,
  kReplyBytes,
  // cache::CacheStats (summed over every cache of the service)
  kCacheLookups,
  kCacheHits,
  kCacheInserts,
  kCacheEvictions,
  kCacheKilled,
  kCacheEpochInvalidations,
  kCacheStaleDrops,
  kCacheRejected,
  // core engines, read after each miss (core::Server only)
  kNnTpnn,
  kNnConfirming,
  kNnNodeAccesses,
  kNnTpnnNodeAccesses,
  kNnPageAccesses,
  kWindowNodeAccesses,
  kWindowPageAccesses,
  kWindowOuter,
  kRangeNodeAccesses,
  kRangeOuter,
  // storage: the buffer pool of the single tree (core::Server only)
  kBufferHits,
  kBufferMisses,
  // partition: router and cache placement (PartitionedServer only)
  kRouterNodeAccesses,
  kRouterPageAccesses,
  kFanoutQueries,
  kFanoutFragments,
  kOwnerInserts,
  kBoundaryInserts,
  kOwnerKills,
  kBoundaryKills,
  kInsertsApplied,
  kDeletesApplied,
  // serving-layer failures
  kQueryErrors,
  kQueryRetries,
  // net::NetStats
  kFramesOut,
  kWritevCalls,
  kBytesOut,
  kBytesCopied,
  kNetQueryErrors,
  kBadRequests,
  kPushesSent,
  // push::PushScheduler
  kPushQueries,
  kPushCacheHits,
  // span sums (tracing only)
  kServiceNs,
  kUpdateNs,
  kNumCounters,
};

using Counters = std::array<uint64_t, kNumCounters>;

Counters Diff(const Counters& later, const Counters& earlier);
std::string CountersJson(const Counters& c);

class ProbeService final : public core::WireService {
 public:
  // Exactly one of `server` (with its tree) or `partitioned` is set.
  ProbeService(core::Server* server, rtree::RTree* tree);
  explicit ProbeService(partition::PartitionedServer* partitioned);

  ProbeService(const ProbeService&) = delete;
  ProbeService& operator=(const ProbeService&) = delete;

  // Wiring, before the loop runs.
  void set_updates(const Stream* stream) { stream_ = stream; }
  void set_net_stats(const net::NetStats* stats) { net_stats_ = stats; }
  void set_push(const push::PushScheduler* push) { push_ = push; }
  // Push mode: every call is a scheduler query (span `push.query`).
  void set_push_mode(bool on) { push_mode_ = on; }
  // Tracing: spans go to `store`; miss op ids (up to `probe_limit` per
  // kind) are kept for the post-run engine/encode probe.
  void set_trace(SpanStore* store, size_t probe_limit) {
    spans_ = store;
    probe_limit_ = probe_limit;
  }

  // Thread-safe: the next call snapshots the counters before doing
  // anything (the client requests it with no request outstanding, so the
  // snapshot covers exactly the ops before it).
  void RequestCheckpoint() {
    checkpoint_requested_.store(true, std::memory_order_release);
  }

  // Loop thread, or after the loop has been joined.
  Counters Read() const;
  const std::optional<Counters>& checkpoint() const { return checkpoint_; }
  uint64_t checkpoint_call() const { return checkpoint_call_; }
  // Miss op ids per kind for the probe (tracing only).
  const std::vector<uint32_t>& probe_ops(QueryKind kind) const {
    return probe_ops_[static_cast<size_t>(kind)];
  }

  // core::WireService
  const geo::Rect& universe() const override {
    return inner_->universe();
  }
  [[nodiscard]] StatusOr<WireBytes> NnQueryWireShared(
      const geo::Point& q, size_t k) override;
  [[nodiscard]] StatusOr<WireBytes> WindowQueryWireShared(
      const geo::Point& focus, double hx, double hy) override;
  [[nodiscard]] StatusOr<WireBytes> RangeQueryWireShared(
      const geo::Point& focus, double radius) override;
  bool last_wire_from_cache() const override {
    return inner_->last_wire_from_cache();
  }
  core::ServiceInfo info() const override { return inner_->info(); }

 private:
  // Checkpoint and stream updates due before call number calls_.
  void BeforeCall();
  // Counts, engine stats and the span of the finished call.
  void AfterCall(QueryKind kind, Clock::time_point start,
                 const StatusOr<WireBytes>& answer);

  core::WireService* inner_;
  core::Server* server_ = nullptr;
  rtree::RTree* tree_ = nullptr;
  partition::PartitionedServer* partitioned_ = nullptr;
  const Stream* stream_ = nullptr;
  const net::NetStats* net_stats_ = nullptr;
  const push::PushScheduler* push_ = nullptr;
  bool push_mode_ = false;
  SpanStore* spans_ = nullptr;
  size_t probe_limit_ = 0;

  std::atomic<bool> checkpoint_requested_{false};
  std::optional<Counters> checkpoint_;
  uint64_t checkpoint_call_ = 0;

  Counters own_{};  // the wrapper's own sums (calls, engine stats, spans)
  std::array<std::vector<uint32_t>, kNumQueryKinds> probe_ops_;
};

}  // namespace lbsq::servebench

#endif  // SERVEBENCH_PROBE_SERVICE_H_
