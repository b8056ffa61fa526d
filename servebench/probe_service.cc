#include "probe_service.h"

#include <cinttypes>
#include <cstdio>
#include <iterator>

namespace lbsq::servebench {


namespace {

constexpr const char* kCounterNames[] = {
    "calls",
    "calls.nn1",
    "calls.nn10",
    "calls.window",
    "calls.range",
    "calls.push",
    "misses.nn1",
    "misses.nn10",
    "misses.window",
    "misses.range",
    "misses.push",
    "reply_bytes",
    "cache.lookups",
    "cache.hits",
    "cache.inserts",
    "cache.evictions",
    "cache.killed_by_update",
    "cache.epoch_invalidations",
    "cache.stale_drops",
    "cache.rejected",
    "nn.tpnn_queries",
    "nn.confirming_queries",
    "nn.node_accesses",
    "nn.tpnn_node_accesses",
    "nn.page_accesses",
    "window.node_accesses",
    "window.page_accesses",
    "window.outer_candidates",
    "range.node_accesses",
    "range.outer_candidates",
    "buffer.hits",
    "buffer.misses",
    "router.node_accesses",
    "router.page_accesses",
    "router.fanout_queries",
    "router.fanout_fragments",
    "partition.owner_inserts",
    "partition.boundary_inserts",
    "partition.owner_kills",
    "partition.boundary_kills",
    "updates.inserts",
    "updates.deletes",
    "service.query_errors",
    "service.query_retries",
    "net.frames_out",
    "net.writev_calls",
    "net.bytes_out",
    "net.bytes_copied",
    "net.query_errors",
    "net.bad_requests",
    "net.pushes_sent",
    "push.queries",
    "push.cache_hits",
    "span.service_ns",
    "span.update_ns",
};
static_assert(std::size(kCounterNames) == kNumCounters);

SpanName ServiceSpan(QueryKind kind) {
  switch (kind) {
    case QueryKind::kNn1:
      return SpanName::kServiceNn1;
    case QueryKind::kNn10:
      return SpanName::kServiceNn10;
    case QueryKind::kWindow:
      return SpanName::kServiceWindow;
    case QueryKind::kRange:
      return SpanName::kServiceRange;
    case QueryKind::kPush:
      return SpanName::kPushQuery;
  }
  return SpanName::kPushQuery;
}

}  // namespace

Counters Diff(const Counters& later, const Counters& earlier) {
  Counters out{};
  for (size_t i = 0; i < kNumCounters; ++i) out[i] = later[i] - earlier[i];
  return out;
}

std::string CountersJson(const Counters& c) {
  std::string out = "{";
  char buf[96];
  for (size_t i = 0; i < kNumCounters; ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, i == 0 ? "" : ",",
                  kCounterNames[i], c[i]);
    out += buf;
  }
  return out + "}";
}

ProbeService::ProbeService(core::Server* server,
                           rtree::RTree* tree)
    : inner_(server), server_(server), tree_(tree) {}

ProbeService::ProbeService(partition::PartitionedServer* partitioned)
    : inner_(partitioned), partitioned_(partitioned) {}

Counters ProbeService::Read() const {
  Counters c = own_;
  const cache::CacheStats cache =
      server_ != nullptr ? server_->cache_stats() : partitioned_->cache_stats();
  c[kCacheLookups] = cache.lookups;
  c[kCacheHits] = cache.hits;
  c[kCacheInserts] = cache.inserts;
  c[kCacheEvictions] = cache.evictions;
  c[kCacheKilled] = cache.entries_invalidated_by_update;
  c[kCacheEpochInvalidations] = cache.epoch_invalidations;
  c[kCacheStaleDrops] = cache.stale_drops;
  c[kCacheRejected] = cache.rejected;
  if (server_ != nullptr) {
    c[kBufferHits] = tree_->buffer().hits();
    c[kBufferMisses] = tree_->buffer().misses();
    c[kQueryErrors] = server_->query_errors();
    c[kQueryRetries] = server_->query_retries();
  } else {
    partition::FragmentRouter& router = partitioned_->router();
    c[kRouterNodeAccesses] = router.node_accesses();
    c[kRouterPageAccesses] = router.page_accesses();
    c[kFanoutQueries] = router.fanout_queries();
    c[kFanoutFragments] = router.fanout_fragments();
    c[kOwnerInserts] = partitioned_->owner_cache_inserts();
    c[kBoundaryInserts] = partitioned_->boundary_cache_inserts();
    c[kOwnerKills] = partitioned_->owner_cache_kills();
    c[kBoundaryKills] = partitioned_->boundary_cache_kills();
    c[kQueryErrors] = partitioned_->query_errors();
    c[kQueryRetries] = partitioned_->query_retries();
  }
  if (net_stats_ != nullptr) {
    c[kFramesOut] = net_stats_->frames_out;
    c[kWritevCalls] = net_stats_->writev_calls;
    c[kBytesOut] = net_stats_->bytes_out;
    c[kBytesCopied] = net_stats_->bytes_copied;
    c[kNetQueryErrors] = net_stats_->query_errors;
    c[kBadRequests] = net_stats_->bad_requests;
    c[kPushesSent] = net_stats_->pushes_sent;
  }
  if (push_ != nullptr) {
    c[kPushQueries] = push_->push_queries();
    c[kPushCacheHits] = push_->push_cache_hits();
  }
  return c;
}

void ProbeService::BeforeCall() {
  const uint64_t call = own_[kCalls];
  if (!checkpoint_ &&
      checkpoint_requested_.load(std::memory_order_acquire)) {
    checkpoint_ = Read();
    checkpoint_call_ = call;
  }
  if (stream_ == nullptr || call >= stream_->ops.size()) return;
  for (uint32_t u = stream_->update_begin[call];
       u < stream_->update_begin[call + 1]; ++u) {
    const Update& up = stream_->updates[u];
    const Clock::time_point start =
        spans_ != nullptr ? Clock::now() : Clock::time_point{};
    if (up.insert) {
      partitioned_->Insert(up.point, up.id);
      ++own_[kInsertsApplied];
    } else {
      // Every generated delete names a live object, so a false return
      // is a program fault; the stream check in main counts it.
      if (partitioned_->Delete(up.point, up.id)) ++own_[kDeletesApplied];
    }
    if (spans_ != nullptr) {
      const Clock::time_point end = Clock::now();
      own_[kUpdateNs] += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
              .count());
      spans_->Record(SpanName::kPartitionUpdate, static_cast<uint32_t>(call),
                     start, end);
    }
  }
}

void ProbeService::AfterCall(QueryKind kind, Clock::time_point start,
                             const StatusOr<WireBytes>& answer) {
  const uint64_t call = own_[kCalls]++;
  const size_t k = static_cast<size_t>(kind);
  ++own_[kCallsNn1 + k];
  const bool hit = answer.ok() && inner_->last_wire_from_cache();
  if (answer.ok()) own_[kReplyBytes] += (*answer)->size();
  if (!hit) {
    ++own_[kMissesNn1 + k];
    if (server_ != nullptr && answer.ok()) {
      if (kind == QueryKind::kWindow) {
        const auto& s = server_->window_engine().stats();
        own_[kWindowNodeAccesses] +=
            s.result_node_accesses + s.influence_node_accesses;
        own_[kWindowPageAccesses] +=
            s.result_page_accesses + s.influence_page_accesses;
        own_[kWindowOuter] += s.outer_candidates;
      } else if (kind == QueryKind::kRange) {
        const auto& s = server_->range_engine().stats();
        own_[kRangeNodeAccesses] +=
            s.result_node_accesses + s.influence_node_accesses;
        own_[kRangeOuter] += s.outer_candidates;
      } else {
        const auto& s = server_->nn_engine().stats();
        own_[kNnTpnn] += s.tpnn_queries;
        own_[kNnConfirming] += s.confirming_queries;
        own_[kNnNodeAccesses] += s.nn_node_accesses + s.tpnn_node_accesses;
        own_[kNnTpnnNodeAccesses] += s.tpnn_node_accesses;
        own_[kNnPageAccesses] += s.nn_page_accesses + s.tpnn_page_accesses;
      }
    }
    if (spans_ != nullptr && probe_ops_[k].size() < probe_limit_) {
      probe_ops_[k].push_back(static_cast<uint32_t>(call));
    }
  }
  if (spans_ != nullptr) {
    const Clock::time_point end = Clock::now();
    own_[kServiceNs] += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
    spans_->Record(ServiceSpan(kind), static_cast<uint32_t>(call), start, end,
                   hit);
  }
}

StatusOr<ProbeService::WireBytes> ProbeService::NnQueryWireShared(
    const geo::Point& q, size_t k) {
  BeforeCall();
  const Clock::time_point start =
      spans_ != nullptr ? Clock::now() : Clock::time_point{};
  StatusOr<WireBytes> answer = inner_->NnQueryWireShared(q, k);
  AfterCall(push_mode_ ? QueryKind::kPush
                       : (k == 1 ? QueryKind::kNn1 : QueryKind::kNn10),
            start, answer);
  return answer;
}

StatusOr<ProbeService::WireBytes> ProbeService::WindowQueryWireShared(
    const geo::Point& focus, double hx, double hy) {
  BeforeCall();
  const Clock::time_point start =
      spans_ != nullptr ? Clock::now() : Clock::time_point{};
  StatusOr<WireBytes> answer = inner_->WindowQueryWireShared(focus, hx, hy);
  AfterCall(push_mode_ ? QueryKind::kPush : QueryKind::kWindow, start, answer);
  return answer;
}

StatusOr<ProbeService::WireBytes> ProbeService::RangeQueryWireShared(
    const geo::Point& focus, double radius) {
  BeforeCall();
  const Clock::time_point start =
      spans_ != nullptr ? Clock::now() : Clock::time_point{};
  StatusOr<WireBytes> answer = inner_->RangeQueryWireShared(focus, radius);
  AfterCall(push_mode_ ? QueryKind::kPush : QueryKind::kRange, start, answer);
  return answer;
}

}  // namespace lbsq::servebench
