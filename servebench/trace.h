#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

// In-memory spans of a traced run, written once at the end in the Chrome
// trace-event format (a JSON object with a "traceEvents" array of complete
// "X" events), which summarize.py and standard trace viewers read.
//
// Spans are recorded by the benchmark around its calls into each layer,
// never inside the program. Each recording thread owns one SpanStore, so
// recording takes no lock. A store has a fixed capacity reserved up front;
// spans past it are counted as dropped, not stored, so a faster program
// cannot grow the benchmark's memory.

namespace lbsq::servebench {

using Clock = std::chrono::steady_clock;

// Span names. The op id ties spans of one request together: `client`
// (send to reply, client thread), `service.*` or `push.query` (the
// wrapped WireService call, loop thread), `partition.update` (an update
// applied just before the op it precedes), and the post-run `probe.*`
// re-timings of miss ops on a fresh replica.
enum class SpanName : uint8_t {
  kClient,
  kServiceNn1,
  kServiceNn10,
  kServiceWindow,
  kServiceRange,
  kPushQuery,
  kPartitionUpdate,
  kProbeEngineNn1,
  kProbeEngineNn10,
  kProbeEngineWindow,
  kProbeEngineRange,
  kProbeEncodeNn1,
  kProbeEncodeNn10,
  kProbeEncodeWindow,
  kProbeEncodeRange,
};

const char* SpanNameString(SpanName name);

struct Span {
  Clock::time_point start;
  Clock::time_point end;
  uint32_t op = 0;
  SpanName name = SpanName::kClient;
  bool hit = false;  // service spans: answered from the semantic cache
};

class SpanStore {
 public:
  explicit SpanStore(size_t capacity) { spans_.reserve(capacity); }

  void Record(SpanName name, uint32_t op, Clock::time_point start,
              Clock::time_point end, bool hit = false) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{start, end, op, name, hit});
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// Writes every store's spans (thread id = the pair's first member) with
// timestamps relative to `origin`; `other_data` is a JSON object embedded
// verbatim as "otherData". Returns false when the file cannot be written.
bool WriteChromeTrace(
    const std::string& path, Clock::time_point origin,
    const std::vector<std::pair<int, const SpanStore*>>& stores,
    const std::string& other_data);

}  // namespace lbsq::servebench

#endif  // SERVEBENCH_TRACE_H_
