// servebench: one workload of the serving benchmark through the real
// stack — a loopback NetServer on its own thread, the core::WireService
// (core::Server or partition::PartitionedServer) behind the benchmark's
// ProbeService wrapper, the semantic cache, the validity engines and the
// R-tree/buffer pool — driven by one client on one connection (this
// thread). run.py builds and runs it; it prints one `REPORT {json}` line
// with timings, exact counts and host diagnostics.
//
//   servebench --workload hot_hits|cold_miss|churn_k4|push_walk --seed N
//              --seconds S [--trace-out FILE] [--small]
//
// Determinism: every input comes from the seed; one connection returns
// replies in request order; stream updates are applied by the wrapper at
// fixed positions; the push walk runs on the scheduler's virtual clock.
// Counts and the reply digest are taken over a fixed checkpoint prefix
// that every run completes, so they repeat exactly; only wall-clock
// numbers vary. With --trace-out the run records spans (see trace.h) and
// re-times miss ops on a fresh replica afterwards.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/semantic_cache.h"
#include "common/rng.h"
#include "core/server.h"
#include "core/wire_format.h"
#include "net/frame.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "partition/partitioned_server.h"
#include "probe_service.h"
#include "push/predictor.h"
#include "push/push_scheduler.h"
#include "reference.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"
#include "trace.h"
#include "workloads.h"

namespace lbsq::servebench {
namespace {

constexpr uint32_t kPushNeighbors = 8;
constexpr size_t kMaxCrossingsPerLeg = 12;
// Trajectory seconds between a push and its crossing. Just above the
// client's 1e-6 pre-crossing stop, so the next region's push is computed
// after the previous crossing was adopted, inside the sample that waits
// for it: each push-walk latency sample covers the scheduler's query.
constexpr double kPushLead = 1e-5;
// Latency samples kept per window of the timed phase (a uniform
// reservoir once a window has more), and window slots: twice the planned
// windows, so an overrunning phase still fits. Fixed and preallocated.
constexpr size_t kSamplesPerWindow = 1u << 16;
constexpr size_t kWindowSlots = 40;
constexpr size_t kSpanCapacity = 100000;         // per recording thread
constexpr size_t kProbeOpsPerKind = 200;
// The timed phase is cut into this many windows; timing metrics come from
// the fastest quarter of them (see FastWindows).
constexpr double kWindows = 20.0;

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  std::exit(2);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// -- Host diagnostics ---------------------------------------------------------

struct CpuStat {
  uint64_t steal = 0;
  uint64_t total = 0;
};

// The /proc/stat line of one CPU: user nice system idle iowait irq
// softirq steal (guest time is already inside user).
CpuStat ReadCpuStat(int cpu) {
  CpuStat out;
  std::ifstream f("/proc/stat");
  const std::string want = "cpu" + std::to_string(cpu);
  std::string line;
  while (std::getline(f, line)) {
    if (line.compare(0, want.size() + 1, want + " ") != 0) continue;
    std::istringstream fields(line.substr(want.size()));
    for (int i = 0; i < 8; ++i) {
      uint64_t v = 0;
      if (!(fields >> v)) break;
      out.total += v;
      if (i == 7) out.steal = v;
    }
    break;
  }
  return out;
}

double StealShare(const CpuStat& before, const CpuStat& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

// Where the threads run. The client and the serving loop share one CPU,
// the highest-numbered the process may use (away from CPU 0's interrupt
// load): they hand it to each other instead of waking a halted vCPU for
// every reply, a wake-up whose delay swings with the host's load far more
// than the work measured. The verifier runs on the other CPUs.
struct CpuPlan {
  int serving = -1;
  cpu_set_t others;
};

// Pins the calling thread, and so every thread it creates later, to the
// serving CPU.
CpuPlan PinServingCpu() {
  CpuPlan plan;
  CPU_ZERO(&plan.others);
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return plan;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (plan.serving < 0) {
      plan.serving = cpu;
    } else {
      CPU_SET(cpu, &plan.others);
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  if (plan.serving >= 0) CPU_SET(plan.serving, &one);
  if (plan.serving < 0 || sched_setaffinity(0, sizeof(one), &one) != 0) {
    plan.serving = -1;
  }
  return plan;
}

double ClockSeconds(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -- Small JSON writer --------------------------------------------------------

class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  Json& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// -- Reply digest -------------------------------------------------------------

class Digest {
 public:
  void Add(uint8_t type, const std::vector<uint8_t>& payload) {
    Byte(type);
    const uint64_t n = payload.size();
    for (int s = 0; s < 64; s += 8) Byte(static_cast<uint8_t>(n >> s));
    for (const uint8_t b : payload) Byte(b);
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// -- The serving stack --------------------------------------------------------

struct Stack {
  std::unique_ptr<storage::PageManager> disk;
  std::unique_ptr<rtree::RTree> tree;
  std::unique_ptr<core::Server> server;
  std::unique_ptr<partition::PartitionedServer> partitioned;

  core::WireService* service() const {
    if (server) return server.get();
    return partitioned.get();
  }
};

StatusOr<core::WireService::WireBytes> Serve(core::WireService* service,
                                            const RequestOp& op) {
  switch (op.kind) {
    case QueryKind::kNn1:
      return service->NnQueryWireShared(op.point, 1);
    case QueryKind::kNn10:
      return service->NnQueryWireShared(op.point, 10);
    case QueryKind::kWindow:
      return service->WindowQueryWireShared(op.point, kWindowHx, kWindowHy);
    case QueryKind::kRange:
      return service->RangeQueryWireShared(op.point, kRangeRadius);
    case QueryKind::kPush:
      break;
  }
  return Status::InvalidArgument("not a request kind");
}

std::unique_ptr<rtree::RTree> LoadTree(const Inputs& in,
                                       storage::PageManager* disk) {
  auto tree = std::make_unique<rtree::RTree>(disk, 0);
  tree->BulkLoad(in.dataset.entries);
  if (in.shape.buffer_fraction > 0.0) {
    tree->SetBufferFraction(in.shape.buffer_fraction);
  }
  return tree;
}

// Index bulk load, server and cache, then the untimed warm-up: exactly
// what setup_s measures.
std::unique_ptr<Stack> BuildStack(const Inputs& in) {
  auto stack = std::make_unique<Stack>();
  const geo::Rect& universe = in.dataset.universe;
  cache::CacheConfig cache_config;  // 4,096 entries / 4 MiB
  if (in.id == WorkloadId::kHotHits) {
    // Above the working set: the replayed stream must all hit.
    cache_config.max_entries = 1u << 20;
    cache_config.max_bytes = size_t{1} << 30;
  }
  if (in.id == WorkloadId::kChurnK4) {
    partition::PartitionedServerOptions options;
    options.fragments = 4;
    stack->partitioned = std::make_unique<partition::PartitionedServer>(
        in.dataset.entries, universe, options);
    stack->partitioned->EnableCache(cache_config);
  } else {
    stack->disk = std::make_unique<storage::PageManager>();
    stack->tree = LoadTree(in, stack->disk.get());
    stack->server = std::make_unique<core::Server>(stack->tree.get(), universe);
    stack->server->EnableCache(cache_config);
  }
  const Stream& warm = in.warm;
  for (size_t i = 0; i < warm.ops.size(); ++i) {
    for (uint32_t u = warm.update_begin[i]; u < warm.update_begin[i + 1]; ++u) {
      const Update& up = warm.updates[u];
      if (up.insert) {
        stack->partitioned->Insert(up.point, up.id);
      } else if (!stack->partitioned->Delete(up.point, up.id)) {
        Fatal("warm-up delete found no object");
      }
    }
    if (!Serve(stack->service(), warm.ops[i]).ok()) {
      Fatal("warm-up query failed");
    }
  }
  return stack;
}

// -- Reply verification -------------------------------------------------------

struct Failures {
  uint64_t error_frame = 0;  // kError reply
  uint64_t undecodable = 0;  // wrong frame type or payload does not decode
  uint64_t invalid = 0;      // region fails IsValidAt at the request point
  uint64_t mismatch = 0;     // answer differs from the reference
  uint64_t transport = 0;    // dropped connection / lost replies
  uint64_t gap = 0;          // push walk: crossing without the push in hand
  uint64_t revoked = 0;      // push walk: unexpected kRevoke on static data

  uint64_t total() const {
    return error_frame + undecodable + invalid + mismatch + transport + gap +
           revoked;
  }
  Failures& operator+=(const Failures& o) {
    error_frame += o.error_frame;
    undecodable += o.undecodable;
    invalid += o.invalid;
    mismatch += o.mismatch;
    transport += o.transport;
    gap += o.gap;
    revoked += o.revoked;
    return *this;
  }
  std::string ToJson() const {
    return Json()
        .Int("error_frame", error_frame)
        .Int("undecodable", undecodable)
        .Int("invalid", invalid)
        .Int("mismatch", mismatch)
        .Int("transport", transport)
        .Int("gap", gap)
        .Int("revoked", revoked)
        .str();
  }
};

std::vector<rtree::ObjectId> Ids(const std::vector<rtree::DataEntry>& entries) {
  std::vector<rtree::ObjectId> ids;
  ids.reserve(entries.size());
  for (const rtree::DataEntry& e : entries) ids.push_back(e.id);
  return ids;
}

std::vector<rtree::ObjectId> Ids(const std::vector<rtree::Neighbor>& nbrs) {
  std::vector<rtree::ObjectId> ids;
  ids.reserve(nbrs.size());
  for (const rtree::Neighbor& n : nbrs) ids.push_back(n.entry.id);
  return ids;
}

// A decoded answer must be valid at its request point and hold exactly
// the reference objects.
template <typename Result>
bool CheckDecoded(const Result& decoded, const RequestOp& op,
                  std::vector<rtree::ObjectId> ids, Failures* failures) {
  if (!decoded.IsValidAt(op.point)) {
    ++failures->invalid;
    return false;
  }
  if (IdSetHash(std::move(ids)) != op.ref_hash) {
    ++failures->mismatch;
    return false;
  }
  return true;
}

bool CheckAnswer(const RequestOp& op, const std::vector<uint8_t>& payload,
                 Failures* failures) {
  switch (op.kind) {
    case QueryKind::kNn1:
    case QueryKind::kNn10: {
      StatusOr<core::NnValidityResult> d = core::wire::DecodeNnResult(payload);
      if (!d.ok()) break;
      return CheckDecoded(*d, op, Ids(d->answers()), failures);
    }
    case QueryKind::kWindow: {
      StatusOr<core::WindowValidityResult> d =
          core::wire::DecodeWindowResult(payload);
      if (!d.ok()) break;
      return CheckDecoded(*d, op, Ids(d->result()), failures);
    }
    case QueryKind::kRange: {
      StatusOr<core::RangeValidityResult> d =
          core::wire::DecodeRangeResult(payload);
      if (!d.ok()) break;
      return CheckDecoded(*d, op, Ids(d->result()), failures);
    }
    case QueryKind::kPush:
      break;
  }
  ++failures->undecodable;
  return false;
}

// Time for the ray pos + t * vel to leave the universe.
double UniverseExitTime(const geo::Rect& u, const geo::Point& pos,
                        const geo::Vec2& vel) {
  double t = 1e300;
  if (vel.dx > 0) t = std::min(t, (u.max_x - pos.x) / vel.dx);
  if (vel.dx < 0) t = std::min(t, (u.min_x - pos.x) / vel.dx);
  if (vel.dy > 0) t = std::min(t, (u.max_y - pos.y) / vel.dy);
  if (vel.dy < 0) t = std::min(t, (u.min_y - pos.y) / vel.dy);
  return t;
}

// How far a client moving away from the request point covers before it
// leaves the answer's validity region (or the universe), in universe
// units: a pull client crossing the point needs one round trip per such
// distance. Directions follow the golden angle by stream position, so
// every region is crossed along a different, seed-independent direction.
double ExitDistance(const RequestOp& op, const geo::Rect& universe,
                    const std::vector<uint8_t>& payload, uint64_t index) {
  const double angle = 2.399963229728653 * static_cast<double>(index);
  const geo::Vec2 dir{std::cos(angle), std::sin(angle)};
  net::SubscribeRequest query{net::SubscribeKind::kNn, op.point, dir, 1,
                              0.0, 0.0, 0.0};
  if (op.kind == QueryKind::kNn10) query.k = 10;
  if (op.kind == QueryKind::kWindow) {
    query.kind = net::SubscribeKind::kWindow;
    query.hx = kWindowHx;
    query.hy = kWindowHy;
  }
  if (op.kind == QueryKind::kRange) {
    query.kind = net::SubscribeKind::kRange;
    query.radius = kRangeRadius;
  }
  const push::AnswerAnalysis a =
      push::AnalyzeAnswer(query, universe, payload, op.point, dir);
  if (!a.ok) return 0.0;
  return a.prediction.has_crossing ? a.prediction.exit_time
                                   : UniverseExitTime(universe, op.point, dir);
}

Status SendRequest(net::NetClient* client, const RequestOp& op) {
  StatusOr<uint32_t> id = Status::Internal("unset");
  switch (op.kind) {
    case QueryKind::kNn1:
      id = client->SendNn(op.point, 1);
      break;
    case QueryKind::kNn10:
      id = client->SendNn(op.point, 10);
      break;
    case QueryKind::kWindow:
      id = client->SendWindow(op.point, kWindowHx, kWindowHy);
      break;
    case QueryKind::kRange:
      id = client->SendRange(op.point, kRangeRadius);
      break;
    case QueryKind::kPush:
      break;
  }
  return id.status();
}

// -- Timed phase --------------------------------------------------------------

// What the client measures. Client-thread only.
struct Timed {
  uint64_t attempted = 0;
  uint64_t completed = 0;  // replies (crossings on push_walk)
  Failures failures;       // transport, gaps, revokes, error frames
  // Per closed window of the timed phase: completions per second and the
  // steal share of the serving CPU.
  std::vector<double> window_rates;
  std::vector<double> window_steal;
  // Latency samples, kSamplesPerWindow per window slot; slot w holds
  // window_kept[w] of the window_seen[w] samples of window w.
  std::vector<uint32_t> latency_ns;
  std::vector<size_t> window_kept;
  std::vector<uint64_t> window_seen;
  Rng reservoir{0x5eed};
  double wall_s = 0.0;
  double loop_cpu_s = 0.0;
  double client_cpu_s = 0.0;
  double steal_share = 0.0;
  uint64_t checkpoint_units = 0;  // ops (legs on push_walk) completed

  // push_walk, exact over the checkpoint legs.
  uint64_t round_trips = 0;
  double distance = 0.0;  // universe units
  uint64_t crossings = 0;
};

// A held push-walk answer and the point where it is checked against the
// reference: the midpoint of the trajectory segment it must cover (the
// crossing point itself sits on a region boundary, where two answers tie).
struct WalkCheck {
  geo::Point at;
  uint64_t hash = 0;
};

// What the verifier finds. Verifier-thread only until Drain().
struct Checked {
  Failures failures;  // error frames, undecodable, invalid, mismatch
  // Exact, over the checkpoint prefix.
  Digest digest;
  uint64_t answers = 0;
  uint64_t answer_bytes = 0;
  uint64_t round_trips = 0;  // request workloads
  double distance = 0.0;     // request workloads, universe units
  std::vector<WalkCheck> walk_checks;
  // hot_hits: the verified replies of the first pass over the stream.
  std::vector<std::vector<uint8_t>> first_pass;
};

// Runs reply verification off the measured path: posted work runs in
// order on one thread kept off the CPU the client and serving loop share,
// so checking answers costs the timed phase a queue push (unless the
// verifier falls kMaxQueued items behind).
class Verifier {
 public:
  explicit Verifier(const cpu_set_t& cpus) : cpus_(cpus) {
    worker_ = std::thread([this] { Run(); });
  }
  ~Verifier() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    ready_.notify_all();
    worker_.join();
  }
  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  void Post(std::function<void()> work) {
    std::unique_lock<std::mutex> lock(mu_);
    space_.wait(lock, [this] { return queue_.size() < kMaxQueued; });
    queue_.push_back(std::move(work));
    ready_.notify_one();
  }

  // Returns once every posted item has run.
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [this] { return queue_.empty() && !busy_; });
  }

 private:
  static constexpr size_t kMaxQueued = 256;

  void Run() {
    if (CPU_COUNT(&cpus_) > 0) {
      (void)sched_setaffinity(0, sizeof(cpus_), &cpus_);
    }
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;
      std::function<void()> work = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
      space_.notify_one();
      lock.unlock();
      work();
      lock.lock();
      busy_ = false;
      if (queue_.empty()) idle_.notify_all();
    }
  }

  cpu_set_t cpus_;
  std::mutex mu_;
  std::condition_variable ready_;
  std::condition_variable space_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  bool busy_ = false;
  bool stop_ = false;
  std::thread worker_;
};

// Adds a sample to window slot w, keeping a uniform reservoir of
// kSamplesPerWindow once the window has more.
void AddSampleTo(Timed* t, size_t w, uint32_t ns) {
  if (w >= kWindowSlots) return;
  const uint64_t seen = ++t->window_seen[w];
  size_t i = t->window_kept[w];
  if (i == kSamplesPerWindow) {
    i = t->reservoir.NextBounded(seen);
    if (i >= kSamplesPerWindow) return;
  } else {
    ++t->window_kept[w];
  }
  t->latency_ns[w * kSamplesPerWindow + i] = ns;
}

void AddSample(Timed* t, Clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  AddSampleTo(t, t->window_rates.size(),
              static_cast<uint32_t>(std::clamp<int64_t>(ns, 0, UINT32_MAX)));
}

// Start/stop of the timed phase's wall and CPU clocks, and its windows.
class PhaseClock {
 public:
  PhaseClock(double seconds, int cpu, clockid_t loop_clock, Timed* out)
      : cpu_id_(cpu),
        loop_clock_(loop_clock),
        out_(out),
        window_(std::max(seconds / kWindows, 0.02)),
        start_(Clock::now()),
        deadline_(start_ + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds))),
        window_start_(start_),
        cpu_(ReadCpuStat(cpu)),
        window_cpu_(cpu_),
        loop_cpu_(ClockSeconds(loop_clock)),
        client_cpu_(ClockSeconds(CLOCK_THREAD_CPUTIME_ID)) {}

  bool Expired(Clock::time_point now) const { return now >= deadline_; }

  void Progress(Clock::time_point now, uint64_t completed) {
    if (now - window_start_ < window_) return;
    out_->window_rates.push_back(
        static_cast<double>(completed - window_completed_) /
        Seconds(now - window_start_));
    const CpuStat cpu = ReadCpuStat(cpu_id_);
    out_->window_steal.push_back(StealShare(window_cpu_, cpu));
    window_cpu_ = cpu;
    window_start_ = now;
    window_completed_ = completed;
  }

  void Finish(uint64_t completed) {
    const Clock::time_point now = Clock::now();
    out_->loop_cpu_s = ClockSeconds(loop_clock_) - loop_cpu_;
    out_->client_cpu_s = ClockSeconds(CLOCK_THREAD_CPUTIME_ID) - client_cpu_;
    out_->wall_s = Seconds(now - start_);
    out_->steal_share = StealShare(cpu_, ReadCpuStat(cpu_id_));
    if (out_->window_rates.size() < 3 && out_->wall_s > 0.0) {
      // Too short for windows: the whole phase is one, in slot 0.
      out_->window_rates.assign(
          1, static_cast<double>(completed) / out_->wall_s);
      out_->window_steal.assign(1, out_->steal_share);
      for (size_t w = 1; w < kWindowSlots; ++w) {
        for (size_t i = 0; i < out_->window_kept[w]; ++i) {
          AddSampleTo(out_, 0, out_->latency_ns[w * kSamplesPerWindow + i]);
        }
        out_->window_kept[w] = 0;
      }
    }
  }

 private:
  int cpu_id_;
  clockid_t loop_clock_;
  Timed* out_;
  std::chrono::duration<double> window_;
  Clock::time_point start_;
  Clock::time_point deadline_;
  Clock::time_point window_start_;
  uint64_t window_completed_ = 0;
  CpuStat cpu_;
  CpuStat window_cpu_;
  double loop_cpu_;
  double client_cpu_;
};

struct Received {
  net::FrameType type = net::FrameType::kError;
  std::vector<uint8_t> payload;
};

// Verifies one batch of request replies starting at stream index `base`
// (verifier thread).
void VerifyBatch(const Inputs& in, uint64_t base,
                 std::vector<Received>* replies, Checked* out) {
  const std::vector<RequestOp>& ops = in.timed.ops;
  const size_t n = ops.size();
  // hot_hits replays its stream: later passes must reproduce the first
  // pass's verified bytes (any other answer gets the full check).
  const bool replay = !out->first_pass.empty();
  for (size_t j = 0; j < replies->size(); ++j) {
    const uint64_t index = base + j;
    const RequestOp& op = ops[index % n];
    Received& r = (*replies)[j];
    if (r.type == net::FrameType::kError) {
      ++out->failures.error_frame;
      continue;
    }
    if (r.type != net::FrameType::kAnswer) {
      ++out->failures.undecodable;
      continue;
    }
    const bool exact = index < in.shape.checkpoint;
    if (exact) {
      out->digest.Add(static_cast<uint8_t>(r.type), r.payload);
      ++out->answers;
      out->answer_bytes += r.payload.size();
    }
    if (replay && index >= n && out->first_pass[index % n] == r.payload) {
      continue;
    }
    if (!CheckAnswer(op, r.payload, &out->failures)) continue;
    if (exact) {
      ++out->round_trips;
      out->distance += ExitDistance(op, in.dataset.universe, r.payload, index);
    }
    if (replay && index < n) out->first_pass[index] = std::move(r.payload);
  }
}

// Closed loop in lockstep batches: send `in_flight` requests in one
// write, then wait for all their replies (FIFO) and hand them to the
// verifier.
void RunRequests(const Inputs& in, uint16_t port, double seconds, int cpu,
                 clockid_t loop_clock, ProbeService* probe,
                 SpanStore* client_spans, Verifier* verifier, Checked* checked,
                 Timed* out) {
  const std::vector<RequestOp>& ops = in.timed.ops;
  const size_t n = ops.size();
  const size_t batch = in.shape.in_flight;
  const uint64_t checkpoint = in.shape.checkpoint;
  if (in.id == WorkloadId::kHotHits) checked->first_pass.resize(n);

  net::NetClient client;
  if (!client.Connect("127.0.0.1", port).ok()) Fatal("connect failed");

  PhaseClock clock(seconds, cpu, loop_clock, out);
  uint64_t next = 0;
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (clock.Expired(now) && next >= checkpoint) break;
    if (!in.shape.cycle && next >= n) break;
    const size_t count =
        in.shape.cycle ? batch : std::min<size_t>(batch, n - next);
    // No request is outstanding here, so the snapshot covers exactly
    // the first `checkpoint` ops.
    if (next == checkpoint) probe->RequestCheckpoint();
    bool sent = true;
    for (size_t j = 0; j < count && sent; ++j) {
      sent = SendRequest(&client, ops[(next + j) % n]).ok();
    }
    sent = sent && client.Flush().ok();
    const Clock::time_point t_send = Clock::now();
    out->attempted += count;
    if (!sent) {
      out->failures.transport += count;
      break;
    }
    std::vector<Received> replies(count);
    size_t got = 0;
    for (; got < count; ++got) {
      StatusOr<net::NetClient::Reply> reply = client.Receive();
      if (!reply.ok()) break;
      const Clock::time_point t_recv = Clock::now();
      AddSample(out, t_recv - t_send);
      if (client_spans != nullptr) {
        client_spans->Record(SpanName::kClient,
                             static_cast<uint32_t>(next + got), t_send, t_recv);
      }
      replies[got].type = reply->type;
      replies[got].payload = std::move(reply->payload);
    }
    if (got < count) {
      out->failures.transport += count - got;
      break;
    }
    verifier->Post([&in, checked, next, replies = std::move(replies)]() mutable {
      VerifyBatch(in, next, &replies, checked);
    });
    next += count;
    out->completed = next;
    clock.Progress(Clock::now(), next);
  }
  clock.Finish(out->completed);
  out->checkpoint_units = std::min<uint64_t>(out->completed, checkpoint);
  client.Close();
}

// -- Push walk ----------------------------------------------------------------

void DrainInbox(net::NetClient* client,
                std::map<std::pair<double, double>, std::vector<uint8_t>>* pending,
                Failures* failures) {
  net::NetClient::Reply reply;
  while (client->TakePush(&reply)) {
    if (reply.type != net::FrameType::kPush) {
      ++failures->revoked;  // impossible on a static dataset
      continue;
    }
    StatusOr<net::PushEnvelope> envelope = net::DecodePushEnvelope(reply.payload);
    if (!envelope.ok()) {
      ++failures->undecodable;
      continue;
    }
    (*pending)[{envelope->at.x, envelope->at.y}] = std::move(envelope->answer);
  }
}

// Checks a held push-walk answer (verifier thread): it must decode, be
// valid where it was adopted, and is compared with the reference at the
// midpoint of the segment it covers once the run is over.
void VerifyHeld(const std::vector<uint8_t>& held, const geo::Point& adopted_at,
                const geo::Point& midpoint, bool exact, Checked* out) {
  StatusOr<core::NnValidityResult> d = core::wire::DecodeNnResult(held);
  if (!d.ok()) {
    ++out->failures.undecodable;
    return;
  }
  if (!d->IsValidAt(adopted_at)) {
    ++out->failures.invalid;
    return;
  }
  if (exact) {
    out->digest.Add(static_cast<uint8_t>(net::FrameType::kAnswer), held);
    ++out->answers;
    out->answer_bytes += held.size();
  }
  out->walk_checks.push_back(WalkCheck{midpoint, IdSetHash(Ids(d->answers()))});
}

// Subscribed random-waypoint legs under the virtual clock (the protocol
// of bench/push_loadgen.cc): before each predicted crossing the clock is
// advanced to just short of it and a sync ping fences the push; the
// latency sample is advance -> push in hand. Then the clock passes the
// crossing and the server adopts and re-arms.
void RunPushWalk(const Inputs& in, uint16_t port, double seconds, int cpu,
                 clockid_t loop_clock, ProbeService* probe,
                 push::PushScheduler* scheduler, SpanStore* client_spans,
                 Verifier* verifier, Checked* checked, Timed* out) {
  const geo::Rect& universe = in.dataset.universe;
  net::NetClient client;
  if (!client.Connect("127.0.0.1", port).ok()) Fatal("connect failed");
  const uint64_t checkpoint = in.shape.checkpoint;

  PhaseClock clock(seconds, cpu, loop_clock, out);
  double mirror = 0.0;  // exact mirror of the scheduler's virtual clock
  bool alive = true;
  size_t leg_index = 0;
  for (; leg_index < in.legs.size() && alive; ++leg_index) {
    if (clock.Expired(Clock::now()) && leg_index >= checkpoint) break;
    if (leg_index == checkpoint) probe->RequestCheckpoint();
    const bool exact = leg_index < checkpoint;
    const Leg& leg = in.legs[leg_index];
    const double speed = std::sqrt(leg.velocity.SquaredNorm());
    const net::SubscribeRequest req{net::SubscribeKind::kNn, leg.start,
                                    leg.velocity, kPushNeighbors, 0.0, 0.0,
                                    0.0};
    ++out->attempted;
    StatusOr<std::vector<uint8_t>> subscribed = client.Subscribe(req);
    if (!subscribed.ok()) {
      if (client.connected()) {
        ++out->failures.error_frame;
        continue;
      }
      ++out->failures.transport;
      break;
    }
    if (exact) ++out->round_trips;
    std::vector<uint8_t> held = std::move(*subscribed);
    std::map<std::pair<double, double>, std::vector<uint8_t>> pending;
    geo::Point pos = leg.start;
    double base = mirror;  // the server stamped crossing_time from this base
    for (size_t crossing = 0;; ++crossing) {
      const push::AnswerAnalysis analysis =
          push::AnalyzeAnswer(req, universe, held, pos, leg.velocity);
      if (!analysis.ok) {
        ++out->failures.undecodable;
        break;
      }
      const double cover = analysis.prediction.has_crossing
                               ? analysis.prediction.exit_time
                               : UniverseExitTime(universe, pos, leg.velocity);
      verifier->Post([held, pos, mid = pos + leg.velocity * (0.5 * cover),
                      exact, checked] {
        VerifyHeld(held, pos, mid, exact, checked);
      });
      if (!analysis.prediction.has_crossing ||
          crossing == kMaxCrossingsPerLeg) {
        break;
      }
      const double t_cross = base + analysis.prediction.exit_time;
      const geo::Point at = analysis.prediction.next_query;
      ++out->attempted;
      if (exact) out->distance += speed * analysis.prediction.exit_time;

      // A breath before the crossing: the push must already be here.
      const Clock::time_point t_advance = Clock::now();
      const double pre = t_cross - 1e-6;
      if (pre > mirror) {
        scheduler->AdvanceVirtualTime(pre - mirror);
        mirror += pre - mirror;
      }
      if (!client.Ping().ok()) {
        ++out->failures.transport;
        alive = false;
        break;
      }
      DrainInbox(&client, &pending, &out->failures);
      const std::pair<double, double> key{at.x, at.y};
      const bool anticipated = pending.count(key) != 0;
      const Clock::time_point t_in_hand = Clock::now();
      AddSample(out, t_in_hand - t_advance);
      if (client_spans != nullptr) {
        client_spans->Record(SpanName::kClient,
                             static_cast<uint32_t>(out->completed), t_advance,
                             t_in_hand);
      }

      // Cross: the server adopts its last push and re-arms the chain.
      scheduler->AdvanceVirtualTime(t_cross + 1e-9 - mirror);
      mirror += t_cross + 1e-9 - mirror;
      if (!client.Ping().ok()) {
        ++out->failures.transport;
        alive = false;
        break;
      }
      if (!anticipated) {
        ++out->failures.gap;
        DrainInbox(&client, &pending, &out->failures);
      }
      const auto pushed = pending.find(key);
      if (pushed != pending.end()) {
        held = std::move(pushed->second);
        pending.erase(pushed);
      } else {
        // Never pushed at all: fall back to a pull, one round trip.
        StatusOr<std::vector<uint8_t>> pulled =
            client.NnQueryWire(at, kPushNeighbors);
        if (!pulled.ok()) {
          ++out->failures.transport;
          alive = false;
          break;
        }
        held = std::move(*pulled);
        if (exact) ++out->round_trips;
      }
      ++out->completed;
      if (exact) ++out->crossings;
      pos = at;
      base = t_cross;
      clock.Progress(Clock::now(), out->completed);
    }
  }
  clock.Finish(out->completed);
  out->checkpoint_units = std::min<uint64_t>(leg_index, checkpoint);
  client.Close();
}

// -- Probe: engine vs encode time of miss ops on a fresh replica --------------

void ProbeMisses(const Inputs& in, const ProbeService& probe, SpanStore* spans) {
  storage::PageManager disk;
  std::unique_ptr<rtree::RTree> tree = LoadTree(in, &disk);
  core::Server server(tree.get(), in.dataset.universe);
  std::vector<std::pair<uint32_t, QueryKind>> ops;
  for (const QueryKind kind : {QueryKind::kNn1, QueryKind::kNn10,
                               QueryKind::kWindow, QueryKind::kRange}) {
    for (const uint32_t op : probe.probe_ops(kind)) ops.emplace_back(op, kind);
  }
  std::sort(ops.begin(), ops.end());
  size_t sink = 0;
  for (const auto& [op_id, kind] : ops) {
    const RequestOp& op = in.timed.ops[op_id % in.timed.ops.size()];
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::vector<uint8_t>> bytes = Status::Internal("unset");
    Clock::time_point t1;
    switch (kind) {
      case QueryKind::kNn1:
      case QueryKind::kNn10: {
        const core::NnValidityResult r =
            server.NnQuery(op.point, kind == QueryKind::kNn1 ? 1 : 10);
        t1 = Clock::now();
        bytes = core::wire::EncodeNnResult(r);
        break;
      }
      case QueryKind::kWindow: {
        const core::WindowValidityResult r =
            server.WindowQuery(op.point, kWindowHx, kWindowHy);
        t1 = Clock::now();
        bytes = core::wire::EncodeWindowResult(r);
        break;
      }
      case QueryKind::kRange: {
        const core::RangeValidityResult r =
            server.RangeQuery(op.point, kRangeRadius);
        t1 = Clock::now();
        bytes = core::wire::EncodeRangeResult(r);
        break;
      }
      case QueryKind::kPush:
        continue;
    }
    const Clock::time_point t2 = Clock::now();
    if (bytes.ok()) sink += bytes->size();
    const size_t k = static_cast<size_t>(kind);
    spans->Record(static_cast<SpanName>(
                      static_cast<size_t>(SpanName::kProbeEngineNn1) + k),
                  op_id, t0, t1);
    spans->Record(static_cast<SpanName>(
                      static_cast<size_t>(SpanName::kProbeEncodeNn1) + k),
                  op_id, t1, t2);
  }
  if (sink == 0 && !ops.empty()) Fatal("probe encoded nothing");
}

// -- Driver -------------------------------------------------------------------

struct Args {
  WorkloadId workload = WorkloadId::kHotHits;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_out;
  bool small = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fatal("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      have_workload = ParseWorkload(value(), &args.workload);
      if (!have_workload) Fatal("unknown workload");
    } else if (a == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
      if (!(args.seconds > 0.0)) Fatal("--seconds must be positive");
    } else if (a == "--trace-out") {
      args.trace_out = value();
    } else if (a == "--small") {
      args.small = true;
    } else {
      Fatal("unknown argument " + a);
    }
  }
  if (!have_workload) Fatal("--workload is required");
  return args;
}

double Percentile(std::vector<uint32_t> v, double q) {
  if (v.empty()) return 0.0;
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]) / 1000.0;
}

// The fastest quarter of the timed phase's windows. A shared virtual
// machine alternates between two speed states about 1.4x apart, each
// lasting seconds to minutes, with no steal recorded (a busy neighbour on
// the same core or memory bus); nearly every run reaches the fast state
// for a while, and timing metrics come from those windows.
std::vector<size_t> FastWindows(const std::vector<double>& rates) {
  std::vector<size_t> order(rates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&rates](size_t a, size_t b) { return rates[a] > rates[b]; });
  order.resize((order.size() + 3) / 4);
  std::sort(order.begin(), order.end());
  return order;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const CpuPlan cpus = PinServingCpu();
  if (cpus.serving < 0) Fatal("cannot pin to a CPU");
  const int cpu = cpus.serving;
  const bool tracing = !args.trace_out.empty();
  const Inputs in = MakeInputs(args.workload, args.seed, args.small);
  const Shape& shape = in.shape;
  const bool push_walk = in.id == WorkloadId::kPushWalk;

  // The timed phase's fixed-size buffers exist before any set-up, so the
  // peak resident set does not depend on how fast the program runs.
  Timed timed;
  timed.latency_ns.assign(kWindowSlots * kSamplesPerWindow, 0);
  timed.window_kept.assign(kWindowSlots, 0);
  timed.window_seen.assign(kWindowSlots, 0);
  Checked checked;
  if (push_walk) {
    checked.walk_checks.reserve(shape.legs * (kMaxCrossingsPerLeg + 1));
  }

  std::vector<double> setup_runs;
  std::unique_ptr<Stack> stack;
  for (size_t r = 0; r < shape.setup_repeats; ++r) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = BuildStack(in);
    setup_runs.push_back(Seconds(Clock::now() - t0));
  }

  std::optional<ProbeService> probe_slot;
  if (stack->server) {
    probe_slot.emplace(stack->server.get(), stack->tree.get());
  } else {
    probe_slot.emplace(stack->partitioned.get());
  }
  ProbeService& probe = *probe_slot;
  if (in.id == WorkloadId::kChurnK4) probe.set_updates(&in.timed);
  probe.set_push_mode(push_walk);
  SpanStore loop_spans(tracing ? kSpanCapacity : 0);
  SpanStore client_spans(tracing ? kSpanCapacity : 0);
  if (tracing) probe.set_trace(&loop_spans, kProbeOpsPerKind);

  net::NetServer serving(&probe, net::NetOptions{});
  probe.set_net_stats(serving.mutable_stats());
  std::optional<push::PushScheduler> scheduler;
  if (push_walk) {
    push::PushConfig config;
    config.virtual_clock = true;
    config.push_lead = kPushLead;
    scheduler.emplace(&probe, config, serving.mutable_stats());
    scheduler->set_wake([&serving] { serving.Wake(); });
    serving.set_subscriptions(&*scheduler);
    probe.set_push(&*scheduler);
  }
  if (const Status s = serving.Listen(); !s.ok()) Fatal("listen failed");
  const Counters start = probe.Read();
  const Clock::time_point origin = Clock::now();
  std::thread loop([&serving] { serving.Run(); });
  clockid_t loop_clock{};
  if (pthread_getcpuclockid(loop.native_handle(), &loop_clock) != 0) {
    Fatal("no CPU clock for the loop thread");
  }

  {
    Verifier verifier(cpus.others);
    if (push_walk) {
      RunPushWalk(in, serving.port(), args.seconds, cpu, loop_clock, &probe,
                  &*scheduler, tracing ? &client_spans : nullptr, &verifier,
                  &checked, &timed);
    } else {
      RunRequests(in, serving.port(), args.seconds, cpu, loop_clock, &probe,
                  tracing ? &client_spans : nullptr, &verifier, &checked,
                  &timed);
    }
    serving.RequestDrain();
    loop.join();
    verifier.Drain();
  }
  Failures failures = timed.failures;
  failures += checked.failures;

  const Counters end = probe.Read();
  const Counters at_checkpoint = probe.checkpoint().value_or(end);
  const Counters counts = Diff(at_checkpoint, start);
  const net::NetStats& net = serving.stats();
  if (net.drops != 0 || net.protocol_errors != 0 || net.bad_requests != 0) {
    ++failures.transport;
  }
  if (in.id == WorkloadId::kChurnK4) {
    // Every update the stream placed before a served request was applied.
    const uint64_t served = end[kCalls] - start[kCalls];
    const uint64_t expected =
        in.timed.update_begin[std::min<uint64_t>(served, in.timed.ops.size())];
    const uint64_t applied = end[kInsertsApplied] + end[kDeletesApplied] -
                             start[kInsertsApplied] - start[kDeletesApplied];
    if (applied != expected) failures.mismatch += expected - applied;
  }
  if (push_walk) {
    ReferenceIndex oracle(in.dataset.universe, in.dataset.entries);
    for (const WalkCheck& c : checked.walk_checks) {
      if (IdSetHash(oracle.Knn(c.at, kPushNeighbors)) != c.hash) {
        ++failures.mismatch;
      }
    }
  }

  if (tracing) {
    SpanStore probe_spans(8 * kProbeOpsPerKind + 8);
    if (stack->server && !push_walk) ProbeMisses(in, probe, &probe_spans);
    const std::string other =
        Json()
            .Str("workload", WorkloadName(in.id))
            .Int("seed", args.seed)
            .Int("dropped_spans", loop_spans.dropped() + client_spans.dropped())
            .str();
    if (!WriteChromeTrace(args.trace_out, origin,
                          {{1, &client_spans}, {2, &loop_spans}, {3, &probe_spans}},
                          other)) {
      Fatal("cannot write " + args.trace_out);
    }
  }

  const std::vector<size_t> fast = FastWindows(timed.window_rates);
  std::vector<double> fast_rates;
  std::vector<uint32_t> samples;
  for (const size_t w : fast) {
    fast_rates.push_back(timed.window_rates[w]);
    if (w >= kWindowSlots) continue;
    const auto begin = timed.latency_ns.begin() +
                       static_cast<ptrdiff_t>(w * kSamplesPerWindow);
    samples.insert(samples.end(), begin,
                   begin + static_cast<ptrdiff_t>(timed.window_kept[w]));
  }
  const uint64_t round_trips = timed.round_trips + checked.round_trips;
  const double km = (timed.distance + checked.distance) * kKmPerUnit;
  Json metrics;
  metrics.Num("qps", Median(fast_rates))
      .Num("latency_p50_us", Percentile(samples, 0.50))
      .Num("latency_p99_us", Percentile(samples, 0.99))
      .Num("wire_bytes_per_answer",
           checked.answers == 0 ? 0.0
                                : static_cast<double>(checked.answer_bytes) /
                                      static_cast<double>(checked.answers))
      .Num("round_trips_per_km",
           km > 0.0 ? static_cast<double>(round_trips) / km : 0.0)
      .Num("peak_rss_mb", PeakRssMb())
      .Num("setup_s", Median(setup_runs));

  std::string setups = "[";
  for (size_t i = 0; i < setup_runs.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6f", i == 0 ? "" : ",", setup_runs[i]);
    setups += buf;
  }
  setups += "]";
  std::string windows = "[";
  std::string window_steal = "[";
  for (size_t i = 0; i < timed.window_rates.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", i == 0 ? "" : ",",
                  timed.window_rates[i]);
    windows += buf;
    if (i < timed.window_steal.size()) {
      std::snprintf(buf, sizeof(buf), "%s%.4f", i == 0 ? "" : ",",
                    timed.window_steal[i]);
      window_steal += buf;
    }
  }
  windows += "]";
  window_steal += "]";

  const std::string report =
      Json()
          .Str("workload", WorkloadName(in.id))
          .Int("seed", args.seed)
          .Int("traced", tracing ? 1 : 0)
          .Int("attempted", timed.attempted)
          .Int("completed", timed.completed)
          .Int("failed", failures.total())
          .Raw("failures", failures.ToJson())
          .Raw("metrics", metrics.str())
          .Int("latency_samples", samples.size())
          .Raw("host", Json()
                           .Int("cpu", static_cast<uint64_t>(cpu))
                           .Num("steal_share", timed.steal_share)
                           .Num("loop_cpu_s", timed.loop_cpu_s)
                           .Num("client_cpu_s", timed.client_cpu_s)
                           .Num("timed_wall_s", timed.wall_s)
                           .Raw("setup_runs_s", setups)
                           .Raw("window_rates", windows)
                           .Raw("window_steal", window_steal)
                           .str())
          .Raw("determinism",
               Json()
                   .Str("digest", checked.digest.Hex())
                   .Int("checkpoint", shape.checkpoint)
                   .Int("checkpoint_reached", timed.checkpoint_units)
                   .Int("checkpoint_call", probe.checkpoint_call())
                   .Int("answers", checked.answers)
                   .Int("answer_bytes", checked.answer_bytes)
                   .Int("round_trips", round_trips)
                   .Num("km", km)
                   .Int("crossings", timed.crossings)
                   .Raw("counts", CountersJson(counts))
                   .str())
          .Raw("timed_counts", CountersJson(Diff(end, start)))
          .str();
  std::printf("REPORT %s\n", report.c_str());
  return 0;
}

}  // namespace
}  // namespace lbsq::servebench

int main(int argc, char** argv) { return lbsq::servebench::Main(argc, argv); }
