#ifndef LBSQ_NET_EVENT_LOOP_H_
#define LBSQ_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "net/frame.h"
#include "net/net_stats.h"

// Single-threaded poll(2) event loop serving the framed protocol of
// net/frame.h over TCP. One thread, one poll set — sized for the 1-core
// benchmark box, where extra serving threads only add contention; scale
// comes from pipelining many connections through one loop.
//
// Per-connection state machine:
//
//   reading --frame--> handler --reply bytes--> write buffer --> socket
//      ^                                             |
//      +--------- backpressure: POLLIN off while ----+
//                 pending writes exceed write_buffer_limit
//
// Protections against misbehaving peers, all counted in NetStats:
//   * framing errors (bad magic/version, oversized length) latch the
//     connection's decoder; the server sends a best-effort Error frame,
//     then closes after the write buffer flushes;
//   * idle deadline: no bytes from the peer for idle_timeout_ms;
//   * partial-frame deadline (anti-slowloris): a frame started but not
//     finished within partial_frame_timeout_ms;
//   * connection cap: accepts beyond max_connections are closed
//     immediately (counted as refused, not accepts).
//
// Shutdown: RequestStop() tears everything down now; RequestDrain()
// stops accepting and reading, flushes pending replies, and closes each
// connection as it empties, killing stragglers at drain_timeout_ms.
// Both are the only thread-safe entry points (atomic flag + wake pipe);
// everything else, including stats(), belongs to the loop thread —
// read stats() only after Run() has returned.

namespace lbsq::net {

struct NetOptions {
  // 0 = ephemeral: the OS picks a free port, read it back from port().
  // (Tests always use 0 so parallel ctest runs cannot collide.)
  uint16_t port = 0;
  int backlog = 64;
  size_t max_connections = 256;
  // Pending-write budget per connection: above this the loop stops
  // reading from the peer until the backlog drains (backpressure).
  size_t write_buffer_limit = 256u << 10;
  size_t read_chunk_bytes = 64u << 10;
  // Frame payload cap fed to every connection's FrameDecoder.
  size_t max_payload_bytes = kMaxPayloadBytes;
  int idle_timeout_ms = 30000;
  int partial_frame_timeout_ms = 5000;
  int drain_timeout_ms = 5000;
};

// Where a frame handler puts reply frames. Appends into the originating
// connection's write queue; the loop counts frames_out/bytes_out.
class ReplySink {
 public:
  using SharedPayload = std::shared_ptr<const std::vector<uint8_t>>;

  virtual ~ReplySink() = default;
  virtual void Send(FrameType type, uint32_t request_id,
                    const uint8_t* payload, size_t payload_len) = 0;

  void Send(FrameType type, uint32_t request_id,
            const std::vector<uint8_t>& payload) {
    Send(type, request_id, payload.data(), payload.size());
  }

  // Zero-copy variant for immutable reference-counted payloads (cache-
  // stored answers): the event loop's sink queues the payload by
  // reference behind a framing header and holds it until the socket
  // drains it. The default forwards to the copying path, so custom
  // sinks (tests, capture handlers) need not care.
  virtual void SendShared(FrameType type, uint32_t request_id,
                          const SharedPayload& payload) {
    Send(type, request_id, payload->data(), payload->size());
  }
};

// Application layer plugged into the loop: called once per complete,
// well-framed frame, on the loop thread.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  virtual void OnFrame(uint64_t connection_id, const Frame& frame,
                       ReplySink* reply) = 0;

  // Called on the loop thread when a connection closes (any path: clean
  // close, drop, deadline, drain, shutdown), before its ReplySink is
  // destroyed. A handler holding per-connection state — the push
  // subscription registry — releases it here; after this returns, the
  // connection's sink must never be used again.
  virtual void OnClose(uint64_t connection_id) { (void)connection_id; }

  // Called at least once per loop iteration: before the poll set is
  // built (so the returned hint caps the poll timeout — this is how the
  // next due push bounds the sleep), and again right after a Wake()
  // interrupted the poll, before any socket is read (so off-thread work
  // posted before a peer's next bytes is handled before those bytes).
  // Frames emitted here flush in the same iteration. Returns how many
  // milliseconds until the handler next needs a tick, or -1 for "no
  // scheduled work". Must not block: this runs on the serving thread.
  virtual int OnTick() { return -1; }
};

class EventLoop {
 public:
  EventLoop(FrameHandler* handler, const NetOptions& options);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Binds and listens (loopback-only: 127.0.0.1). After an OK return,
  // port() is the actual listening port.
  [[nodiscard]] Status Listen();
  uint16_t port() const { return port_; }

  // Serves until RequestStop(), or until a RequestDrain() completes.
  // Returns the number of poll iterations (useful in tests).
  uint64_t Run();

  // Thread-safe. Stop: close everything at the next iteration (open
  // connections count as drops). Drain: stop accepting and reading,
  // flush, then exit; stragglers are dropped at drain_timeout_ms.
  void RequestStop();
  void RequestDrain();

  // Thread-safe: interrupts the current poll so the loop runs another
  // iteration (and hence the handler's OnTick) now. Used by off-thread
  // producers of scheduled work, e.g. posted dataset updates that must
  // trigger corrective pushes.
  void Wake();

  // Loop-thread-only while running; safe from other threads only after
  // Run() has returned.
  const NetStats& stats() const { return stats_; }
  NetStats* mutable_stats() { return &stats_; }
  size_t open_connections() const { return connections_.size(); }

 private:
  struct Connection;
  using Clock = std::chrono::steady_clock;

  void AcceptPending(Clock::time_point now);
  // Reads available bytes and dispatches every complete frame. Returns
  // false when the connection was closed.
  bool HandleReadable(Connection* conn, Clock::time_point now);
  // Flushes as much pending write as the socket accepts. Returns false
  // when the connection was closed.
  bool FlushWrites(Connection* conn);
  void DispatchFrames(Connection* conn);
  void CloseConnection(Connection* conn, bool clean);
  // Enforces idle/partial-frame deadlines; returns false when dropped.
  bool EnforceDeadlines(Connection* conn, Clock::time_point now);
  // Poll timeout until the next deadline of any connection or the
  // handler's next scheduled tick (or -1 when neither is pending).
  int NextTimeoutMs(Clock::time_point now) const;
  void DrainWakePipe();

  FrameHandler* handler_;
  NetOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  int wake_pipe_[2] = {-1, -1};

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  Clock::time_point drain_deadline_{};

  std::vector<std::unique_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;
  // Last OnTick() answer: ms until the handler's next scheduled work.
  int tick_hint_ms_ = -1;
  // recv() target of HandleReadable, read_chunk_bytes long, allocated
  // once for the loop's lifetime: every read is fed to a connection's
  // decoder before the next one overwrites it.
  std::vector<uint8_t> read_buffer_;
  NetStats stats_;
};

}  // namespace lbsq::net

#endif  // LBSQ_NET_EVENT_LOOP_H_
