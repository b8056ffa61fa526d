#ifndef LBSQ_NET_NET_CLIENT_H_
#define LBSQ_NET_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/point.h"
#include "net/frame.h"

// Blocking client for the framed protocol — the mobile-device side of
// the link. Two usage styles:
//
//   * one-shot: NnQueryWire/WindowQueryWire/RangeQueryWire send one
//     request and block for its answer bytes (exactly what the
//     in-process Server::*QueryWire would have returned);
//   * pipelined: issue many Send*() calls back to back, then drain the
//     replies with Receive() — the server answers in request order per
//     connection, so request ids line up FIFO. Pipelining is what makes
//     a single connection saturate the link despite round-trip latency.
//
// Sends are corked: Send* serializes the frame into an outgoing buffer
// and returns without touching the socket; the buffer is written — one
// send(2) for the whole batch — when Receive() would otherwise block,
// when it grows past kClientCorkBytes, or on an explicit Flush(). A
// frame-at-a-time send() per request costs a syscall each; corking
// amortizes it across the pipeline window. Callers that need bytes on
// the wire without calling Receive() (none of the request/response
// paths do) must Flush() explicitly.
//
// Not thread-safe; one NetClient per thread (or per simulated client).

namespace lbsq::net {

// Cork limit: a full outgoing buffer this large is flushed eagerly so a
// caller issuing thousands of sends before the first Receive() cannot
// wedge the connection once socket buffers fill in both directions.
inline constexpr size_t kClientCorkBytes = 32u << 10;

class NetClient {
 public:
  NetClient() = default;
  ~NetClient() { Close(); }

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  // Numeric IPv4 addresses plus the literal "localhost".
  [[nodiscard]] Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // -- Pipelined interface ---------------------------------------------------

  // Each Send* writes one request frame and returns its request id.
  [[nodiscard]] StatusOr<uint32_t> SendNn(const geo::Point& q, uint32_t k);
  [[nodiscard]] StatusOr<uint32_t> SendWindow(const geo::Point& focus,
                                              double hx, double hy);
  [[nodiscard]] StatusOr<uint32_t> SendRange(const geo::Point& focus,
                                             double radius);
  [[nodiscard]] StatusOr<uint32_t> SendPing(
      const std::vector<uint8_t>& payload);
  [[nodiscard]] StatusOr<uint32_t> SendInfoRequest();
  [[nodiscard]] StatusOr<uint32_t> SendSubscribe(const SubscribeRequest& req);

  struct Reply {
    uint32_t request_id = 0;
    FrameType type = FrameType::kError;
    // Decoded from the payload when type == kError; OK otherwise.
    Status error;
    std::vector<uint8_t> payload;
  };

  // Blocks for the next *solicited* reply frame (flushing corked
  // requests first — see above). A per-request failure is an OK StatusOr
  // whose Reply has type kError and a non-OK `error` field; a transport
  // or framing failure is a non-OK StatusOr (and the connection is no
  // longer usable). Unsolicited frames (kPush/kRevoke) encountered on
  // the way are stashed into the push inbox, preserving arrival order —
  // so after a sync ping's pong, every push the server emitted before
  // the pong is sitting in the inbox.
  [[nodiscard]] StatusOr<Reply> Receive();

  // -- Push inbox ------------------------------------------------------------

  // Pops the oldest stashed unsolicited frame; false when the inbox is
  // empty. Never touches the socket.
  bool TakePush(Reply* out);

  // Blocks until an unsolicited frame arrives (or pops a stashed one),
  // waiting at most timeout_ms on the socket; kUnavailable "push wait
  // timed out" on expiry. Call only with no outstanding requests: a
  // solicited frame arriving here is a protocol error.
  [[nodiscard]] StatusOr<Reply> WaitPush(int timeout_ms);

  // Writes all corked request bytes to the socket. No-op when nothing
  // is buffered.
  [[nodiscard]] Status Flush();

  // -- One-shot conveniences -------------------------------------------------

  // Send one request and block for its answer bytes; a kError reply
  // comes back as its decoded Status.
  [[nodiscard]] StatusOr<std::vector<uint8_t>> NnQueryWire(const geo::Point& q,
                                                           uint32_t k);
  [[nodiscard]] StatusOr<std::vector<uint8_t>> WindowQueryWire(
      const geo::Point& focus, double hx, double hy);
  [[nodiscard]] StatusOr<std::vector<uint8_t>> RangeQueryWire(
      const geo::Point& focus, double radius);
  [[nodiscard]] Status Ping();
  [[nodiscard]] StatusOr<core::ServiceInfo> Info();

  // Registers a trajectory subscription and blocks for the initial
  // answer bytes (the region at req.position). On success
  // *subscription_id (optional) is the id carried by this
  // subscription's kPush/kRevoke frames.
  [[nodiscard]] StatusOr<std::vector<uint8_t>> Subscribe(
      const SubscribeRequest& req, uint32_t* subscription_id = nullptr);

 private:
  [[nodiscard]] StatusOr<uint32_t> SendRequest(
      FrameType type, const std::vector<uint8_t>& payload);
  // Waits for a reply and unwraps kAnswer payload bytes.
  [[nodiscard]] StatusOr<std::vector<uint8_t>> ReceiveAnswer();

  // Blocks for the next frame of any type (no inbox routing).
  [[nodiscard]] StatusOr<Reply> ReceiveAny();

  int fd_ = -1;
  uint32_t next_request_id_ = 1;
  FrameDecoder decoder_;
  std::vector<uint8_t> out_;  // corked request frames, not yet sent
  std::deque<Reply> push_inbox_;  // unsolicited frames, arrival order
};

}  // namespace lbsq::net

#endif  // LBSQ_NET_NET_CLIENT_H_
