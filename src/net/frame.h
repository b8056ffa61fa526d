#ifndef LBSQ_NET_FRAME_H_
#define LBSQ_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/wire_service.h"
#include "geometry/point.h"
#include "geometry/rect.h"

// Length-prefixed binary framing for the TCP serving layer: the unit that
// actually crosses the (simulated-wireless) link between a mobile client
// and the server. A frame is a fixed 12-byte header followed by a payload
// whose encoding depends on the frame type:
//
//   offset  size  field
//        0     2  magic 0x514c ("LQ", little-endian)
//        2     1  protocol version (kProtocolVersion)
//        3     1  frame type (FrameType)
//        4     4  request id (echoed verbatim in the reply)
//        8     4  payload length in bytes, <= kMaxPayloadBytes
//       12     n  payload
//
// Request payloads are tiny fixed encodings of the query parameters
// (little-endian doubles plus LEB128 varints, the same primitives as
// core/wire_format.h); answer payloads are the *exact* bytes produced by
// core::wire::Encode* — the framing adds 12 bytes and nothing else, so a
// cache hit in the semantic answer cache is served straight into the
// socket without re-encoding.
//
// Everything that decodes here faces bytes the process does not control
// (a hostile or buggy client, a truncated stream). All decoding therefore
// goes through the Status tier / bounded ByteReader reads and can never
// abort; this file is a registered hostile-input decode surface of
// tools/lbsq_lint (rule check-in-decode-surface), hardwired by path.
//
// Error model, mirroring DESIGN.md section 7:
//   * A malformed *payload* in a well-formed frame (bad k, non-finite
//     coordinate, trailing bytes) is a per-request error: the server
//     replies with an Error frame and keeps the connection.
//   * A malformed *frame* (wrong magic, unsupported version, oversized
//     length) poisons the stream — nothing after it can be trusted — so
//     the decoder latches the error and the connection is closed after a
//     best-effort Error frame.

namespace lbsq::net {

inline constexpr uint16_t kFrameMagic = 0x514c;  // "LQ" on the wire
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;
// Hard cap on a single frame's payload. Answers are a few hundred bytes;
// the cap exists so a hostile length field cannot make the decoder buffer
// (or a reply echo) grow without bound.
inline constexpr size_t kMaxPayloadBytes = 1u << 20;
// Protocol-level bound on k for k-NN requests (the engines are linear in
// k; a request for 2^32 neighbors is an attack, not a query).
inline constexpr uint32_t kMaxRequestK = 1024;

enum class FrameType : uint8_t {
  // Requests (client -> server).
  kNnRequest = 0x01,      // payload: NnRequest
  kWindowRequest = 0x02,  // payload: WindowRequest
  kRangeRequest = 0x03,   // payload: RangeRequest
  kPing = 0x04,           // payload: opaque bytes, echoed back
  kInfoRequest = 0x05,    // payload: empty
  kSubscribe = 0x06,      // payload: SubscribeRequest
  // Replies (server -> client).
  kAnswer = 0x81,  // payload: core::wire::Encode* bytes of the answer
  kPong = 0x84,    // payload: the ping payload, verbatim
  kInfo = 0x85,    // payload: core::ServiceInfo
  // Unsolicited (server -> client, request_id = subscription id).
  kPush = 0x86,    // payload: PushEnvelope
  kRevoke = 0x87,  // payload: RevokeNotice
  kError = 0xff,   // payload: status code byte + UTF-8 message
};

const char* FrameTypeName(FrameType type);

// Frames the server emits without a request to answer (the push half of
// a subscription); clients route them to the push inbox instead of the
// reply stream.
inline bool IsUnsolicitedFrame(FrameType type) {
  return type == FrameType::kPush || type == FrameType::kRevoke;
}

struct Frame {
  FrameType type = FrameType::kError;
  uint32_t request_id = 0;
  std::vector<uint8_t> payload;
};

// Appends one encoded frame to *out (an append, not an overwrite, so a
// connection's write buffer accumulates frames without extra copies).
// Payload length is the caller's to keep under kMaxPayloadBytes; the
// server never produces an oversized frame because answers are bounded
// and echoes are bounded by the request cap.
void AppendFrame(FrameType type, uint32_t request_id, const uint8_t* payload,
                 size_t payload_len, std::vector<uint8_t>* out);

// Appends only the 12-byte header declaring a payload of `payload_len`
// bytes. The write path uses this to frame a shared (zero-copy) payload:
// the header lands in the connection's owned buffer while the payload
// itself is queued by reference (net/write_queue.h).
void AppendFrameHeader(FrameType type, uint32_t request_id,
                       size_t payload_len, std::vector<uint8_t>* out);

std::vector<uint8_t> EncodeFrame(FrameType type, uint32_t request_id,
                                 const std::vector<uint8_t>& payload);

// Incremental frame decoder over a byte stream delivered in arbitrary
// chunks (frames routinely split across reads, or several per read).
// Feed() appends received bytes; Next() extracts the next complete frame.
// A framing error (bad magic/version, oversized length) latches: every
// later Next() returns kError with the same status.
class FrameDecoder {
 public:
  enum class Result {
    kFrame,     // *out holds the next frame
    kNeedMore,  // the buffered bytes do not complete a frame yet
    kError,     // stream poisoned; see error()
  };

  explicit FrameDecoder(size_t max_payload_bytes = kMaxPayloadBytes)
      : max_payload_(max_payload_bytes) {}

  void Feed(const uint8_t* data, size_t n);
  Result Next(Frame* out);

  const Status& error() const { return error_; }
  // Bytes buffered but not yet consumed as frames. Nonzero after draining
  // means a frame is in flight — the hook for the partial-frame deadline.
  size_t buffered() const { return buffer_.size() - head_; }
  bool mid_frame() const { return buffered() > 0; }

 private:
  size_t max_payload_;
  std::vector<uint8_t> buffer_;
  size_t head_ = 0;  // consumed prefix of buffer_
  Status error_;
};

// -- Request payloads --------------------------------------------------------

struct NnRequest {
  geo::Point q{0.0, 0.0};
  uint32_t k = 1;
};

struct WindowRequest {
  geo::Point focus{0.0, 0.0};
  double hx = 0.0;
  double hy = 0.0;
};

struct RangeRequest {
  geo::Point focus{0.0, 0.0};
  double radius = 0.0;
};

// kInfo replies carry the service's core::ServiceInfo: enough for a
// client that knows nothing about the dataset (e.g. the load generator
// pointed at an external server) to generate in-universe queries, plus
// per-fragment serving stats when the server is spatially partitioned.
// The decoder caps the advertised fragment count — this is a hostile
// surface and a fragment list is small by design.
inline constexpr size_t kMaxInfoFragments = 64;

// -- Subscription payloads ---------------------------------------------------

// A kSubscribe frame registers a trajectory subscription: the client's
// position + straight-line velocity plus the query it wants kept fresh.
// The server replies with the current answer as an ordinary kAnswer (the
// same bytes a pull at `position` would produce), then pushes the answer
// for the *next* validity region ahead of the predicted crossing via
// unsolicited kPush frames carrying the subscribe frame's request id as
// the subscription id.
enum class SubscribeKind : uint8_t {
  kNn = 1,
  kWindow = 2,
  kRange = 3,
};

struct SubscribeRequest {
  SubscribeKind kind = SubscribeKind::kNn;
  geo::Point position{0.0, 0.0};
  geo::Vec2 velocity{0.0, 0.0};  // universe units per second; zero is legal
                                 // (no crossing predicted, churn pushes only)
  uint32_t k = 1;       // kNn only, [1, kMaxRequestK]
  double hx = 0.0;      // kWindow only, > 0
  double hy = 0.0;      // kWindow only, > 0
  double radius = 0.0;  // kRange only, > 0
};

// A kPush payload: the exact point the subscriber is predicted to cross
// into the next region (the query point the pushed answer was computed
// at — a pull client querying at the same point gets byte-identical
// answer bytes), followed by those answer bytes verbatim.
struct PushEnvelope {
  geo::Point at{0.0, 0.0};
  std::vector<uint8_t> answer;
};

// A kRevoke payload: the server can no longer stand behind the answers it
// sent for this subscription id; the client must fall back to a pull.
enum class RevokeReason : uint8_t {
  kRegionKilled = 1,  // an update invalidated the current region
  kCapacity = 2,      // server shed the subscription (caps/drain)
};

struct RevokeNotice {
  RevokeReason reason = RevokeReason::kRegionKilled;
};

std::vector<uint8_t> EncodeNnRequest(const NnRequest& req);
std::vector<uint8_t> EncodeWindowRequest(const WindowRequest& req);
std::vector<uint8_t> EncodeRangeRequest(const RangeRequest& req);
std::vector<uint8_t> EncodeServerInfo(const core::ServiceInfo& info);
std::vector<uint8_t> EncodeSubscribeRequest(const SubscribeRequest& req);
std::vector<uint8_t> EncodePushEnvelope(const geo::Point& at,
                                        const uint8_t* answer,
                                        size_t answer_len);
std::vector<uint8_t> EncodeRevokeNotice(const RevokeNotice& notice);

// Decoders reject truncation, trailing bytes, non-finite values, and
// out-of-domain parameters (k outside [1, kMaxRequestK], non-positive
// extents/radius). Containment in the serving universe is the server's
// check — the codec does not know the dataset.
[[nodiscard]] StatusOr<NnRequest> DecodeNnRequest(
    const std::vector<uint8_t>& payload);
[[nodiscard]] StatusOr<WindowRequest> DecodeWindowRequest(
    const std::vector<uint8_t>& payload);
[[nodiscard]] StatusOr<RangeRequest> DecodeRangeRequest(
    const std::vector<uint8_t>& payload);
[[nodiscard]] StatusOr<core::ServiceInfo> DecodeServerInfo(
    const std::vector<uint8_t>& payload);
// Subscription decoders additionally reject unknown kinds/reasons and
// non-finite velocities. The answer bytes inside a PushEnvelope are passed
// through opaquely — the client feeds them to core::wire::Decode*, which
// is its own registered hostile-input surface.
[[nodiscard]] StatusOr<SubscribeRequest> DecodeSubscribeRequest(
    const std::vector<uint8_t>& payload);
[[nodiscard]] StatusOr<PushEnvelope> DecodePushEnvelope(
    const std::vector<uint8_t>& payload);
[[nodiscard]] StatusOr<RevokeNotice> DecodeRevokeNotice(
    const std::vector<uint8_t>& payload);

// -- Error payloads ----------------------------------------------------------

// One status-code byte (StatusCode's numeric value) followed by the
// message bytes. Encoding caps the message; decoding total garbage still
// yields a non-OK status, so an error frame can never be mistaken for
// success.
std::vector<uint8_t> EncodeErrorPayload(const Status& status);
Status DecodeErrorPayload(const std::vector<uint8_t>& payload);

}  // namespace lbsq::net

#endif  // LBSQ_NET_FRAME_H_
