#include "net/frame.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bytes.h"

namespace lbsq::net {

namespace {

constexpr size_t kCompactThreshold = 64u << 10;
constexpr size_t kMaxErrorMessageBytes = 512;

Status Malformed(const char* what) { return Status::InvalidArgument(what); }

// Bounded read of a double that must be a finite coordinate/extent.
bool ReadFinite(ByteReader* reader, double* out) {
  return reader->TryRead(out) && std::isfinite(*out);
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kNnRequest: return "NN_REQUEST";
    case FrameType::kWindowRequest: return "WINDOW_REQUEST";
    case FrameType::kRangeRequest: return "RANGE_REQUEST";
    case FrameType::kPing: return "PING";
    case FrameType::kInfoRequest: return "INFO_REQUEST";
    case FrameType::kSubscribe: return "SUBSCRIBE";
    case FrameType::kAnswer: return "ANSWER";
    case FrameType::kPong: return "PONG";
    case FrameType::kInfo: return "INFO";
    case FrameType::kPush: return "PUSH";
    case FrameType::kRevoke: return "REVOKE";
    case FrameType::kError: return "ERROR";
  }
  return "UNKNOWN";
}

void AppendFrameHeader(FrameType type, uint32_t request_id,
                       size_t payload_len, std::vector<uint8_t>* out) {
  const size_t offset = out->size();
  out->resize(offset + kFrameHeaderBytes);
  uint8_t* h = out->data() + offset;
  const uint16_t magic = kFrameMagic;
  std::memcpy(h, &magic, sizeof(magic));
  h[2] = kProtocolVersion;
  h[3] = static_cast<uint8_t>(type);
  std::memcpy(h + 4, &request_id, sizeof(request_id));
  const uint32_t len = static_cast<uint32_t>(payload_len);
  std::memcpy(h + 8, &len, sizeof(len));
}

void AppendFrame(FrameType type, uint32_t request_id, const uint8_t* payload,
                 size_t payload_len, std::vector<uint8_t>* out) {
  AppendFrameHeader(type, request_id, payload_len, out);
  if (payload_len > 0) {
    out->insert(out->end(), payload, payload + payload_len);
  }
}

std::vector<uint8_t> EncodeFrame(FrameType type, uint32_t request_id,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  AppendFrame(type, request_id, payload.data(), payload.size(), &out);
  return out;
}

void FrameDecoder::Feed(const uint8_t* data, size_t n) {
  // Reclaim the consumed prefix once it is either everything (cheap
  // clear) or large enough that the memmove pays for itself.
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  } else if (head_ > kCompactThreshold) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

FrameDecoder::Result FrameDecoder::Next(Frame* out) {
  if (!error_.ok()) return Result::kError;
  if (buffered() < kFrameHeaderBytes) return Result::kNeedMore;
  const uint8_t* h = buffer_.data() + head_;
  uint16_t magic = 0;
  std::memcpy(&magic, h, sizeof(magic));
  if (magic != kFrameMagic) {
    error_ = Malformed("bad frame magic");
    return Result::kError;
  }
  if (h[2] != kProtocolVersion) {
    error_ = Malformed("unsupported protocol version");
    return Result::kError;
  }
  uint32_t length = 0;
  std::memcpy(&length, h + 8, sizeof(length));
  if (length > max_payload_) {
    error_ = Malformed("oversized frame payload");
    return Result::kError;
  }
  if (buffered() < kFrameHeaderBytes + length) return Result::kNeedMore;
  out->type = static_cast<FrameType>(h[3]);
  std::memcpy(&out->request_id, h + 4, sizeof(out->request_id));
  out->payload.assign(h + kFrameHeaderBytes, h + kFrameHeaderBytes + length);
  head_ += kFrameHeaderBytes + length;
  return Result::kFrame;
}

// -- Request payloads --------------------------------------------------------

std::vector<uint8_t> EncodeNnRequest(const NnRequest& req) {
  ByteWriter writer;
  writer.Append(req.q.x);
  writer.Append(req.q.y);
  writer.AppendVarCount(req.k);
  return writer.Take();
}

std::vector<uint8_t> EncodeWindowRequest(const WindowRequest& req) {
  ByteWriter writer;
  writer.Append(req.focus.x);
  writer.Append(req.focus.y);
  writer.Append(req.hx);
  writer.Append(req.hy);
  return writer.Take();
}

std::vector<uint8_t> EncodeRangeRequest(const RangeRequest& req) {
  ByteWriter writer;
  writer.Append(req.focus.x);
  writer.Append(req.focus.y);
  writer.Append(req.radius);
  return writer.Take();
}

std::vector<uint8_t> EncodeServerInfo(const core::ServiceInfo& info) {
  ByteWriter writer;
  writer.Append(info.universe.min_x);
  writer.Append(info.universe.min_y);
  writer.Append(info.universe.max_x);
  writer.Append(info.universe.max_y);
  writer.Append(info.points);
  writer.Append(static_cast<uint8_t>(info.cache_enabled ? 1 : 0));
  writer.AppendVarCount(info.fragments.size());
  for (const core::FragmentStat& f : info.fragments) {
    writer.Append(f.mbr.min_x);
    writer.Append(f.mbr.min_y);
    writer.Append(f.mbr.max_x);
    writer.Append(f.mbr.max_y);
    writer.Append(f.points);
    writer.Append(f.cache_lookups);
    writer.Append(f.cache_hits);
  }
  return writer.Take();
}

StatusOr<NnRequest> DecodeNnRequest(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  NnRequest req;
  if (!ReadFinite(&reader, &req.q.x) || !ReadFinite(&reader, &req.q.y)) {
    return Malformed("malformed NN request");
  }
  if (!reader.TryReadVarCount(&req.k)) return Malformed("malformed NN request");
  if (!reader.AtEnd()) return Malformed("trailing bytes in NN request");
  if (req.k == 0 || req.k > kMaxRequestK) {
    return Malformed("NN request k out of range");
  }
  return req;
}

StatusOr<WindowRequest> DecodeWindowRequest(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  WindowRequest req;
  if (!ReadFinite(&reader, &req.focus.x) || !ReadFinite(&reader, &req.focus.y) ||
      !ReadFinite(&reader, &req.hx) || !ReadFinite(&reader, &req.hy)) {
    return Malformed("malformed window request");
  }
  if (!reader.AtEnd()) return Malformed("trailing bytes in window request");
  if (req.hx <= 0.0 || req.hy <= 0.0) {
    return Malformed("non-positive window extents");
  }
  return req;
}

StatusOr<RangeRequest> DecodeRangeRequest(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  RangeRequest req;
  if (!ReadFinite(&reader, &req.focus.x) ||
      !ReadFinite(&reader, &req.focus.y) ||
      !ReadFinite(&reader, &req.radius)) {
    return Malformed("malformed range request");
  }
  if (!reader.AtEnd()) return Malformed("trailing bytes in range request");
  if (req.radius <= 0.0) return Malformed("non-positive range radius");
  return req;
}

StatusOr<core::ServiceInfo> DecodeServerInfo(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  core::ServiceInfo info;
  if (!ReadFinite(&reader, &info.universe.min_x) ||
      !ReadFinite(&reader, &info.universe.min_y) ||
      !ReadFinite(&reader, &info.universe.max_x) ||
      !ReadFinite(&reader, &info.universe.max_y)) {
    return Malformed("malformed server info");
  }
  if (!reader.TryRead(&info.points)) return Malformed("malformed server info");
  uint8_t cache_flag = 0;
  if (!reader.TryRead(&cache_flag)) return Malformed("malformed server info");
  uint32_t num_fragments = 0;
  if (!reader.TryReadVarCount(&num_fragments)) {
    return Malformed("malformed server info");
  }
  if (num_fragments > kMaxInfoFragments) {
    return Malformed("server info fragment count out of range");
  }
  info.fragments.reserve(num_fragments);
  for (size_t i = 0; i < num_fragments; ++i) {
    core::FragmentStat f;
    // A fragment MBR must be finite but may be empty (no points yet);
    // the points/lookups/hits counters are unconstrained.
    if (!ReadFinite(&reader, &f.mbr.min_x) ||
        !ReadFinite(&reader, &f.mbr.min_y) ||
        !ReadFinite(&reader, &f.mbr.max_x) ||
        !ReadFinite(&reader, &f.mbr.max_y) || !reader.TryRead(&f.points) ||
        !reader.TryRead(&f.cache_lookups) || !reader.TryRead(&f.cache_hits)) {
      return Malformed("malformed server info fragment");
    }
    info.fragments.push_back(f);
  }
  if (!reader.AtEnd()) return Malformed("trailing bytes in server info");
  if (info.universe.IsEmpty()) return Malformed("empty server universe");
  info.cache_enabled = cache_flag != 0;
  return info;
}

// -- Subscription payloads ---------------------------------------------------

std::vector<uint8_t> EncodeSubscribeRequest(const SubscribeRequest& req) {
  ByteWriter writer;
  writer.Append(static_cast<uint8_t>(req.kind));
  writer.Append(req.position.x);
  writer.Append(req.position.y);
  writer.Append(req.velocity.dx);
  writer.Append(req.velocity.dy);
  switch (req.kind) {
    case SubscribeKind::kNn:
      writer.AppendVarCount(req.k);
      break;
    case SubscribeKind::kWindow:
      writer.Append(req.hx);
      writer.Append(req.hy);
      break;
    case SubscribeKind::kRange:
      writer.Append(req.radius);
      break;
  }
  return writer.Take();
}

std::vector<uint8_t> EncodePushEnvelope(const geo::Point& at,
                                        const uint8_t* answer,
                                        size_t answer_len) {
  ByteWriter writer;
  writer.Append(at.x);
  writer.Append(at.y);
  std::vector<uint8_t> out = writer.Take();
  out.insert(out.end(), answer, answer + answer_len);
  return out;
}

std::vector<uint8_t> EncodeRevokeNotice(const RevokeNotice& notice) {
  ByteWriter writer;
  writer.Append(static_cast<uint8_t>(notice.reason));
  return writer.Take();
}

StatusOr<SubscribeRequest> DecodeSubscribeRequest(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  SubscribeRequest req;
  uint8_t kind = 0;
  if (!reader.TryRead(&kind)) return Malformed("malformed subscribe request");
  if (!ReadFinite(&reader, &req.position.x) ||
      !ReadFinite(&reader, &req.position.y) ||
      !ReadFinite(&reader, &req.velocity.dx) ||
      !ReadFinite(&reader, &req.velocity.dy)) {
    return Malformed("malformed subscribe request");
  }
  switch (static_cast<SubscribeKind>(kind)) {
    case SubscribeKind::kNn:
      req.kind = SubscribeKind::kNn;
      if (!reader.TryReadVarCount(&req.k)) {
        return Malformed("malformed subscribe request");
      }
      if (req.k == 0 || req.k > kMaxRequestK) {
        return Malformed("subscribe request k out of range");
      }
      break;
    case SubscribeKind::kWindow:
      req.kind = SubscribeKind::kWindow;
      if (!ReadFinite(&reader, &req.hx) || !ReadFinite(&reader, &req.hy)) {
        return Malformed("malformed subscribe request");
      }
      if (req.hx <= 0.0 || req.hy <= 0.0) {
        return Malformed("non-positive subscribe window extents");
      }
      break;
    case SubscribeKind::kRange:
      req.kind = SubscribeKind::kRange;
      if (!ReadFinite(&reader, &req.radius)) {
        return Malformed("malformed subscribe request");
      }
      if (req.radius <= 0.0) {
        return Malformed("non-positive subscribe radius");
      }
      break;
    default:
      return Malformed("unknown subscribe kind");
  }
  if (!reader.AtEnd()) return Malformed("trailing bytes in subscribe request");
  return req;
}

StatusOr<PushEnvelope> DecodePushEnvelope(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  PushEnvelope env;
  if (!ReadFinite(&reader, &env.at.x) || !ReadFinite(&reader, &env.at.y)) {
    return Malformed("malformed push envelope");
  }
  // Everything after the crossing point is the wire answer, verbatim. An
  // empty answer is malformed — the server never pushes nothing.
  if (reader.remaining() == 0) return Malformed("empty push answer");
  env.answer.assign(payload.end() - static_cast<ptrdiff_t>(reader.remaining()),
                    payload.end());
  return env;
}

StatusOr<RevokeNotice> DecodeRevokeNotice(
    const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  RevokeNotice notice;
  uint8_t reason = 0;
  if (!reader.TryRead(&reason)) return Malformed("malformed revoke notice");
  if (!reader.AtEnd()) return Malformed("trailing bytes in revoke notice");
  switch (static_cast<RevokeReason>(reason)) {
    case RevokeReason::kRegionKilled:
    case RevokeReason::kCapacity:
      notice.reason = static_cast<RevokeReason>(reason);
      return notice;
  }
  return Malformed("unknown revoke reason");
}

// -- Error payloads ----------------------------------------------------------

std::vector<uint8_t> EncodeErrorPayload(const Status& status) {
  const std::string& message = status.message();
  const size_t len = std::min(message.size(), kMaxErrorMessageBytes);
  std::vector<uint8_t> out(1 + len);
  out[0] = static_cast<uint8_t>(status.code());
  if (len > 0) std::memcpy(out.data() + 1, message.data(), len);
  return out;
}

Status DecodeErrorPayload(const std::vector<uint8_t>& payload) {
  if (payload.empty()) {
    return Status::InvalidArgument("error frame with empty payload");
  }
  const uint8_t code = payload[0];
  std::string message(payload.begin() + 1, payload.end());
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kDataLoss:
      return Status::DataLoss(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
    case StatusCode::kInternal:
      return Status::Internal(std::move(message));
    case StatusCode::kOk:
      break;  // an "OK error" is itself malformed; fall through
  }
  return Status::InvalidArgument("error frame with unknown status code: " +
                                 message);
}

}  // namespace lbsq::net
