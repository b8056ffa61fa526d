#include "net/net_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace lbsq::net {

namespace {

Status Errno(const char* what) {
  return Status::Unavailable(std::string(what) + ": " +
                             std::strerror(errno));
}

}  // namespace

Status NetClient::Connect(const std::string& host, uint16_t port) {
  Close();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Errno("socket");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status status = Errno("connect");
    Close();
    return status;
  }
  const int one = 1;
  (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  next_request_id_ = 1;
  decoder_ = FrameDecoder();
  out_.clear();
  push_inbox_.clear();
  return Status::Ok();
}

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  out_.clear();
  push_inbox_.clear();
}

Status NetClient::Flush() {
  if (out_.empty()) return Status::Ok();
  if (fd_ < 0) return Status::Unavailable("not connected");
  size_t sent = 0;
  while (sent < out_.size()) {
    const ssize_t n =
        ::send(fd_, out_.data() + sent, out_.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Errno("send");
      Close();
      return status;
    }
    sent += static_cast<size_t>(n);
  }
  out_.clear();
  return Status::Ok();
}

StatusOr<uint32_t> NetClient::SendRequest(FrameType type,
                                          const std::vector<uint8_t>& payload) {
  if (fd_ < 0) return Status::Unavailable("not connected");
  const uint32_t id = next_request_id_++;
  AppendFrame(type, id, payload.data(), payload.size(), &out_);
  if (out_.size() >= kClientCorkBytes) {
    LBSQ_RETURN_IF_ERROR(Flush());
  }
  return id;
}

StatusOr<uint32_t> NetClient::SendNn(const geo::Point& q, uint32_t k) {
  return SendRequest(FrameType::kNnRequest, EncodeNnRequest({q, k}));
}

StatusOr<uint32_t> NetClient::SendWindow(const geo::Point& focus, double hx,
                                         double hy) {
  return SendRequest(FrameType::kWindowRequest,
                     EncodeWindowRequest({focus, hx, hy}));
}

StatusOr<uint32_t> NetClient::SendRange(const geo::Point& focus,
                                        double radius) {
  return SendRequest(FrameType::kRangeRequest,
                     EncodeRangeRequest({focus, radius}));
}

StatusOr<uint32_t> NetClient::SendPing(const std::vector<uint8_t>& payload) {
  return SendRequest(FrameType::kPing, payload);
}

StatusOr<uint32_t> NetClient::SendInfoRequest() {
  return SendRequest(FrameType::kInfoRequest, {});
}

StatusOr<uint32_t> NetClient::SendSubscribe(const SubscribeRequest& req) {
  return SendRequest(FrameType::kSubscribe, EncodeSubscribeRequest(req));
}

StatusOr<NetClient::Reply> NetClient::ReceiveAny() {
  if (fd_ < 0) return Status::Unavailable("not connected");
  Frame frame;
  for (;;) {
    const FrameDecoder::Result result = decoder_.Next(&frame);
    if (result == FrameDecoder::Result::kFrame) break;
    if (result == FrameDecoder::Result::kError) {
      const Status status = decoder_.error();
      Close();
      return status;
    }
    // About to block on the socket: corked requests must hit the wire
    // first or the server has nothing to answer.
    LBSQ_RETURN_IF_ERROR(Flush());
    uint8_t chunk[16 << 10];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      decoder_.Feed(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const Status status = n == 0
                              ? Status::Unavailable("server closed connection")
                              : Errno("recv");
    Close();
    return status;
  }
  Reply reply;
  reply.request_id = frame.request_id;
  reply.type = frame.type;
  reply.payload = std::move(frame.payload);
  if (reply.type == FrameType::kError) {
    reply.error = DecodeErrorPayload(reply.payload);
  }
  return reply;
}

StatusOr<NetClient::Reply> NetClient::Receive() {
  for (;;) {
    StatusOr<Reply> reply = ReceiveAny();
    if (!reply.ok()) return reply;
    if (!IsUnsolicitedFrame(reply->type)) return reply;
    push_inbox_.push_back(std::move(reply).value());
  }
}

bool NetClient::TakePush(Reply* out) {
  if (push_inbox_.empty()) return false;
  *out = std::move(push_inbox_.front());
  push_inbox_.pop_front();
  return true;
}

StatusOr<NetClient::Reply> NetClient::WaitPush(int timeout_ms) {
  Reply stashed;
  if (TakePush(&stashed)) return stashed;
  if (fd_ < 0) return Status::Unavailable("not connected");
  LBSQ_RETURN_IF_ERROR(Flush());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    // Drain whatever the decoder already holds before touching poll.
    Frame frame;
    const FrameDecoder::Result result = decoder_.Next(&frame);
    if (result == FrameDecoder::Result::kError) {
      const Status status = decoder_.error();
      Close();
      return status;
    }
    if (result == FrameDecoder::Result::kFrame) {
      if (!IsUnsolicitedFrame(frame.type)) {
        // WaitPush contract: no outstanding requests, so a solicited
        // frame here means the caller lost track of the pipeline.
        return Status::InvalidArgument(
            "solicited frame while waiting for a push");
      }
      Reply reply;
      reply.request_id = frame.request_id;
      reply.type = frame.type;
      reply.payload = std::move(frame.payload);
      return reply;
    }
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      return Status::Unavailable("push wait timed out");
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      const Status status = Errno("poll");
      Close();
      return status;
    }
    if (ready == 0) return Status::Unavailable("push wait timed out");
    uint8_t chunk[16 << 10];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      decoder_.Feed(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const Status status = n == 0
                              ? Status::Unavailable("server closed connection")
                              : Errno("recv");
    Close();
    return status;
  }
}

StatusOr<std::vector<uint8_t>> NetClient::ReceiveAnswer() {
  StatusOr<Reply> reply = Receive();
  if (!reply.ok()) return reply.status();
  if (reply->type == FrameType::kError) return reply->error;
  if (reply->type != FrameType::kAnswer) {
    return Status::InvalidArgument("unexpected reply frame type");
  }
  return std::move(reply->payload);
}

StatusOr<std::vector<uint8_t>> NetClient::NnQueryWire(const geo::Point& q,
                                                      uint32_t k) {
  StatusOr<uint32_t> id = SendNn(q, k);
  if (!id.ok()) return id.status();
  return ReceiveAnswer();
}

StatusOr<std::vector<uint8_t>> NetClient::WindowQueryWire(
    const geo::Point& focus, double hx, double hy) {
  StatusOr<uint32_t> id = SendWindow(focus, hx, hy);
  if (!id.ok()) return id.status();
  return ReceiveAnswer();
}

StatusOr<std::vector<uint8_t>> NetClient::RangeQueryWire(
    const geo::Point& focus, double radius) {
  StatusOr<uint32_t> id = SendRange(focus, radius);
  if (!id.ok()) return id.status();
  return ReceiveAnswer();
}

Status NetClient::Ping() {
  const std::vector<uint8_t> payload = {'p', 'i', 'n', 'g'};
  StatusOr<uint32_t> id = SendPing(payload);
  if (!id.ok()) return id.status();
  StatusOr<Reply> reply = Receive();
  if (!reply.ok()) return reply.status();
  if (reply->type == FrameType::kError) return reply->error;
  if (reply->type != FrameType::kPong || reply->payload != payload) {
    return Status::InvalidArgument("malformed pong");
  }
  return Status::Ok();
}

StatusOr<std::vector<uint8_t>> NetClient::Subscribe(
    const SubscribeRequest& req, uint32_t* subscription_id) {
  StatusOr<uint32_t> id = SendSubscribe(req);
  if (!id.ok()) return id.status();
  StatusOr<std::vector<uint8_t>> answer = ReceiveAnswer();
  if (answer.ok() && subscription_id != nullptr) *subscription_id = *id;
  return answer;
}

StatusOr<core::ServiceInfo> NetClient::Info() {
  StatusOr<uint32_t> id = SendInfoRequest();
  if (!id.ok()) return id.status();
  StatusOr<Reply> reply = Receive();
  if (!reply.ok()) return reply.status();
  if (reply->type == FrameType::kError) return reply->error;
  if (reply->type != FrameType::kInfo) {
    return Status::InvalidArgument("unexpected reply frame type");
  }
  return DecodeServerInfo(reply->payload);
}

}  // namespace lbsq::net
