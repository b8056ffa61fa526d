#include "net/event_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/write_queue.h"

namespace lbsq::net {

namespace {

Status Errno(const char* what) {
  return Status::Unavailable(std::string(what) + ": " +
                             std::strerror(errno));
}

void SetNoDelay(int fd) {
  const int one = 1;
  // Best effort: Nagle off matters for latency, not correctness.
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

struct EventLoop::Connection final : ReplySink {
  Connection(int fd_in, uint64_t id_in, size_t max_payload, NetStats* stats_in)
      : fd(fd_in), id(id_in), decoder(max_payload), stats(stats_in) {}

  size_t pending_write() const { return out.pending(); }

  void Send(FrameType type, uint32_t request_id, const uint8_t* payload,
            size_t payload_len) override {
    AppendFrame(type, request_id, payload, payload_len,
                out.AppendableBuffer());
    out.BytesAppended(kFrameHeaderBytes + payload_len);
    stats->bytes_copied += kFrameHeaderBytes + payload_len;
    ++stats->frames_out;
  }
  using ReplySink::Send;

  // Cache-hit fast path: the framing header goes into the owned buffer,
  // the answer payload is queued by reference — no copy, and the queue's
  // reference keeps the bytes alive past any cache eviction until the
  // socket drains them. (WriteQueue still copies payloads too small to
  // be worth an iovec; the stats record which path ran.)
  void SendShared(FrameType type, uint32_t request_id,
                  const SharedPayload& payload) override {
    AppendFrameHeader(type, request_id, payload->size(),
                      out.AppendableBuffer());
    out.BytesAppended(kFrameHeaderBytes);
    stats->bytes_copied += kFrameHeaderBytes;
    if (out.AppendShared(payload)) {
      stats->bytes_zero_copy += payload->size();
    } else {
      stats->bytes_copied += payload->size();
    }
    ++stats->frames_out;
  }

  int fd = -1;
  uint64_t id = 0;
  FrameDecoder decoder;
  WriteQueue out;
  bool close_after_flush = false;
  bool drop_on_close = false;  // the pending close counts as a drop
  Clock::time_point last_activity{};
  Clock::time_point partial_since{};
  bool has_partial = false;
  NetStats* stats = nullptr;
};

EventLoop::EventLoop(FrameHandler* handler, const NetOptions& options)
    : handler_(handler),
      options_(options),
      read_buffer_(options.read_chunk_bytes) {}

EventLoop::~EventLoop() {
  for (auto& conn : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

Status EventLoop::Listen() {
  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    return Errno("pipe2");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, options_.backlog) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return Status::Ok();
}

void EventLoop::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  const uint8_t byte = 1;
  if (wake_pipe_[1] >= 0) {
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void EventLoop::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  const uint8_t byte = 1;
  if (wake_pipe_[1] >= 0) {
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void EventLoop::Wake() {
  const uint8_t byte = 1;
  if (wake_pipe_[1] >= 0) {
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void EventLoop::DrainWakePipe() {
  uint8_t scratch[64];
  while (::read(wake_pipe_[0], scratch, sizeof(scratch)) > 0) {
  }
}

void EventLoop::CloseConnection(Connection* conn, bool clean) {
  if (conn->fd < 0) return;
  ::close(conn->fd);
  conn->fd = -1;
  if (clean) {
    ++stats_.clean_closes;
  } else {
    ++stats_.drops;
  }
  // Every close path funnels through here, so the handler can release
  // per-connection state (push subscriptions) exactly once, before the
  // Connection object — and its ReplySink — goes away.
  handler_->OnClose(conn->id);
}

void EventLoop::AcceptPending(Clock::time_point now) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error; poll again
    }
    if (connections_.size() >= options_.max_connections) {
      ++stats_.refused;
      ::close(fd);
      continue;
    }
    SetNoDelay(fd);
    ++stats_.accepts;
    auto conn = std::make_unique<Connection>(
        fd, next_connection_id_++, options_.max_payload_bytes, &stats_);
    conn->last_activity = now;
    connections_.push_back(std::move(conn));
  }
}

void EventLoop::DispatchFrames(Connection* conn) {
  Frame frame;
  for (;;) {
    const FrameDecoder::Result result = conn->decoder.Next(&frame);
    if (result == FrameDecoder::Result::kNeedMore) break;
    if (result == FrameDecoder::Result::kError) {
      if (!conn->close_after_flush) {
        ++stats_.protocol_errors;
        conn->Send(FrameType::kError, 0,
                   EncodeErrorPayload(conn->decoder.error()));
        conn->close_after_flush = true;
        conn->drop_on_close = true;
      }
      break;
    }
    ++stats_.frames_in;
    handler_->OnFrame(conn->id, frame, conn);
  }
}

bool EventLoop::HandleReadable(Connection* conn, Clock::time_point now) {
  std::vector<uint8_t>& chunk = read_buffer_;
  bool got_bytes = false;
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk.data(), chunk.size(), 0);
    if (n > 0) {
      stats_.bytes_in += static_cast<uint64_t>(n);
      conn->decoder.Feed(chunk.data(), static_cast<size_t>(n));
      got_bytes = true;
      if (static_cast<size_t>(n) < chunk.size()) break;
      // A full chunk: more may be waiting, but cap the time spent on one
      // connection so a firehose peer cannot starve the others.
      if (conn->decoder.buffered() >= options_.write_buffer_limit) break;
      continue;
    }
    if (n == 0) {
      // Peer EOF. Mid-frame (or after a framing error) it is a drop;
      // on a clean frame boundary it is the normal end of a session.
      DispatchFrames(conn);
      const bool clean =
          conn->decoder.error().ok() && !conn->decoder.mid_frame() &&
          !conn->drop_on_close;
      CloseConnection(conn, clean);
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn, /*clean=*/false);  // ECONNRESET and friends
    return false;
  }
  if (got_bytes) {
    conn->last_activity = now;
    DispatchFrames(conn);
    if (conn->decoder.error().ok() && conn->decoder.mid_frame()) {
      if (!conn->has_partial) {
        conn->has_partial = true;
        conn->partial_since = now;
      }
    } else {
      conn->has_partial = false;
    }
  }
  return true;
}

bool EventLoop::FlushWrites(Connection* conn) {
  // Scatter-gather flush: every queued segment (coalesced owned buffers
  // plus zero-copy cache payloads) goes out in as few sendmsg calls as
  // possible, instead of one send() per frame.
  while (!conn->out.empty()) {
    struct iovec iov[kMaxIovPerSend];
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = conn->out.BuildIovecs(iov, kMaxIovPerSend);
    ++stats_.writev_calls;
    stats_.writev_iovecs += static_cast<uint64_t>(msg.msg_iovlen);
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out.Consume(static_cast<size_t>(n));
      stats_.bytes_out += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    CloseConnection(conn, /*clean=*/false);  // broken pipe / reset
    return false;
  }
  if (conn->close_after_flush) {
    CloseConnection(conn, /*clean=*/!conn->drop_on_close);
    return false;
  }
  return true;
}

bool EventLoop::EnforceDeadlines(Connection* conn, Clock::time_point now) {
  using std::chrono::milliseconds;
  if (draining_) return true;  // the drain deadline governs instead
  if (conn->has_partial &&
      now - conn->partial_since >= milliseconds(options_.partial_frame_timeout_ms)) {
    ++stats_.partial_frame_timeouts;
    CloseConnection(conn, /*clean=*/false);
    return false;
  }
  if (now - conn->last_activity >= milliseconds(options_.idle_timeout_ms)) {
    ++stats_.idle_timeouts;
    CloseConnection(conn, /*clean=*/false);
    return false;
  }
  return true;
}

int EventLoop::NextTimeoutMs(Clock::time_point now) const {
  using std::chrono::ceil;
  using std::chrono::milliseconds;
  Clock::time_point earliest = Clock::time_point::max();
  if (draining_) {
    earliest = drain_deadline_;
  } else {
    for (const auto& conn : connections_) {
      earliest = std::min(
          earliest,
          conn->last_activity + milliseconds(options_.idle_timeout_ms));
      if (conn->has_partial) {
        earliest = std::min(
            earliest,
            conn->partial_since +
                milliseconds(options_.partial_frame_timeout_ms));
      }
    }
  }
  int timeout = -1;
  if (earliest != Clock::time_point::max()) {
    if (earliest <= now) return 0;
    const auto remaining = ceil<milliseconds>(earliest - now).count();
    timeout = static_cast<int>(std::min<long long>(remaining, 60'000));
  }
  // The handler's next scheduled work (the next due push) caps the
  // sleep too; pure event-driven serving keeps timeout = -1.
  if (tick_hint_ms_ >= 0 && (timeout < 0 || tick_hint_ms_ < timeout)) {
    timeout = tick_hint_ms_;
  }
  return timeout;
}

uint64_t EventLoop::Run() {
  uint64_t iterations = 0;
  std::vector<pollfd> pollfds;
  for (;;) {
    ++iterations;
    if (stop_requested_.load(std::memory_order_acquire)) break;
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      drain_deadline_ =
          Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
    }
    if (draining_) {
      // Close every connection that owes nothing; kill stragglers once
      // the drain deadline passes; done when none remain.
      const Clock::time_point now = Clock::now();
      for (auto& conn : connections_) {
        if (conn->fd < 0) continue;
        if (conn->pending_write() == 0) {
          CloseConnection(conn.get(), /*clean=*/!conn->drop_on_close);
        } else if (now >= drain_deadline_) {
          CloseConnection(conn.get(), /*clean=*/false);
        }
      }
      std::erase_if(connections_,
                    [](const auto& conn) { return conn->fd < 0; });
      if (connections_.empty()) break;
    }

    // Scheduled handler work runs before the poll set is built, so the
    // hint sees subscriptions registered during the previous read phase
    // and the poll timeout is bounded by the next due push.
    tick_hint_ms_ = draining_ ? -1 : handler_->OnTick();

    pollfds.clear();
    pollfds.push_back({wake_pipe_[0], POLLIN, 0});
    const bool accepting = !draining_ && listen_fd_ >= 0;
    if (accepting) pollfds.push_back({listen_fd_, POLLIN, 0});
    const size_t conn_base = pollfds.size();
    const size_t polled_connections = connections_.size();
    for (const auto& conn : connections_) {
      short events = 0;
      const bool backpressured =
          conn->pending_write() > options_.write_buffer_limit;
      if (!draining_ && !conn->close_after_flush && !backpressured) {
        events |= POLLIN;
      }
      if (conn->pending_write() > 0) events |= POLLOUT;
      pollfds.push_back({conn->fd, events, 0});
    }

    const int timeout = NextTimeoutMs(Clock::now());
    const int ready = ::poll(pollfds.data(), pollfds.size(), timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failing is unrecoverable for this loop
    }
    const Clock::time_point now = Clock::now();
    if (pollfds[0].revents & POLLIN) {
      DrainWakePipe();
      if (stop_requested_.load(std::memory_order_acquire)) break;
      // A wake means off-thread work arrived (a posted update, a virtual
      // clock advance) — run it before any socket read. Work posted
      // before a peer's bytes were sent is therefore handled before
      // those bytes are read: a sync ping sent after an update always
      // trails the update's corrective pushes in the reply stream.
      if (!draining_) (void)handler_->OnTick();
    }
    if (stop_requested_.load(std::memory_order_acquire)) break;
    if (accepting && (pollfds[1].revents & POLLIN)) AcceptPending(now);

    // Only the connections that were polled have a pollfd entry;
    // AcceptPending may have appended more, which wait for next round.
    for (size_t i = 0; i < polled_connections; ++i) {
      Connection* conn = connections_[i].get();
      if (conn->fd < 0) continue;
      const short revents = pollfds[conn_base + i].revents;
      if (revents & (POLLIN | POLLERR | POLLHUP)) {
        if (!HandleReadable(conn, now)) continue;
      }
      if (conn->pending_write() > 0 || conn->close_after_flush) {
        if (!FlushWrites(conn)) continue;
      }
      (void)EnforceDeadlines(conn, now);
    }
    std::erase_if(connections_,
                  [](const auto& conn) { return conn->fd < 0; });
  }

  // Stop (or poll failure): whatever is still open goes down hard.
  for (auto& conn : connections_) {
    if (conn->fd >= 0) CloseConnection(conn.get(), /*clean=*/false);
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  return iterations;
}

}  // namespace lbsq::net
