// End-to-end tests of the TCP serving subsystem (src/net): frame codec
// round-trips and rejections, the poll loop over real loopback sockets,
// request routing to Server::*QueryWire, pipelining, per-request error
// recovery, the connection cap, and graceful drain. The differential
// property throughout: bytes received over the socket are bit-identical
// to what the in-process wire path returns for the same query.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/semantic_cache.h"
#include "core/server.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/write_queue.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace lbsq::net {
namespace {

using test::SmallNodeOptions;
using test::TreeFixture;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

// -- Frame codec -------------------------------------------------------------

TEST(FrameTest, RoundTripsSingleFrame) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> bytes =
      EncodeFrame(FrameType::kPing, 42, payload);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());

  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPing);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kNeedMore);
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(FrameTest, DecodesManyFramesFromOneFeed) {
  std::vector<uint8_t> stream;
  for (uint32_t id = 0; id < 10; ++id) {
    const std::vector<uint8_t> payload(id, static_cast<uint8_t>(id));
    AppendFrame(FrameType::kAnswer, id, payload.data(), payload.size(),
                &stream);
  }
  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  Frame frame;
  for (uint32_t id = 0; id < 10; ++id) {
    ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
    EXPECT_EQ(frame.request_id, id);
    EXPECT_EQ(frame.payload.size(), id);
  }
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kNeedMore);
}

TEST(FrameTest, ByteAtATimeFeedMatchesWholeFeed) {
  std::vector<uint8_t> stream;
  const std::vector<uint8_t> payload = {9, 8, 7};
  AppendFrame(FrameType::kNnRequest, 7, payload.data(), payload.size(),
              &stream);
  AppendFrame(FrameType::kPing, 8, nullptr, 0, &stream);

  FrameDecoder decoder;
  Frame frame;
  std::vector<Frame> got;
  for (const uint8_t byte : stream) {
    decoder.Feed(&byte, 1);
    while (decoder.Next(&frame) == FrameDecoder::Result::kFrame) {
      got.push_back(frame);
    }
    EXPECT_TRUE(decoder.error().ok());
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].request_id, 7u);
  EXPECT_EQ(got[0].payload, payload);
  EXPECT_EQ(got[1].type, FrameType::kPing);
  EXPECT_TRUE(got[1].payload.empty());
}

TEST(FrameTest, BadMagicLatchesError) {
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, 1, {});
  bytes[0] ^= 0xff;
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
  EXPECT_FALSE(decoder.error().ok());
  // Latched: feeding a perfectly valid frame afterwards cannot recover.
  const std::vector<uint8_t> good = EncodeFrame(FrameType::kPing, 2, {});
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
}

TEST(FrameTest, BadVersionLatchesError) {
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, 1, {});
  bytes[2] = kProtocolVersion + 1;
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
}

TEST(FrameTest, OversizedLengthLatchesErrorWithoutBuffering) {
  // Header claims a payload far over the cap; the decoder must reject on
  // the header alone, never waiting for (or allocating) the payload.
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, 1, {});
  const uint32_t huge = 0x7fffffff;
  std::memcpy(bytes.data() + 8, &huge, sizeof(huge));
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), kFrameHeaderBytes);
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kError);
}

TEST(FrameTest, HeaderFragmentNeedsMore) {
  const std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, 1, {1, 2});
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), kFrameHeaderBytes - 1);
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kNeedMore);
  EXPECT_TRUE(decoder.mid_frame());
  decoder.Feed(bytes.data() + kFrameHeaderBytes - 1,
               bytes.size() - (kFrameHeaderBytes - 1));
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_FALSE(decoder.mid_frame());
}

// -- Request payload codecs --------------------------------------------------

TEST(FrameTest, RequestPayloadsRoundTrip) {
  const NnRequest nn{{0.25, 0.75}, 7};
  const auto nn2 = DecodeNnRequest(EncodeNnRequest(nn));
  ASSERT_TRUE(nn2.ok());
  EXPECT_EQ(nn2->q.x, nn.q.x);
  EXPECT_EQ(nn2->q.y, nn.q.y);
  EXPECT_EQ(nn2->k, nn.k);

  const WindowRequest win{{0.5, 0.5}, 0.01, 0.02};
  const auto win2 = DecodeWindowRequest(EncodeWindowRequest(win));
  ASSERT_TRUE(win2.ok());
  EXPECT_EQ(win2->hx, win.hx);
  EXPECT_EQ(win2->hy, win.hy);

  const RangeRequest range{{0.5, 0.5}, 0.03};
  const auto range2 = DecodeRangeRequest(EncodeRangeRequest(range));
  ASSERT_TRUE(range2.ok());
  EXPECT_EQ(range2->radius, range.radius);

  const core::ServiceInfo info{kUnit, 12345, true, {}};
  const auto info2 = DecodeServerInfo(EncodeServerInfo(info));
  ASSERT_TRUE(info2.ok());
  EXPECT_EQ(info2->universe, kUnit);
  EXPECT_EQ(info2->points, 12345u);
  EXPECT_TRUE(info2->cache_enabled);
}

TEST(FrameTest, RequestDecodersRejectBadDomains) {
  // k out of range.
  EXPECT_FALSE(DecodeNnRequest(EncodeNnRequest({{0.5, 0.5}, 0})).ok());
  EXPECT_FALSE(
      DecodeNnRequest(EncodeNnRequest({{0.5, 0.5}, kMaxRequestK + 1})).ok());
  // Non-finite coordinate.
  const double nan = std::nan("");
  EXPECT_FALSE(DecodeNnRequest(EncodeNnRequest({{nan, 0.5}, 1})).ok());
  // Non-positive extents / radius.
  EXPECT_FALSE(
      DecodeWindowRequest(EncodeWindowRequest({{0.5, 0.5}, 0.0, 0.01})).ok());
  EXPECT_FALSE(
      DecodeWindowRequest(EncodeWindowRequest({{0.5, 0.5}, 0.01, -0.01}))
          .ok());
  EXPECT_FALSE(DecodeRangeRequest(EncodeRangeRequest({{0.5, 0.5}, 0.0})).ok());
  // Truncation and trailing bytes.
  std::vector<uint8_t> bytes = EncodeNnRequest({{0.5, 0.5}, 1});
  bytes.pop_back();
  EXPECT_FALSE(DecodeNnRequest(bytes).ok());
  bytes = EncodeRangeRequest({{0.5, 0.5}, 0.1});
  bytes.push_back(0);
  EXPECT_FALSE(DecodeRangeRequest(bytes).ok());
}

TEST(FrameTest, ErrorPayloadRoundTrips) {
  const Status status = Status::InvalidArgument("bad k");
  const Status decoded = DecodeErrorPayload(EncodeErrorPayload(status));
  EXPECT_EQ(decoded, status);
  // Garbage error payloads still decode to a non-OK status.
  EXPECT_FALSE(DecodeErrorPayload({}).ok());
  EXPECT_FALSE(DecodeErrorPayload({0x00}).ok());   // "OK" error
  EXPECT_FALSE(DecodeErrorPayload({0x77, 'x'}).ok());  // unknown code
}

// -- Loopback serving --------------------------------------------------------

// A NetServer running on its own thread, stopped and joined on Finish()
// (or destruction). stats() is only read after the join.
class ServerHarness {
 public:
  ServerHarness(core::WireService* service, const NetOptions& options)
      : net_(service, options) {}

  ~ServerHarness() {
    if (thread_.joinable()) {
      net_.RequestStop();
      thread_.join();
    }
  }

  [[nodiscard]] Status Start() {
    Status status = net_.Listen();
    if (!status.ok()) return status;
    thread_ = std::thread([this] { net_.Run(); });
    return Status::Ok();
  }

  uint16_t port() const { return net_.port(); }

  NetStats Finish(bool drain = false) {
    if (drain) {
      net_.RequestDrain();
    } else {
      net_.RequestStop();
    }
    thread_.join();
    return net_.stats();
  }

 private:
  NetServer net_;
  std::thread thread_;
};

struct ServedDataset {
  explicit ServedDataset(size_t n = 1500, uint64_t seed = 901)
      : dataset(workload::MakeUnitUniform(n, seed)),
        fx(dataset.entries, 64, SmallNodeOptions()),
        server(fx.tree.get(), kUnit) {}

  workload::Dataset dataset;
  TreeFixture fx;
  core::Server server;
};

TEST(NetServerTest, PingAndInfo) {
  ServedDataset served;
  ServerHarness harness(&served.server, NetOptions{});
  ASSERT_TRUE(harness.Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  const auto info = client.Info();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->universe, kUnit);
  EXPECT_EQ(info->points, served.dataset.entries.size());
  EXPECT_FALSE(info->cache_enabled);
  client.Close();

  const NetStats stats = harness.Finish(/*drain=*/true);
  EXPECT_EQ(stats.accepts, 1u);
  EXPECT_EQ(stats.clean_closes, 1u);
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_EQ(stats.frames_in, 2u);
  EXPECT_EQ(stats.frames_out, 2u);
}

TEST(NetServerTest, AnswersMatchInProcessWireBytes) {
  ServedDataset served;
  const auto queries = workload::MakeHotspotQueries(kUnit, 60, 4, 903, 0.02);

  // Reference bytes computed before the serving thread exists — the
  // engines share the tree's buffer pool, so no concurrent use.
  std::vector<std::vector<uint8_t>> want_nn, want_window, want_range;
  for (const geo::Point& q : queries) {
    want_nn.push_back(served.server.NnQueryWire(q, 5).value());
    want_window.push_back(served.server.WindowQueryWire(q, 0.01, 0.008).value());
    want_range.push_back(served.server.RangeQueryWire(q, 0.02).value());
  }

  ServerHarness harness(&served.server, NetOptions{});
  ASSERT_TRUE(harness.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("localhost", harness.port()).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const geo::Point& q = queries[i];
    const auto nn = client.NnQueryWire(q, 5);
    ASSERT_TRUE(nn.ok()) << nn.status().ToString();
    EXPECT_EQ(*nn, want_nn[i]) << "NN bytes differ at query " << i;
    const auto window = client.WindowQueryWire(q, 0.01, 0.008);
    ASSERT_TRUE(window.ok());
    EXPECT_EQ(*window, want_window[i]);
    const auto range = client.RangeQueryWire(q, 0.02);
    ASSERT_TRUE(range.ok());
    EXPECT_EQ(*range, want_range[i]);
  }
  client.Close();
  const NetStats stats = harness.Finish(/*drain=*/true);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.bad_requests, 0u);
  EXPECT_EQ(stats.query_errors, 0u);
}

TEST(NetServerTest, PipelinedRepliesComeBackInOrder) {
  ServedDataset served;
  const auto queries = workload::MakeHotspotQueries(kUnit, 40, 4, 905, 0.02);
  std::vector<std::vector<uint8_t>> want;
  for (const geo::Point& q : queries) {
    want.push_back(served.server.NnQueryWire(q, 3).value());
  }

  ServerHarness harness(&served.server, NetOptions{});
  ASSERT_TRUE(harness.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());

  std::vector<uint32_t> ids;
  for (const geo::Point& q : queries) {
    const auto id = client.SendNn(q, 3);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto reply = client.Receive();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->request_id, ids[i]) << "reply order broke at " << i;
    ASSERT_EQ(reply->type, FrameType::kAnswer);
    EXPECT_EQ(reply->payload, want[i]);
  }
  client.Close();
  harness.Finish(/*drain=*/true);
}

TEST(NetServerTest, CacheOnSingleConnectionMatchesInProcessReplay) {
  // Two identical trees bulk-loaded from the same dataset. The reference
  // server replays the query sequence in process with the cache on; the
  // served tree must return bit-identical bytes per position — cache
  // hits included, because a single pipelined connection fixes the
  // processing order.
  const auto dataset = workload::MakeUnitUniform(1500, 907);
  TreeFixture reference_fx(dataset.entries, 64, SmallNodeOptions());
  core::Server reference(reference_fx.tree.get(), kUnit);
  TreeFixture served_fx(dataset.entries, 64, SmallNodeOptions());
  core::Server served(served_fx.tree.get(), kUnit);

  cache::CacheConfig config;
  config.enabled = true;
  reference.EnableCache(config);
  served.EnableCache(config);

  const auto queries = workload::MakeHotspotQueries(kUnit, 120, 3, 909, 0.01);
  std::vector<std::vector<uint8_t>> want;
  for (const geo::Point& q : queries) {
    want.push_back(reference.NnQueryWire(q, 4).value());
  }
  ASSERT_GT(reference.cache_stats().hits, 0u) << "workload never hit";

  ServerHarness harness(&served, NetOptions{});
  ASSERT_TRUE(harness.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  for (const geo::Point& q : queries) {
    ASSERT_TRUE(client.SendNn(q, 4).ok());
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto reply = client.Receive();
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, FrameType::kAnswer);
    EXPECT_EQ(reply->payload, want[i]) << "cached bytes differ at " << i;
  }
  client.Close();
  harness.Finish(/*drain=*/true);
  EXPECT_GT(served.cache_stats().hits, 0u);
}

TEST(NetServerTest, BadRequestGetsErrorAndConnectionSurvives) {
  ServedDataset served;
  ServerHarness harness(&served.server, NetOptions{});
  ASSERT_TRUE(harness.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());

  // k = 0 is rejected by the payload codec.
  const auto bad_k = client.NnQueryWire({0.5, 0.5}, 0);
  ASSERT_FALSE(bad_k.ok());
  EXPECT_EQ(bad_k.status().code(), StatusCode::kInvalidArgument);
  // Out-of-universe point is rejected by the server before the engine.
  const auto outside = client.NnQueryWire({7.0, 7.0}, 1);
  ASSERT_FALSE(outside.ok());
  EXPECT_EQ(outside.status().code(), StatusCode::kInvalidArgument);
  // The connection is still fully usable.
  const auto good = client.NnQueryWire({0.5, 0.5}, 1);
  EXPECT_TRUE(good.ok());

  client.Close();
  const NetStats stats = harness.Finish(/*drain=*/true);
  EXPECT_EQ(stats.bad_requests, 2u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.clean_closes, 1u);
}

TEST(NetServerTest, ConnectionCapRefusesExtraClients) {
  ServedDataset served;
  NetOptions options;
  options.max_connections = 2;
  ServerHarness harness(&served.server, options);
  ASSERT_TRUE(harness.Start().ok());

  NetClient a, b, c;
  ASSERT_TRUE(a.Connect("127.0.0.1", harness.port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", harness.port()).ok());
  EXPECT_TRUE(a.Ping().ok());
  EXPECT_TRUE(b.Ping().ok());
  // The third connect() succeeds at the TCP level (the listener accepts
  // then immediately closes), but no request ever gets an answer.
  ASSERT_TRUE(c.Connect("127.0.0.1", harness.port()).ok());
  EXPECT_FALSE(c.Ping().ok());

  a.Close();
  b.Close();
  c.Close();
  const NetStats stats = harness.Finish(/*drain=*/true);
  EXPECT_EQ(stats.accepts, 2u);
  EXPECT_EQ(stats.refused, 1u);
}

TEST(NetServerTest, DrainFlushesPendingRepliesBeforeClosing) {
  ServedDataset served;
  ServerHarness harness(&served.server, NetOptions{});
  ASSERT_TRUE(harness.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.SendPing({static_cast<uint8_t>(i)}).ok());
  }
  // Replies for all ten pings must arrive even though the server starts
  // draining immediately after; then the server closes the connection.
  for (int i = 0; i < 10; ++i) {
    const auto reply = client.Receive();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, FrameType::kPong);
  }
  const NetStats stats = harness.Finish(/*drain=*/true);
  EXPECT_EQ(stats.accepts, 1u);
  EXPECT_EQ(stats.clean_closes + stats.drops, 1u);
  EXPECT_EQ(stats.frames_out, 10u);
}

TEST(NetServerTest, StatsAccountEveryConnection) {
  ServedDataset served;
  ServerHarness harness(&served.server, NetOptions{});
  ASSERT_TRUE(harness.Start().ok());
  for (int i = 0; i < 5; ++i) {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
    EXPECT_TRUE(client.Ping().ok());
    client.Close();
  }
  const NetStats stats = harness.Finish(/*drain=*/true);
  EXPECT_EQ(stats.accepts, 5u);
  EXPECT_EQ(stats.clean_closes + stats.drops, stats.accepts);
  EXPECT_EQ(stats.drops, 0u);
}

// -- Write-path batching stats -----------------------------------------------

TEST(NetServerTest, StatsAccountWritevBatching) {
  ServedDataset served;
  const auto queries = workload::MakeHotspotQueries(kUnit, 40, 4, 911, 0.02);
  ServerHarness harness(&served.server, NetOptions{});
  ASSERT_TRUE(harness.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  for (const geo::Point& q : queries) {
    ASSERT_TRUE(client.SendNn(q, 3).ok());
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto reply = client.Receive();
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, FrameType::kAnswer);
    // Small answers must have taken the coalescing path, staying below
    // the zero-copy cutoff.
    EXPECT_LT(reply->payload.size(), kZeroCopyMinBytes);
  }
  client.Close();
  const NetStats stats = harness.Finish(/*drain=*/true);

  EXPECT_EQ(stats.frames_out, queries.size());
  // The gather-write invariants (net_stats.h): every sendmsg submitted
  // at least one iovec, batches never outnumber frames, and after a
  // clean drain every byte out is accounted as copied or zero-copy.
  EXPECT_GE(stats.writev_calls, 1u);
  EXPECT_GE(stats.writev_iovecs, stats.writev_calls);
  EXPECT_LE(stats.writev_calls, stats.frames_out);
  EXPECT_EQ(stats.bytes_out, stats.bytes_copied + stats.bytes_zero_copy);
  EXPECT_EQ(stats.bytes_zero_copy, 0u)
      << "sub-cutoff answers must not take the zero-copy path";
}

TEST(NetServerTest, LargeAnswerServesZeroCopy) {
  ServedDataset served;
  // A range answer listing most of the dataset: comfortably past the
  // zero-copy cutoff yet under the frame payload cap.
  const geo::Point q{0.5, 0.5};
  const double radius = 0.4;
  const std::vector<uint8_t> want =
      served.server.RangeQueryWire(q, radius).value();
  ASSERT_GE(want.size(), kZeroCopyMinBytes);
  ASSERT_LE(want.size(), kMaxPayloadBytes);

  ServerHarness harness(&served.server, NetOptions{});
  ASSERT_TRUE(harness.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  const auto got = client.RangeQueryWire(q, radius);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, want);
  client.Close();
  const NetStats stats = harness.Finish(/*drain=*/true);

  EXPECT_GE(stats.bytes_zero_copy, want.size())
      << "a large answer must ride the write queue by reference";
  EXPECT_EQ(stats.bytes_out, stats.bytes_copied + stats.bytes_zero_copy);
}

// -- Raw-socket framing differential -----------------------------------------

// A bare blocking TCP socket speaking the protocol by hand, so the test
// can compare the server's reply *stream* byte-for-byte against
// EncodeFrame output instead of trusting a decoder to normalize it.
class RawSocket {
 public:
  ~RawSocket() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return false;
    }
    const int one = 1;
    (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  bool SendAll(const std::vector<uint8_t>& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool RecvExactly(size_t count, std::vector<uint8_t>* out) {
    out->resize(count);
    size_t got = 0;
    while (got < count) {
      const ssize_t n = ::recv(fd_, out->data() + got, count - got, 0);
      if (n <= 0) return false;
      got += static_cast<size_t>(n);
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

TEST(NetServerTest, CacheHitReplyStreamByteIdenticalToEncodedFrames) {
  // The writev fast path must put exactly the pre-batching framing on
  // the wire: header then payload per reply, replies in request order.
  // Cache on, single pipelined connection — the replay is deterministic
  // (see CacheOnSingleConnectionMatchesInProcessReplay), so the whole
  // reply stream is predictable byte-for-byte, cache hits included.
  const auto dataset = workload::MakeUnitUniform(1500, 917);
  TreeFixture reference_fx(dataset.entries, 64, SmallNodeOptions());
  core::Server reference(reference_fx.tree.get(), kUnit);
  TreeFixture served_fx(dataset.entries, 64, SmallNodeOptions());
  core::Server served(served_fx.tree.get(), kUnit);
  cache::CacheConfig config;
  config.enabled = true;
  reference.EnableCache(config);
  served.EnableCache(config);

  const auto queries = workload::MakeHotspotQueries(kUnit, 120, 3, 919, 0.01);
  std::vector<uint8_t> requests;
  std::vector<uint8_t> want_stream;
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint32_t id = static_cast<uint32_t>(i + 1);
    const std::vector<uint8_t> req = EncodeNnRequest({queries[i], 4});
    AppendFrame(FrameType::kNnRequest, id, req.data(), req.size(), &requests);
    const std::vector<uint8_t> answer =
        reference.NnQueryWire(queries[i], 4).value();
    AppendFrame(FrameType::kAnswer, id, answer.data(), answer.size(),
                &want_stream);
  }
  ASSERT_GT(reference.cache_stats().hits, 0u) << "workload never hit";

  ServerHarness harness(&served, NetOptions{});
  ASSERT_TRUE(harness.Start().ok());
  RawSocket sock;
  ASSERT_TRUE(sock.Connect(harness.port()));
  ASSERT_TRUE(sock.SendAll(requests));
  std::vector<uint8_t> got_stream;
  ASSERT_TRUE(sock.RecvExactly(want_stream.size(), &got_stream));
  EXPECT_EQ(got_stream, want_stream)
      << "reply stream framing diverged from EncodeFrame";
  sock.Close();
  harness.Finish(/*drain=*/true);
  EXPECT_GT(served.cache_stats().hits, 0u);
}

}  // namespace
}  // namespace lbsq::net
