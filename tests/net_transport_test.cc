// Unit tests for the non-blocking epoll TCP transport (runtime/net.h):
// framing and FIFO delivery, egress coalescing under the per-sendmsg cap,
// partial-write resumption across EAGAIN, counted backpressure drops,
// reconnect after a peer restart, decode-failure accounting, and the
// receive path (frames split across reads, frames larger than the shared
// receive arena, interleaved partial frames on one poller, and what an
// idle connection keeps). The tests drive NodeNet/NetPoller directly with
// a trivial blob codec so payload sizes are arbitrary (the real wire
// codec has its own suite).

#include "runtime/net.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/message.h"

namespace carousel::runtime {
namespace {

// ---------------------------------------------------------------------------
// Blob codec: a kPing message carrying an opaque string payload.
// ---------------------------------------------------------------------------

struct BlobMsg final : sim::Message {
  std::string data;
  int type() const override { return sim::kPing; }
  size_t SizeBytes() const override { return data.size(); }
};

WireCodec BlobCodec() {
  WireCodec c;
  c.encode = [](const Message& m) {
    const auto& b = static_cast<const BlobMsg&>(m);
    return std::vector<uint8_t>(b.data.begin(), b.data.end());
  };
  c.encode_append = [](const Message& m, std::vector<uint8_t>* out) {
    const auto& b = static_cast<const BlobMsg&>(m);
    out->insert(out->end(), b.data.begin(), b.data.end());
  };
  c.decode = [](int type, const uint8_t* data, size_t len) -> MessagePtr {
    if (type != sim::kPing) return nullptr;  // Unknown type: decode fail.
    auto m = std::make_shared<BlobMsg>();
    m->data.assign(reinterpret_cast<const char*>(data), len);
    return m;
  };
  return c;
}

BlobMsg Blob(std::string data) {
  BlobMsg m;
  m.data = std::move(data);
  return m;
}

// Collects delivered messages; the DeliverFn contract is "move the
// elements out, leave the vector to its owner". The I/O thread appends
// while the test reads, so reads go through the locked accessors, and a
// sink must outlive every net delivering into it (the fixture owns them).
struct Sink {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<NodeId, std::string>> got;

  std::vector<std::pair<NodeId, std::string>> Got() {
    std::lock_guard<std::mutex> lk(mu);
    return got;
  }

  NodeNet::DeliverFn fn() {
    return [this](std::vector<std::pair<NodeId, MessagePtr>>& msgs) {
      std::lock_guard<std::mutex> lk(mu);
      for (auto& [from, msg] : msgs) {
        got.emplace_back(from,
                         static_cast<const BlobMsg*>(msg.get())->data);
      }
      cv.notify_all();
    };
  }

  bool WaitForCount(size_t n,
                    std::chrono::milliseconds timeout =
                        std::chrono::milliseconds(5000)) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, timeout, [&]() { return got.size() >= n; });
  }

  size_t count() {
    std::lock_guard<std::mutex> lk(mu);
    return got.size();
  }
};

// Spin-waits (with sleeps) until `pred` holds or ~5 s pass. Transport
// counters are updated by the I/O thread, so tests poll rather than hook.
template <typename Pred>
bool WaitUntil(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    usleep(1000);
  }
  return pred();
}

uint64_t Ld(const std::atomic<uint64_t>& a) {
  return a.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Raw-socket test peer: a listener the test accepts and reads by hand, so
// it can be arbitrarily slow (backpressure) or write arbitrary bytes
// (malformed frames).
// ---------------------------------------------------------------------------

struct RawPeer {
  int listen_fd = -1;
  uint16_t port = 0;

  bool Listen() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) return false;
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    // Set before listen so accepted sockets inherit it: a tiny receive
    // buffer keeps the kernel from absorbing megabytes the "slow reader"
    // tests rely on staying unsent.
    const int rcvbuf = 8 * 1024;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listen_fd, 4) != 0) {
      return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
        0) {
      return false;
    }
    port = ntohs(addr.sin_port);
    return true;
  }

  /// Blocking accept with a timeout; returns the connection fd or -1.
  int Accept(int timeout_ms = 5000) {
    pollfd p{listen_fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return -1;
    return ::accept(listen_fd, nullptr, nullptr);
  }

  /// The sending side: a blocking connection to a net's listener that
  /// the test writes raw bytes into, one segment per send (no Nagle).
  static int Dial(uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  ~RawPeer() {
    if (listen_fd >= 0) ::close(listen_fd);
  }
};

/// Reads from `fd` until `want` bytes arrived or a 5 s deadline; returns
/// the bytes read.
std::vector<uint8_t> ReadExactly(int fd, size_t want) {
  std::vector<uint8_t> out;
  out.reserve(want);
  uint8_t chunk[65536];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (out.size() < want && std::chrono::steady_clock::now() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    out.insert(out.end(), chunk, chunk + n);
  }
  return out;
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

/// Writes all of `bytes` to `fd`.
bool WriteAll(int fd, const uint8_t* bytes, size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, bytes, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    bytes += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// True once the net closed `fd`'s connection (EOF) within ~5 s.
bool ClosedByPeer(int fd) {
  pollfd p{fd, POLLIN, 0};
  if (::poll(&p, 1, 5000) <= 0) return false;
  uint8_t byte;
  return ::recv(fd, &byte, 1, 0) == 0;
}

/// Parses a `[u32 len][u32 type][u32 from][payload]` frame stream into
/// payload strings; EXPECTs the framing is intact.
std::vector<std::string> ParseFrames(const std::vector<uint8_t>& bytes) {
  std::vector<std::string> payloads;
  size_t pos = 0;
  while (bytes.size() - pos >= 12) {
    const uint32_t len = GetU32(bytes.data() + pos);
    EXPECT_GE(len, 8u);
    if (bytes.size() - pos < 4 + static_cast<size_t>(len)) break;
    payloads.emplace_back(
        reinterpret_cast<const char*>(bytes.data() + pos + 12), len - 8);
    pos += 4 + len;
  }
  EXPECT_EQ(pos, bytes.size()) << "trailing partial frame";
  return payloads;
}

/// One wire frame `[u32 len][u32 type][u32 from][payload]` from node 0.
std::vector<uint8_t> Frame(const std::string& payload) {
  std::vector<uint8_t> f(12 + payload.size());
  PutU32(f.data(), static_cast<uint32_t>(8 + payload.size()));
  PutU32(f.data() + 4, sim::kPing);
  PutU32(f.data() + 8, 0);
  std::memcpy(f.data() + 12, payload.data(), payload.size());
  return f;
}

// ---------------------------------------------------------------------------
// Fixture: a poller plus helpers to build nets on it. Skips everywhere if
// the sandbox forbids sockets.
// ---------------------------------------------------------------------------

class NetTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    poller_ = std::make_unique<NetPoller>();
    if (!poller_->Init()) {
      GTEST_SKIP() << "epoll/eventfd unavailable in this sandbox";
    }
  }

  void TearDown() override {
    // Nets must stop before the poller is destroyed, and deliveries must
    // stop before the sinks die: frames still in flight when a test body
    // returns deliver during this teardown, so the fixture owns both.
    for (auto& net : nets_) net->Stop();
    if (poller_) poller_->Stop();
  }

  Sink& NewSink() {
    sinks_.push_back(std::make_unique<Sink>());
    return *sinks_.back();
  }

  /// Builds (but does not Start) a net delivering into `sink`.
  NodeNet* MakeNet(NodeId id, size_t num_nodes, Sink* sink,
                   NetOptions options = {}) {
    nets_.push_back(std::make_unique<NodeNet>(
        id, num_nodes, poller_.get(), BlobCodec(), sink->fn(), options));
    NodeNet* net = nets_.back().get();
    if (!net->Bind()) {
      nets_.pop_back();
      return nullptr;
    }
    return net;
  }

  std::unique_ptr<NetPoller> poller_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::vector<std::unique_ptr<NodeNet>> nets_;
};

// ---------------------------------------------------------------------------

TEST_F(NetTransportTest, DeliversInOrderAcrossManyFrames) {
  Sink& sink_a = NewSink();
  Sink& sink_b = NewSink();
  NodeNet* a = MakeNet(0, 2, &sink_a);
  NodeNet* b = MakeNet(1, 2, &sink_b);
  if (a == nullptr || b == nullptr) GTEST_SKIP() << "sockets unavailable";
  a->SetPeerPort(1, b->port());
  b->SetPeerPort(0, a->port());
  a->Start();
  b->Start();
  poller_->Start();

  constexpr int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    // Mixed sizes so frames straddle read_chunk boundaries.
    std::string payload = "msg-" + std::to_string(i);
    payload.append(static_cast<size_t>(i % 97) * 13, 'x');
    ASSERT_TRUE(a->Send(1, Blob(std::move(payload))));
  }
  ASSERT_TRUE(sink_b.WaitForCount(kCount));

  const auto got = sink_b.Got();
  ASSERT_EQ(got.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[i].first, 0) << "sender id travels in the frame";
    EXPECT_EQ(got[i].second.substr(0, 4 + std::to_string(i).size()),
              "msg-" + std::to_string(i))
        << "per-edge FIFO order must survive coalescing";
  }
  EXPECT_EQ(Ld(b->stats().inbound_buffer_bytes), 0u)
      << "a stream on a frame boundary holds no inbound buffer";
  EXPECT_EQ(Ld(a->stats().frames_sent), static_cast<uint64_t>(kCount));
  EXPECT_EQ(Ld(b->stats().frames_received), static_cast<uint64_t>(kCount));
  EXPECT_EQ(Ld(a->stats().drops_queue_full), 0u);
  EXPECT_EQ(Ld(b->stats().drops_decode_fail), 0u);
}

TEST_F(NetTransportTest, BurstCoalescesFramesWithinTheBatchCap) {
  Sink& sink_a = NewSink();
  Sink& sink_b = NewSink();
  NetOptions options;
  options.max_frames_per_batch = 8;
  NodeNet* a = MakeNet(0, 2, &sink_a, options);
  NodeNet* b = MakeNet(1, 2, &sink_b, options);
  if (a == nullptr || b == nullptr) GTEST_SKIP() << "sockets unavailable";
  a->SetPeerPort(1, b->port());
  b->SetPeerPort(0, a->port());
  a->Start();
  b->Start();

  // Enqueue the whole burst before the I/O thread exists: the first drain
  // pass then sees 100 queued frames for one destination and must gather
  // them max_frames_per_batch at a time.
  constexpr int kCount = 100;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(a->Send(1, Blob("burst-" + std::to_string(i))));
  }
  poller_->Start();
  ASSERT_TRUE(sink_b.WaitForCount(kCount));

  const uint64_t syscalls = Ld(a->stats().send_syscalls);
  EXPECT_EQ(Ld(a->stats().frames_sent), static_cast<uint64_t>(kCount));
  // The cap bounds below: 100 frames over >= ceil(100/8) = 13 syscalls.
  EXPECT_GE(syscalls, 13u);
  // Coalescing bounds above: nowhere near one syscall per frame.
  EXPECT_LE(syscalls, 50u);
  TransportStats t;
  t += a->stats();
  EXPECT_GE(t.frames_per_syscall(), 2.0);
}

TEST_F(NetTransportTest, QueueFullDropsAreCountedAndSurvivorsDeliver) {
  Sink& sink_a = NewSink();
  Sink& sink_b = NewSink();
  NetOptions options;
  options.max_egress_frames = 4;
  NodeNet* a = MakeNet(0, 2, &sink_a, options);
  NodeNet* b = MakeNet(1, 2, &sink_b);
  if (a == nullptr || b == nullptr) GTEST_SKIP() << "sockets unavailable";
  a->SetPeerPort(1, b->port());
  b->SetPeerPort(0, a->port());
  a->Start();
  b->Start();

  // No I/O thread yet, so nothing drains: sends 4..9 overflow the bound.
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 10; ++i) {
    if (a->Send(1, Blob("q-" + std::to_string(i)))) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(rejected, 6);
  EXPECT_EQ(Ld(a->stats().drops_queue_full), 6u);

  poller_->Start();
  ASSERT_TRUE(sink_b.WaitForCount(4));
  EXPECT_EQ(sink_b.Got()[0].second, "q-0");
  EXPECT_EQ(sink_b.Got()[3].second, "q-3");
}

TEST_F(NetTransportTest, PartialWritesResumeAcrossEagain) {
  Sink& sink_a = NewSink();
  NetOptions options;
  // A deliberately tiny send buffer: 1 MB frames cannot leave in one
  // sendmsg, so the writer must park on EPOLLOUT and resume mid-frame.
  options.so_sndbuf = 8 * 1024;
  NodeNet* a = MakeNet(0, 2, &sink_a, options);
  if (a == nullptr) GTEST_SKIP() << "sockets unavailable";
  RawPeer peer;
  ASSERT_TRUE(peer.Listen());
  a->SetPeerPort(1, peer.port);
  a->Start();
  poller_->Start();

  constexpr int kCount = 6;
  constexpr size_t kPayload = 1u << 20;
  size_t total_bytes = 0;
  for (int i = 0; i < kCount; ++i) {
    std::string payload(kPayload, static_cast<char>('A' + i));
    payload[0] = static_cast<char>('0' + i);  // Order marker.
    total_bytes += 12 + payload.size();
    ASSERT_TRUE(a->Send(1, Blob(std::move(payload))));
  }

  const int conn = peer.Accept();
  ASSERT_GE(conn, 0);
  // Don't read yet: with ~8 KB in flight per syscall the writer must hit
  // EAGAIN long before the first frame completes.
  ASSERT_TRUE(WaitUntil([&]() { return Ld(a->stats().send_eagain) > 0; }));
  EXPECT_EQ(Ld(a->stats().frames_sent), 0u)
      << "no 1 MB frame can complete into an 8 KB send buffer unread";

  // Now drain the stream and check every byte of every frame arrived in
  // order — the partial-write offset bookkeeping is what's under test.
  const std::vector<uint8_t> bytes = ReadExactly(conn, total_bytes);
  ::close(conn);
  ASSERT_EQ(bytes.size(), total_bytes);
  const std::vector<std::string> frames = ParseFrames(bytes);
  ASSERT_EQ(frames.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(frames[i][0], static_cast<char>('0' + i));
    EXPECT_EQ(frames[i][1], static_cast<char>('A' + i));
    EXPECT_EQ(frames[i].size(), kPayload);
  }
  EXPECT_TRUE(WaitUntil(
      [&]() { return Ld(a->stats().frames_sent) == kCount; }));
  EXPECT_GT(Ld(a->stats().send_eagain), 0u);
}

TEST_F(NetTransportTest, SlowReaderBackpressureDropsAtTheBound) {
  Sink& sink_a = NewSink();
  NetOptions options;
  options.so_sndbuf = 8 * 1024;
  options.max_egress_frames = 8;
  // Keep the in-flight window small too: queued capacity is
  // max_egress_frames pending + max_frames_per_batch in flight.
  options.max_frames_per_batch = 4;
  NodeNet* a = MakeNet(0, 2, &sink_a, options);
  if (a == nullptr) GTEST_SKIP() << "sockets unavailable";
  RawPeer peer;
  ASSERT_TRUE(peer.Listen());
  a->SetPeerPort(1, peer.port);
  a->Start();
  poller_->Start();

  const int conn = peer.Accept(/*timeout_ms=*/100);  // May connect lazily.
  // A reader that never reads: the socket fills, then the egress queue
  // fills, then further sends are counted drops — never unbounded memory.
  constexpr size_t kPayload = 64 * 1024;
  constexpr int kCount = 64;
  for (int i = 0; i < kCount; ++i) {
    a->Send(1, Blob(std::string(kPayload, 'z')));
  }
  ASSERT_TRUE(
      WaitUntil([&]() { return Ld(a->stats().drops_queue_full) > 0; }));
  const uint64_t dropped = Ld(a->stats().drops_queue_full);
  const uint64_t enqueued = Ld(a->stats().frames_enqueued);
  EXPECT_EQ(enqueued + dropped, static_cast<uint64_t>(kCount));

  // The survivors still flow once the reader wakes up.
  const int fd = conn >= 0 ? conn : peer.Accept();
  ASSERT_GE(fd, 0);
  const std::vector<uint8_t> bytes =
      ReadExactly(fd, enqueued * (12 + kPayload));
  ::close(fd);
  EXPECT_EQ(ParseFrames(bytes).size(), enqueued);
}

TEST_F(NetTransportTest, ReconnectsAfterPeerRestartOnANewPort) {
  Sink& sink_a = NewSink();
  Sink& sink_b = NewSink();
  NodeNet* a = MakeNet(0, 2, &sink_a);
  NodeNet* b = MakeNet(1, 2, &sink_b);
  if (a == nullptr || b == nullptr) GTEST_SKIP() << "sockets unavailable";
  a->SetPeerPort(1, b->port());
  b->SetPeerPort(0, a->port());
  a->Start();
  b->Start();
  poller_->Start();

  ASSERT_TRUE(a->Send(1, Blob("before-restart")));
  ASSERT_TRUE(sink_b.WaitForCount(1));

  // Kill node 1's transport (listener and established connections die),
  // then bring it back on a fresh OS-assigned port, as a restarted
  // process would.
  b->Stop();
  Sink& sink_b2 = NewSink();
  NodeNet* b2 = MakeNet(1, 2, &sink_b2);
  ASSERT_NE(b2, nullptr);
  b2->SetPeerPort(0, a->port());
  b2->Start();
  a->SetPeerPort(1, b2->port());

  // Sends race the sender's discovery that the old connection is dead;
  // in-flight frames on it die (counted), later sends reconnect. Retry
  // like a protocol would until one lands.
  ASSERT_TRUE(WaitUntil([&]() {
    a->Send(1, Blob("after-restart"));
    return sink_b2.count() > 0;
  }));
  EXPECT_EQ(sink_b2.Got()[0].second, "after-restart");
  EXPECT_GE(Ld(a->stats().reconnects), 1u);
}

TEST_F(NetTransportTest, ConnectFailureCountsDropsByReason) {
  Sink& sink_a = NewSink();
  NodeNet* a = MakeNet(0, 2, &sink_a);
  if (a == nullptr) GTEST_SKIP() << "sockets unavailable";
  // Find a port with nothing listening: bind-then-close.
  RawPeer ghost;
  ASSERT_TRUE(ghost.Listen());
  const uint16_t dead_port = ghost.port;
  ::close(ghost.listen_fd);
  ghost.listen_fd = -1;

  a->SetPeerPort(1, dead_port);
  a->Start();
  poller_->Start();

  a->Send(1, Blob("into-the-void"));
  ASSERT_TRUE(
      WaitUntil([&]() { return Ld(a->stats().drops_connect_fail) > 0; }));
  EXPECT_EQ(Ld(a->stats().drops_queue_full), 0u);
  EXPECT_EQ(Ld(a->stats().frames_sent), 0u);
}

TEST_F(NetTransportTest, UnknownTypeCountsDecodeFailAndStreamSurvives) {
  Sink& sink_b = NewSink();
  NodeNet* b = MakeNet(1, 2, &sink_b);
  if (b == nullptr) GTEST_SKIP() << "sockets unavailable";
  b->Start();
  poller_->Start();

  const int fd = RawPeer::Dial(b->port());
  ASSERT_GE(fd, 0);

  // One well-framed message of a type the codec rejects, then a valid
  // one on the same connection: the bad frame is a counted drop, not a
  // torn stream.
  const std::string good = "still-alive";
  std::vector<uint8_t> wire(12 + 3 + 12 + good.size());
  PutU32(wire.data(), 8 + 3);
  PutU32(wire.data() + 4, 9999);  // Unknown type.
  PutU32(wire.data() + 8, 0);
  std::memcpy(wire.data() + 12, "bad", 3);
  uint8_t* second = wire.data() + 15;
  PutU32(second, static_cast<uint32_t>(8 + good.size()));
  PutU32(second + 4, sim::kPing);
  PutU32(second + 8, 0);
  std::memcpy(second + 12, good.data(), good.size());
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  ASSERT_TRUE(sink_b.WaitForCount(1));
  EXPECT_EQ(sink_b.Got()[0].second, good);
  EXPECT_EQ(Ld(b->stats().drops_decode_fail), 1u);
  EXPECT_EQ(Ld(b->stats().frames_received), 1u);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Receive path: one arena per poller, a per-connection carry for the
// partial tail only, and large frames assembled per connection.
// ---------------------------------------------------------------------------

TEST_F(NetTransportTest, ByteAtATimeStreamCarriesOnlyThePartialTail) {
  Sink& sink_b = NewSink();
  NodeNet* b = MakeNet(1, 2, &sink_b);
  if (b == nullptr) GTEST_SKIP() << "sockets unavailable";
  b->Start();
  poller_->Start();
  const int fd = RawPeer::Dial(b->port());
  ASSERT_GE(fd, 0);

  // Every byte is its own segment, and the test waits until the net has
  // read it before sending the next: the header is split at every
  // offset, then the payload. Between readable events the connection
  // holds exactly the bytes of the unfinished frame, and nothing once a
  // frame completes.
  const std::vector<std::string> payloads = {"first", "", "third-frame"};
  size_t delivered = 0;
  for (const std::string& payload : payloads) {
    const std::vector<uint8_t> frame = Frame(payload);
    for (size_t i = 0; i < frame.size(); ++i) {
      ASSERT_TRUE(WriteAll(fd, &frame[i], 1));
      if (i + 1 < frame.size()) {
        ASSERT_TRUE(WaitUntil([&]() {
          return Ld(b->stats().inbound_buffer_bytes) == i + 1;
        })) << "after byte " << i + 1 << " of a " << frame.size()
            << "-byte frame the carry holds "
            << Ld(b->stats().inbound_buffer_bytes);
      }
    }
    ASSERT_TRUE(sink_b.WaitForCount(++delivered));
    EXPECT_EQ(Ld(b->stats().inbound_buffer_bytes), 0u);
  }
  const auto got = sink_b.Got();
  ASSERT_EQ(got.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(got[i].second, payloads[i]);
  }
  EXPECT_EQ(Ld(b->stats().drops_decode_fail), 0u);
  ::close(fd);
}

TEST_F(NetTransportTest, FramesLargerThanTheReadChunkAreAssembledApart) {
  Sink& sink_a = NewSink();
  Sink& sink_b = NewSink();
  NetOptions small;
  small.read_chunk = 256;
  NodeNet* a = MakeNet(0, 2, &sink_a);
  NodeNet* b = MakeNet(1, 2, &sink_b, small);
  if (a == nullptr || b == nullptr) GTEST_SKIP() << "sockets unavailable";
  a->SetPeerPort(1, b->port());
  b->Start();
  a->Start();
  poller_->Start();

  // A raw frame of 12 + 1000 bytes against a 256-byte read chunk: sent
  // in two parts, it waits in a buffer of its own full size, which is
  // freed once the frame delivers.
  const int fd = RawPeer::Dial(b->port());
  ASSERT_GE(fd, 0);
  const std::string big(1000, 'L');
  const std::vector<uint8_t> frame = Frame(big);
  ASSERT_TRUE(WriteAll(fd, frame.data(), 300));
  ASSERT_TRUE(WaitUntil([&]() {
    return Ld(b->stats().inbound_buffer_bytes) == frame.size();
  }));
  ASSERT_TRUE(WriteAll(fd, frame.data() + 300, frame.size() - 300));
  ASSERT_TRUE(sink_b.WaitForCount(1));
  EXPECT_EQ(sink_b.Got()[0].second, big);
  EXPECT_EQ(Ld(b->stats().inbound_buffer_bytes), 0u);
  ::close(fd);

  // The same sizes from a real sender, mixed with small frames so large
  // and in-arena frames alternate within one stream: order and bytes
  // survive either path.
  constexpr int kCount = 200;
  std::vector<std::string> sent;
  for (int i = 0; i < kCount; ++i) {
    std::string payload = "m" + std::to_string(i) + ":";
    payload.append(static_cast<size_t>((i * 37) % 700), 'a' + i % 26);
    sent.push_back(payload);
    ASSERT_TRUE(a->Send(1, Blob(payload)));
  }
  ASSERT_TRUE(sink_b.WaitForCount(1 + kCount));
  const auto got = sink_b.Got();
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[1 + i].second, sent[i]) << "frame " << i;
  }
  EXPECT_EQ(Ld(b->stats().frames_received), 1u + kCount);
  EXPECT_EQ(Ld(b->stats().inbound_buffer_bytes), 0u);
}

TEST_F(NetTransportTest, InterleavedPartialFramesShareThePollersArena) {
  // Two nets on one poller, one inbound connection each: their partial
  // frames alternate, so each readable event reuses the arena the other
  // connection's tail was just read into.
  Sink& sink_b = NewSink();
  Sink& sink_c = NewSink();
  NodeNet* b = MakeNet(1, 3, &sink_b);
  NodeNet* c = MakeNet(2, 3, &sink_c);
  if (b == nullptr || c == nullptr) GTEST_SKIP() << "sockets unavailable";
  b->Start();
  c->Start();
  poller_->Start();
  const int to_b = RawPeer::Dial(b->port());
  const int to_c = RawPeer::Dial(c->port());
  ASSERT_GE(to_b, 0);
  ASSERT_GE(to_c, 0);

  const std::vector<uint8_t> fb = Frame(std::string(40, 'b'));
  const std::vector<uint8_t> fc = Frame(std::string(60, 'c'));
  constexpr size_t kStep = 7;  // Cuts headers and payloads alike.
  size_t ob = 0, oc = 0;
  for (int round = 0; round < 3; ++round) {
    while (ob < fb.size() || oc < fc.size()) {
      const size_t nb = std::min(kStep, fb.size() - ob);
      if (nb > 0) {
        ASSERT_TRUE(WriteAll(to_b, fb.data() + ob, nb));
        ob += nb;
        if (ob < fb.size()) {
          ASSERT_TRUE(WaitUntil([&]() {
            return Ld(b->stats().inbound_buffer_bytes) == ob;
          }));
        }
      }
      const size_t nc = std::min(kStep, fc.size() - oc);
      if (nc > 0) {
        ASSERT_TRUE(WriteAll(to_c, fc.data() + oc, nc));
        oc += nc;
        if (oc < fc.size()) {
          ASSERT_TRUE(WaitUntil([&]() {
            return Ld(c->stats().inbound_buffer_bytes) == oc;
          }));
        }
      }
    }
    ASSERT_TRUE(sink_b.WaitForCount(round + 1));
    ASSERT_TRUE(sink_c.WaitForCount(round + 1));
    ob = oc = 0;
  }
  for (const auto& [from, data] : sink_b.Got()) {
    EXPECT_EQ(data, std::string(40, 'b'));
  }
  for (const auto& [from, data] : sink_c.Got()) {
    EXPECT_EQ(data, std::string(60, 'c'));
  }
  EXPECT_EQ(Ld(b->stats().drops_decode_fail), 0u);
  EXPECT_EQ(Ld(c->stats().drops_decode_fail), 0u);
  ::close(to_b);
  ::close(to_c);
}

TEST_F(NetTransportTest, MalformedLengthAfterACarriedTailClosesOnlyThatStream) {
  Sink& sink_b = NewSink();
  NodeNet* b = MakeNet(1, 2, &sink_b);
  if (b == nullptr) GTEST_SKIP() << "sockets unavailable";
  b->Start();
  poller_->Start();
  const int bad = RawPeer::Dial(b->port());
  const int good = RawPeer::Dial(b->port());
  ASSERT_GE(bad, 0);
  ASSERT_GE(good, 0);

  // The good stream parks half a frame; the bad one a whole frame plus
  // two bytes of the next header, which become its carry.
  const std::vector<uint8_t> ok = Frame("good-stream");
  ASSERT_TRUE(WriteAll(good, ok.data(), 5));
  std::vector<uint8_t> stream = Frame("before-the-bad-header");
  uint8_t bad_header[12];
  PutU32(bad_header, 0xFFFFFFF0u);  // Beyond max_frame_bytes.
  PutU32(bad_header + 4, sim::kPing);
  PutU32(bad_header + 8, 0);
  stream.insert(stream.end(), bad_header, bad_header + 2);
  ASSERT_TRUE(WriteAll(bad, stream.data(), stream.size()));
  ASSERT_TRUE(sink_b.WaitForCount(1));
  ASSERT_TRUE(WaitUntil(
      [&]() { return Ld(b->stats().inbound_buffer_bytes) == 5 + 2; }));

  // The rest of the header completes a malformed length: that stream
  // closes, its carry is released, and the other stream is untouched.
  ASSERT_TRUE(WriteAll(bad, bad_header + 2, sizeof(bad_header) - 2));
  EXPECT_TRUE(ClosedByPeer(bad));
  ASSERT_TRUE(
      WaitUntil([&]() { return Ld(b->stats().inbound_buffer_bytes) == 5; }));
  ASSERT_TRUE(WriteAll(good, ok.data() + 5, ok.size() - 5));
  ASSERT_TRUE(sink_b.WaitForCount(2));
  const auto got = sink_b.Got();
  EXPECT_EQ(got[0].second, "before-the-bad-header");
  EXPECT_EQ(got[1].second, "good-stream");
  EXPECT_EQ(Ld(b->stats().frames_received), 2u);
  EXPECT_EQ(Ld(b->stats().drops_decode_fail), 0u);
  EXPECT_EQ(Ld(b->stats().inbound_buffer_bytes), 0u);
  ::close(bad);
  ::close(good);
}

}  // namespace
}  // namespace carousel::runtime
