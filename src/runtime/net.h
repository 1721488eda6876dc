#ifndef CAROUSEL_RUNTIME_NET_H_
#define CAROUSEL_RUNTIME_NET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"
#include "runtime/runtime.h"

namespace carousel::runtime {

/// Encode/decode hooks for the TCP transport, injected so the runtime
/// library doesn't depend on the wire codec (which depends on every
/// protocol library). wire::Codec() produces one.
struct WireCodec {
  /// Serializes the message payload (excluding framing).
  std::function<std::vector<uint8_t>(const Message&)> encode;
  /// Appends the payload to `out` instead of allocating a fresh vector;
  /// the transport prefers this hook so pooled frame buffers are reused
  /// across messages. Optional — when unset the transport falls back to
  /// `encode` plus a copy.
  std::function<void(const Message&, std::vector<uint8_t>*)> encode_append;
  /// Reconstructs a message of `type` from payload bytes; returns nullptr
  /// on malformed input (the frame is dropped).
  std::function<MessagePtr(int type, const uint8_t* data, size_t len)> decode;
};

struct NetOptions {
  /// Bound on each peer's egress queue, in frames. When a queue is full
  /// the frame is dropped and counted — the bounded-asynchronous-network
  /// model; protocols mask drops with retries.
  size_t max_egress_frames = 8192;
  /// Frames larger than this on an inbound stream mark it malformed; the
  /// connection is closed (the peer reconnects with a fresh stream).
  size_t max_frame_bytes = 64u << 20;
  /// How many frames one sendmsg() gathers at most (the coalescing cap).
  size_t max_frames_per_batch = 64;
  /// Bytes of the poller's receive arena one recv() may fill. Frames up
  /// to this size are parsed in place from the arena; a larger frame is
  /// assembled in its connection's own buffer.
  size_t read_chunk = 128 * 1024;
  /// Encode buffers kept for reuse (per node). Buffers whose capacity
  /// outgrew max_pooled_buffer_bytes are freed instead of pooled.
  size_t max_pooled_buffers = 128;
  size_t max_pooled_buffer_bytes = 1u << 20;
  int listen_backlog = 64;
  /// When nonzero, sets SO_SNDBUF on outbound connections. Tests use a
  /// tiny buffer to force partial writes and EAGAIN deterministically;
  /// production leaves the kernel's auto-tuning alone.
  int so_sndbuf = 0;
};

/// Hot-path counters of one node's TCP endpoint. Writers use relaxed
/// atomics; readers (stats reporting, CI gates) take whole-counter
/// snapshots. inbound_buffer_bytes is a gauge, not a counter: bytes held
/// by inbound connections between readable events (partial-frame carries
/// and large frames being assembled); zero when every stream sits on a
/// frame boundary. The drops_* counters split transport drops by reason:
///   queue_full    — egress queue at max_egress_frames (backpressure)
///   connect_fail  — connect refused/failed, or an established connection
///                   broke with frames still queued (they die with it)
///   decode_fail   — inbound frame the codec rejected, or a frame whose
///                   claimed sender id is out of range
struct NetStats {
  std::atomic<uint64_t> frames_enqueued{0};
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> send_syscalls{0};
  std::atomic<uint64_t> send_eagain{0};
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> reconnects{0};
  std::atomic<uint64_t> drops_queue_full{0};
  std::atomic<uint64_t> drops_connect_fail{0};
  std::atomic<uint64_t> drops_decode_fail{0};
  std::atomic<uint64_t> inbound_buffer_bytes{0};
};

/// Plain snapshot of NetStats, summable across nodes. The coalescing
/// factor (frames_sent / send_syscalls) is the transport's efficiency
/// metric: >1 means the writer gathered multiple frames per sendmsg.
struct TransportStats {
  uint64_t frames_enqueued = 0;
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t send_syscalls = 0;
  uint64_t send_eagain = 0;
  uint64_t frames_received = 0;
  uint64_t reconnects = 0;
  uint64_t drops_queue_full = 0;
  uint64_t drops_connect_fail = 0;
  uint64_t drops_decode_fail = 0;

  uint64_t dropped_total() const {
    return drops_queue_full + drops_connect_fail + drops_decode_fail;
  }
  double frames_per_syscall() const {
    return send_syscalls == 0
               ? 0.0
               : static_cast<double>(frames_sent) /
                     static_cast<double>(send_syscalls);
  }
  TransportStats& operator+=(const NetStats& s);
};

class NodeNet;

/// One epoll-driven I/O thread shared by one or more NodeNets. Every
/// socket syscall in the transport — connect, accept, sendmsg, recv —
/// happens on this thread; node event-loop threads only enqueue frames
/// and (rarely) write the wakeup eventfd. Sharing one poller across the
/// nodes of a process means a message's send side and its receiver's read
/// side run back to back on the same thread, and one wakeup drains every
/// node's egress in a single pass — the coalescing that makes the
/// transport cheaper than a syscall per message.
///
/// Lifecycle: Init() (epoll + eventfd), attach nets, Start(), Stop()
/// (joins; idempotent). Attach/detach after Start is marshalled onto the
/// I/O thread via RunSync. The epoll/eventfd descriptors stay open until
/// destruction so a racing late Wake() hits a valid (just idle) fd.
class NetPoller {
 public:
  NetPoller();
  ~NetPoller();

  NetPoller(const NetPoller&) = delete;
  NetPoller& operator=(const NetPoller&) = delete;

  /// Creates the epoll instance and wakeup eventfd. Returns false when
  /// unavailable (sandbox); the poller is then inert.
  bool Init();

  /// Launches the I/O thread. Init must have succeeded.
  void Start();

  /// Joins the I/O thread (remaining RunSync tasks are drained first so
  /// no caller is left waiting). Idempotent; fds close at destruction.
  void Stop();

  /// Collapsed eventfd wakeup: only the first caller after a drain pass
  /// pays the write syscall.
  void Wake();

  /// Runs `fn` on the I/O thread and waits for it — the safe way to touch
  /// I/O-thread-owned state (socket teardown, net attach/detach) from
  /// outside. Runs inline when the poller is not running or when already
  /// on the I/O thread.
  void RunSync(std::function<void()> fn);

  bool OnIoThread() const {
    return std::this_thread::get_id() ==
           io_tid_.load(std::memory_order_relaxed);
  }

  /// True when it is safe to touch I/O-thread-owned state: either this is
  /// the I/O thread, or the poller is not running (pre-Start setup and
  /// post-Stop teardown run inline on the caller). Debug asserts use this;
  /// an event-loop thread calling a socket-touching member while the
  /// poller runs is a crash, not a latency mystery.
  bool InIoContext() const {
    return OnIoThread() || !running_.load(std::memory_order_acquire);
  }

 private:
  friend class NodeNet;

  /// What an epoll event points at: epoll_event.data.u64 is an index into
  /// entries_. Freed slots are recycled only after the current event
  /// batch, so a stale event for a just-closed fd dispatches to a slot
  /// marked kFree instead of a new connection.
  enum EvKind : uint8_t { kFree = 0, kWake, kListen, kOut, kIn };
  struct EvEntry {
    EvKind kind = kFree;
    NodeNet* net = nullptr;
    uint32_t idx = 0;
  };

  /// I/O-thread-only (or pre-Start) entry management.
  uint64_t AddEntry(EvKind kind, NodeNet* net, uint32_t idx);
  void FreeEntry(uint64_t id);

  void AttachNet(NodeNet* net);
  void DetachNet(NodeNet* net);

  void IoLoop();
  void RunTasks();

  /// The receive arena, at least `bytes` long. I/O-thread-only; its
  /// contents never outlive one OnReadable call, so growing it (when nets
  /// with different read_chunk share the poller) copies nothing.
  uint8_t* RxArena(size_t bytes);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::atomic<bool> stop_{false};
  /// True between Start() and the end of Stop() (set false after the
  /// join, when the caller has inherited the I/O thread's state).
  std::atomic<bool> running_{false};
  /// Collapses per-Send eventfd writes: set by the first waker after the
  /// I/O thread went through a drain pass, cleared by the I/O thread
  /// before it drains. Keeps the wakeup syscall off the per-message path.
  std::atomic<bool> wake_pending_{false};
  std::atomic<std::thread::id> io_tid_{};
  std::thread thread_;

  std::mutex task_mu_;
  std::deque<std::function<void()>> tasks_;

  /// Debug-only loop telemetry (printed when CAROUSEL_NET_DEBUG is set).
  std::atomic<uint64_t> dbg_wake_writes_{0};
  uint64_t dbg_polls_ = 0;
  uint64_t dbg_events_ = 0;

  /// I/O-thread-only (mutated via RunSync once running).
  std::vector<NodeNet*> nets_;
  std::vector<EvEntry> entries_;
  std::vector<uint64_t> free_entries_;
  std::vector<uint64_t> deferred_free_;  // Recycled at the next loop top.
  /// One receive buffer for every inbound connection of every net on
  /// this poller: every recv() runs on the I/O thread, one at a time.
  /// Allocated on first use and never value-initialized.
  std::unique_ptr<uint8_t[]> rx_arena_;
  size_t rx_arena_bytes_ = 0;
};

/// One node's TCP endpoint: a loopback listener plus all of the node's
/// peer connections, driven by a shared NetPoller. The node's event-loop
/// thread never touches a socket:
///
///   * Send() (any thread) encodes the message into a pooled frame
///     buffer, appends it to the destination's bounded egress queue,
///     marks the destination dirty, and — only when the I/O thread might
///     be parked — writes one eventfd wakeup. No socket syscall, no
///     blocking.
///   * The poller's I/O thread connects lazily and non-blockingly
///     (EINPROGRESS + EPOLLOUT), gathers up to max_frames_per_batch
///     queued frames into a single sendmsg(), resumes partial writes via
///     EPOLLOUT, accepts inbound connections, and parses/decodes inbound
///     frames, handing each decoded message to the deliver callback
///     (which enqueues onto the owner's event loop).
///
/// Frame format on the wire (little-endian), unchanged from the blocking
/// transport it replaces: [u32 len][u32 type][u32 from][payload] with
/// `len` counting everything after itself (8 + payload size).
///
/// Failure semantics: a full egress queue, a failed connect, and a broken
/// connection all drop frames (counted by reason in NetStats) — exactly
/// the asynchronous-network model the protocols already mask with
/// retries. A connection that breaks is re-established by the next Send.
/// Stop() discards whatever is still queued without counting drops (a
/// process teardown is not a network fault).
///
/// In debug builds every socket-touching member asserts it runs on the
/// poller's I/O thread, so an event-loop thread blocking in send/connect
/// is a crash, not a latency mystery.
class NodeNet {
 public:
  /// Delivery hook for decoded inbound messages; runs on the I/O thread,
  /// must not block (the runtime's hook bulk-enqueues onto the owner's
  /// loop). Called once per drain pass with every message decoded since
  /// the last call — one loop wakeup amortized over the whole batch.
  /// The callee moves the messages out but leaves the vector itself
  /// intact, so its allocation is reused pass over pass.
  using DeliverFn =
      std::function<void(std::vector<std::pair<NodeId, MessagePtr>>& msgs)>;

  NodeNet(NodeId id, size_t num_nodes, NetPoller* poller, WireCodec codec,
          DeliverFn deliver, NetOptions options = {});
  ~NodeNet();

  NodeNet(const NodeNet&) = delete;
  NodeNet& operator=(const NodeNet&) = delete;

  /// Binds the loopback listener (port 0 = OS-assigned). Returns false
  /// when sockets are unavailable (sandbox); the object is then inert and
  /// only Stop()/destruction is valid. Call before Start().
  bool Bind(uint16_t port = 0);

  /// The bound listener port (valid after Bind).
  uint16_t port() const { return port_; }

  /// Installs peer `node`'s listener port. Thread-safe; normally all
  /// ports are installed between Bind and Start, but tests move a peer
  /// (restart on a new port) mid-run.
  void SetPeerPort(NodeId node, uint16_t port);

  /// Attaches this net (and its listener) to the poller and starts
  /// accepting. Bind must have succeeded. Safe while the poller runs.
  void Start();

  /// Detaches from the poller and closes every fd (listener and all
  /// connections — no reader state survives). Queued egress is discarded
  /// uncounted. Idempotent; the destructor calls it.
  void Stop();

  /// Encodes and enqueues one frame for `to`. Returns false when the
  /// frame was dropped (queue full or transport stopped); queue-full
  /// drops are counted in stats. Thread-safe, non-blocking, and never
  /// touches a socket (the eventfd wakeup is the one syscall, paid only
  /// when the I/O thread may be parked).
  bool Send(NodeId to, const Message& msg);

  const NetStats& stats() const { return stats_; }

 private:
  friend class NetPoller;

  struct OutConn {
    // Shared with senders (guarded by egress_mu_).
    std::deque<std::vector<uint8_t>> pending;
    bool dirty = false;  // Queued on dirty_ for the next drain pass.
    // I/O-thread-only write state.
    int fd = -1;
    uint64_t entry = 0;
    bool connecting = false;
    bool want_write = false;  // EPOLLOUT armed.
    std::deque<std::vector<uint8_t>> inflight;
    size_t offset = 0;  // Bytes of inflight.front() already written.
  };
  struct InConn {
    int fd = -1;
    uint64_t entry = 0;
    /// Bytes of an unfinished frame, held between readable events. Two
    /// uses: a carry (size <= read_chunk) is the stream's partial tail,
    /// put back in front of the next recv in the arena; a frame longer
    /// than read_chunk is assembled here in full (size = the frame) and
    /// freed once delivered. Null on a frame boundary; never
    /// value-initialized.
    std::unique_ptr<uint8_t[]> buf;
    size_t size = 0;  // Allocated bytes of buf.
    size_t len = 0;   // Bytes of buf received so far.
  };

  /// All I/O-thread-only.
  void DrainEgress();
  void FlushInbound();
  void EnsureConnected(NodeId peer);
  void OnConnectWritable(NodeId peer);
  void TryWrite(NodeId peer);
  void CloseOut(NodeId peer, bool count_drops);
  void AcceptNew();
  void OnReadable(size_t slot);
  /// Parses the complete frames in [data, data + n) into rx_batch_ and
  /// returns how many bytes they span; SIZE_MAX when a frame header is
  /// malformed (the caller closes the connection).
  size_t ParseFrames(const uint8_t* data, size_t n);
  /// Replaces c's held buffer with a fresh `size`-byte one holding
  /// [data, data + len), or frees it when size == 0.
  void HoldInbound(InConn& c, size_t size, const uint8_t* data, size_t len);
  void CloseIn(size_t slot);
  void UpdateOutEvents(NodeId peer, bool want_write);
  void CloseAll();

  std::vector<uint8_t> GetBuffer();
  void PutBuffer(std::vector<uint8_t> buf);

  const NodeId id_;
  NetPoller* const poller_;
  const WireCodec codec_;
  const DeliverFn deliver_;
  const NetOptions options_;

  int listen_fd_ = -1;
  uint64_t listen_entry_ = 0;
  uint16_t port_ = 0;

  std::atomic<bool> running_{false};

  std::mutex egress_mu_;
  std::vector<OutConn> out_;     // Indexed by peer NodeId.
  std::vector<NodeId> dirty_;    // Peers with new frames since last drain.
  /// Cheap pre-check so a drain pass skips egress_mu_ when this net has
  /// nothing queued (the common case with many nets on one poller).
  std::atomic<bool> any_dirty_{false};
  /// I/O-thread-only scratch that dirty_ swaps into each drain pass.
  std::vector<NodeId> drain_scratch_;

  std::mutex peer_mu_;
  std::vector<uint16_t> peer_ports_;

  std::mutex pool_mu_;
  std::vector<std::vector<uint8_t>> pool_;

  std::vector<InConn> in_;  // Slot map; closed slots have fd == -1.
  /// Messages decoded this pass, bulk-delivered by FlushInbound.
  /// I/O-thread-only.
  std::vector<std::pair<NodeId, MessagePtr>> rx_batch_;

  NetStats stats_;
};

}  // namespace carousel::runtime

#endif  // CAROUSEL_RUNTIME_NET_H_
