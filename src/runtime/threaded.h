#ifndef CAROUSEL_RUNTIME_THREADED_H_
#define CAROUSEL_RUNTIME_THREADED_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "runtime/endpoint.h"
#include "runtime/net.h"
#include "runtime/runtime.h"

namespace carousel::runtime {

/// Real time for the threaded backend: microseconds of monotonic clock
/// elapsed since construction, so SimTime stays "micros since the start of
/// the run" under both backends.
class SteadyClock final : public Clock {
 public:
  SteadyClock();
  SimTime now() const override;

 private:
  int64_t start_nanos_;
};

class ThreadedRuntime;

/// One node's event loop: a thread draining an inbound message queue, a
/// run-soon task queue, and a timer min-heap. Everything an endpoint does
/// (message handlers, timer callbacks, posted closures) runs on this one
/// thread, preserving the actor model the protocols were written against —
/// handlers for a node never run concurrently with each other.
class EventLoop final : public TimerQueue {
 public:
  EventLoop(const Clock* clock, size_t max_inbound);
  ~EventLoop() override;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// TimerQueue: callable from any thread (typically this loop's own).
  void Schedule(SimTime delay, EventFn fn) override;
  void ScheduleAt(SimTime t, EventFn fn) override;

  /// Runs `fn` on the loop thread as soon as possible. Thread-safe; the
  /// harness uses this to drive client API calls onto client loops.
  void Post(EventFn fn);

  /// Enqueues an inbound message for the endpoint. Returns false (and
  /// counts a drop) when the bounded queue is full — the asynchronous
  /// network model; protocols mask it with retries. Thread-safe.
  bool PostMessage(NodeId from, MessagePtr msg);

  /// Bulk PostMessage: one lock and one wakeup for the whole batch (the
  /// TCP I/O thread delivers everything it decoded in a drain pass this
  /// way). Moves the messages out of `msgs` but leaves the vector intact
  /// for reuse. Messages past the queue bound are dropped and counted
  /// individually. Thread-safe.
  void PostMessages(std::vector<std::pair<NodeId, MessagePtr>>& msgs);

  /// Launches the loop thread delivering to `endpoint`.
  void Start(Endpoint* endpoint);

  /// Stops and joins the loop thread; pending work is discarded. While
  /// stopped, PostMessage drops (counted) — a dead process accepts no
  /// input — and posted tasks/timers accumulate only to be cleared by
  /// Restart. Idempotent.
  void Stop();

  /// Relaunches a stopped loop for `endpoint` (typically a fresh one
  /// recovered from durable storage). All queued messages, tasks and
  /// timers from the previous life are discarded first — the SIGKILL
  /// model: nothing volatile survives.
  void Restart(Endpoint* endpoint);

  bool stopped() const;

  uint64_t dropped_messages() const;

 private:
  struct Timer {
    SimTime at = 0;
    uint64_t seq = 0;
    EventFn fn;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void Run();

  const Clock* clock_;
  const size_t max_inbound_;
  Endpoint* endpoint_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::deque<std::pair<NodeId, MessagePtr>> inbound_;
  std::deque<EventFn> tasks_;
  std::vector<Timer> timers_;  // Min-heap by (at, seq).
  uint64_t next_timer_seq_ = 0;
  uint64_t dropped_ = 0;
  std::thread thread_;
};

struct ThreadedRuntimeOptions {
  /// Bound on each node's inbound message queue; overflow drops.
  size_t max_inbound_queue = 65536;
  /// When true, inter-node messages travel over localhost TCP sockets
  /// (serialized with `codec`, carried by per-node NodeNet I/O threads);
  /// when false they are handed across loops in-process as shared
  /// pointers. WireCodec lives in runtime/net.h; wire::Codec() makes one.
  bool use_tcp = false;
  WireCodec codec;
  /// Transport tuning (egress bound, coalescing cap, buffer pool sizes).
  NetOptions net;
};

/// Backend #2 of the runtime seam: one event-loop thread per node on a
/// shared monotonic clock, with either in-process or localhost-TCP message
/// transport. No fault injection, no cost model, no determinism — this is
/// the "as fast as the hardware allows" deployment shape; the simulator
/// remains the substrate for reproducible experiments.
class ThreadedRuntime final : public Transport {
 public:
  /// Creates loops for nodes 0..num_nodes-1 (ids are dense, as in the
  /// simulator's Topology).
  ThreadedRuntime(size_t num_nodes, ThreadedRuntimeOptions options);
  ~ThreadedRuntime() override;

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  Clock* clock() { return &clock_; }
  EventLoop* loop(NodeId id) { return loops_[id].get(); }

  /// Executor handle for constructing node `id`'s endpoint. `storage`
  /// (optional) attaches durable node state; the endpoint persists through
  /// it and recovers from it after a kill/restart cycle.
  NodeEnv MakeEnv(NodeId id, carousel::Rng rng, Storage* storage = nullptr) {
    return NodeEnv{&clock_, loops_[id].get(), std::move(rng), storage};
  }

  /// Registers node `id`'s endpoint; must be called for every id before
  /// Start. Binds the endpoint's runtime hooks to this transport.
  void Register(Endpoint* endpoint);

  /// Opens sockets (TCP mode) and launches all loop threads. Returns
  /// false if TCP setup fails (e.g. sockets unavailable in a sandbox);
  /// the runtime is then unusable and only Stop/destruction is valid.
  bool Start();

  /// Stops and joins all loop and socket threads. Idempotent.
  void Stop();

  /// Transport: in-process handoff or TCP frame, per options. Loopback
  /// (from == to) is always a direct in-process handoff.
  void Send(NodeId from, NodeId to, MessagePtr msg) override;

  /// ---- Fault injection (RT nemesis) ----
  /// Per-link fault policy, applied at the send side of the transport —
  /// before serialization in TCP mode, so a partitioned link carries no
  /// frames at all. Normal-path cost when no fault is installed is one
  /// relaxed atomic load.
  struct LinkFault {
    /// Drop everything (network partition).
    bool blocked = false;
    /// Drop each message independently with this probability.
    double drop_prob = 0.0;
    /// Delay each surviving message by this many microseconds.
    SimTime delay = 0;
  };

  /// Installs `fault` on the (a, b) link in both directions, replacing any
  /// previous fault on it. Loopback (a == b) is never faulted.
  void SetLinkFault(NodeId a, NodeId b, const LinkFault& fault);
  /// Removes the fault on (a, b), both directions.
  void ClearLinkFault(NodeId a, NodeId b);
  /// Removes every installed link fault (partition heal-all).
  void ClearAllLinkFaults();
  /// Messages dropped by blocked links and probabilistic loss — the proof
  /// that an injected partition actually carried traffic away.
  uint64_t fault_dropped_messages() const;

  /// ---- Node kill/restart (RT nemesis) ----
  /// SIGKILL-equivalent: joins node `id`'s loop thread and discards its
  /// queued work; messages to it drop until RestartNode. The node's
  /// listener socket stays open in TCP mode (its frames drain into the
  /// drop counter), so peers keep their connections.
  void StopNode(NodeId id);
  /// Re-registers `endpoint` (a fresh object, typically recovered from
  /// durable storage) as node endpoint->id() and restarts its loop.
  void RestartNode(Endpoint* endpoint);
  bool node_stopped(NodeId id) const { return loops_[id]->stopped(); }

  /// Messages dropped across all nodes: full inbound queues plus every
  /// transport drop (queue-full, connect-fail, decode-fail). Fault drops
  /// are counted separately.
  uint64_t dropped_messages() const;

  /// Aggregated TCP transport counters across all nodes (all zero in
  /// in-process mode). Per-reason drop counts and the egress coalescing
  /// factor (frames per sendmsg syscall) live here.
  TransportStats transport_stats() const;

 private:
  bool StartTcp();
  /// The fault-free delivery path (in-process handoff or TCP frame).
  void DeliverDirect(NodeId from, NodeId to, MessagePtr msg);
  static uint64_t LinkKey(NodeId from, NodeId to) {
    return static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32 |
           static_cast<uint32_t>(to);
  }

  ThreadedRuntimeOptions options_;
  SteadyClock clock_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<Endpoint*> endpoints_;
  bool started_ = false;
  bool stopped_ = false;
  /// Shared epoll I/O thread carrying every node's sockets (null in
  /// in-process mode). Declared before nets_ so the nets detach from a
  /// live poller on destruction.
  std::unique_ptr<NetPoller> poller_;
  /// One TCP endpoint per node (empty in in-process mode); each owns its
  /// listener and peer connections, driven by poller_.
  std::vector<std::unique_ptr<NodeNet>> nets_;
  /// Runtime-level drops (e.g. TCP sends before the transport is up).
  /// Per-site transport drops live in each NodeNet's stats; this is an
  /// atomic so drop sites never serialize on a shared mutex.
  std::atomic<uint64_t> dropped_{0};

  /// Fast-path guard: senders consult the fault table only when at least
  /// one fault is installed.
  std::atomic<bool> faults_active_{false};
  mutable std::mutex fault_mu_;
  std::unordered_map<uint64_t, LinkFault> faults_;
  std::mt19937_64 fault_rng_{0x9e3779b97f4a7c15ull};
  uint64_t fault_dropped_ = 0;
};

}  // namespace carousel::runtime

#endif  // CAROUSEL_RUNTIME_THREADED_H_
