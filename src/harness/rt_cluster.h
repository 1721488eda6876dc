#ifndef CAROUSEL_HARNESS_RT_CLUSTER_H_
#define CAROUSEL_HARNESS_RT_CLUSTER_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "carousel/client.h"
#include "carousel/directory.h"
#include "carousel/options.h"
#include "carousel/server.h"
#include "common/rng.h"
#include "common/topology.h"
#include "obs/metrics.h"
#include "runtime/event_fn.h"
#include "runtime/storage.h"
#include "runtime/threaded.h"

namespace carousel::harness {

struct RtClusterOptions {
  /// Inter-node messages over localhost TCP (serialized via wire::Codec)
  /// instead of in-process handoff.
  bool use_tcp = false;
  /// Bound on each node's inbound queue (overflow drops; protocols mask
  /// drops with retries).
  size_t max_inbound_queue = 1 << 16;
  /// Seeds the per-node RNG forks (jittered timers etc.; the threaded
  /// backend is not deterministic regardless).
  uint64_t seed = 1;
  /// Directory for per-server durable state (WAL + snapshot under
  /// <storage_dir>/node-<id>). Empty = no durable state, and
  /// KillServer/RestartServer are unavailable: a restarted node without a
  /// WAL would re-bootstrap and fork history.
  std::string storage_dir;
  /// fsync WAL appends. Off by default for the chaos harness: its kill
  /// model stops threads inside one process, so the page cache survives
  /// every "crash" and fsync only adds latency.
  bool wal_fsync = false;
};

/// A complete Carousel deployment on the threaded runtime: one event-loop
/// thread per node (servers and clients) on a shared monotonic clock —
/// backend #2 of the runtime seam. Same protocol objects as core::Cluster,
/// different substrate: real threads and (optionally) real sockets instead
/// of the discrete-event simulator.
///
/// Threading rules for callers: every client API call (Begin /
/// ReadAndPrepare / Commit / ...) must run on that client's loop thread —
/// use RunOnClient. Server state may only be inspected through
/// RunOnServer for the same reason.
class RtCluster {
 public:
  /// `topology` must already have partitions placed and clients added.
  RtCluster(Topology topology, core::CarouselOptions options,
            RtClusterOptions rt_options = {});
  ~RtCluster();

  RtCluster(const RtCluster&) = delete;
  RtCluster& operator=(const RtCluster&) = delete;

  /// Launches all loop threads (and sockets in TCP mode), starts every
  /// server, and waits until every partition serves. Returns false if the
  /// transport could not start (e.g. sockets unavailable) or the cluster
  /// failed to become ready within `timeout_ms`.
  bool Start(int timeout_ms = 10000);

  /// Stops all loop and socket threads. Idempotent; the destructor calls
  /// it too.
  void Stop();

  const Topology& topology() const { return topology_; }
  const core::Directory& directory() const { return *directory_; }
  runtime::ThreadedRuntime& rt() { return *rt_; }
  size_t num_clients() const { return client_ptrs_.size(); }
  core::CarouselClient* client(int index) { return client_ptrs_.at(index); }

  /// The server actor for node `id` (nullptr for client nodes and killed
  /// servers). While the cluster runs, touch its state only through
  /// RunOnServer; after Stop() every loop thread has joined and direct
  /// reads are safe.
  core::CarouselServer* server(NodeId id) {
    std::lock_guard<std::mutex> lk(lifecycle_mu_);
    auto it = servers_.find(id);
    return it == servers_.end() ? nullptr : it->second.get();
  }

  /// ---- Node lifecycle (requires RtClusterOptions::storage_dir) ----
  /// SIGKILL equivalent: joins the node's loop thread mid-flight and
  /// destroys the server object — volatile state (queues, timers, roles'
  /// in-memory maps) is gone; only the WAL survives. Thread-safe; returns
  /// false if `id` is not a live server or no storage is configured.
  bool KillServer(NodeId id);
  /// Builds a fresh server over the recovered WAL and restarts its loop.
  /// Returns false if `id` is not currently dead.
  bool RestartServer(NodeId id);
  bool server_alive(NodeId id) const;

  /// Lifetime counters for fault-schedule "did it actually fire" checks.
  size_t restarts() const;
  /// Raft log entries / pending prepare pins recovered from WALs across
  /// all restarts.
  size_t recovered_log_entries() const;
  size_t recovered_pending() const;

  /// Runs `fn` on client `index`'s loop thread (fire and forget).
  void RunOnClient(int index, runtime::EventFn fn);
  /// Runs `fn` on server `id`'s loop thread (fire and forget).
  void RunOnServer(NodeId id, runtime::EventFn fn);

  /// Attaches a verification history recorder to every client and server.
  /// The recorder must be internally synchronized (check::HistoryRecorder
  /// is); call before Start.
  void AttachHistory(check::HistoryRecorder* history);

  /// Messages dropped across the deployment (full queues, dead sockets).
  uint64_t dropped_messages() const { return rt_->dropped_messages(); }

  /// Aggregated TCP transport counters: per-reason drop counts
  /// (queue-full / connect-fail / decode-fail), the egress coalescing
  /// factor, and bytes/syscall totals. All zero in in-process mode.
  runtime::TransportStats transport_stats() const {
    return rt_->transport_stats();
  }

  /// Blocks until every live server reports serving (leader known for its
  /// partition) or the timeout passes. Called by Start; also useful after
  /// a fault schedule heals, before extracting state. Event-driven: it
  /// probes each server on its own loop, then sleeps until a serving gate
  /// opens, and probes again. Not for use while a concurrent KillServer or
  /// RestartServer may stop a probed loop.
  bool WaitUntilServing(int timeout_ms);

 private:
  std::string StorageDirFor(NodeId id) const;
  /// Records a readiness event (a serving gate opened) and wakes every
  /// waiter.
  void NotifyReadiness();

  Topology topology_;
  core::CarouselOptions options_;
  RtClusterOptions rt_options_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<core::Directory> directory_;
  std::unique_ptr<runtime::ThreadedRuntime> rt_;
  carousel::Rng rng_;
  check::HistoryRecorder* history_ = nullptr;
  /// Guards servers_/storage_/dead_ and the counters: KillServer and
  /// RestartServer run on the nemesis driver thread while the owner reads
  /// accessors.
  mutable std::mutex lifecycle_mu_;
  std::unordered_map<NodeId, std::unique_ptr<core::CarouselServer>> servers_;
  std::unordered_map<NodeId, std::unique_ptr<runtime::WalStorage>> storage_;
  std::set<NodeId> dead_;
  size_t restarts_ = 0;
  size_t recovered_log_entries_ = 0;
  size_t recovered_pending_ = 0;
  std::vector<std::unique_ptr<core::CarouselClient>> clients_;
  std::vector<core::CarouselClient*> client_ptrs_;
  bool started_ = false;
  /// Readiness events and WaitUntilServing's probe answers, guarded by
  /// ready_mu_; never held while taking lifecycle_mu_.
  std::mutex ready_mu_;
  std::condition_variable ready_cv_;
  uint64_t readiness_events_ = 0;
};

}  // namespace carousel::harness

#endif  // CAROUSEL_HARNESS_RT_CLUSTER_H_
