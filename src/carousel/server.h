#ifndef CAROUSEL_CAROUSEL_SERVER_H_
#define CAROUSEL_CAROUSEL_SERVER_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "carousel/coordinator.h"
#include "carousel/directory.h"
#include "carousel/options.h"
#include "carousel/participant.h"
#include "carousel/recovery.h"
#include "carousel/server_context.h"
#include "common/trace.h"
#include "common/types.h"
#include "kv/pending_list.h"
#include "kv/versioned_store.h"
#include "raft/raft_node.h"
#include "runtime/batcher.h"
#include "runtime/dispatcher.h"
#include "runtime/endpoint.h"
#include "runtime/runtime.h"

namespace carousel::core {

/// A Carousel data server (CDS, paper §3.3): one replica of one partition's
/// consensus group. The protocol itself lives in three role modules that
/// share a ServerContext:
///
///  * Participant (participant.h) — reads, OCC prepare checks, slow-path
///    replication, CPC fast-path replies, writeback application.
///  * Coordinator (coordinator.h) — active on the group leader when a local
///    client picks it; tracks participant decisions, replicates txn state,
///    answers the client, drives Writeback.
///  * Recovery (recovery.h) — CPC failure handling (§4.3.3): buffers
///    requests on a fresh leader until fast-path prepares are
///    reconstructed and re-replicated.
///
/// This class is wiring and lifecycle only: it owns the storage and Raft
/// substrate, builds the shared context, and routes incoming messages and
/// applied log entries through typed dispatchers the roles register into.
class CarouselServer : public runtime::Endpoint {
 public:
  /// `metrics`, when non-null and enabled, receives per-role counters and
  /// zero-cost exposures (dispatch counts, raft state, queue depths); it
  /// also switches on Raft ack-span stamping for WANRT accounting.
  /// `env` is the hosting substrate's executor handle (clock, this
  /// node's timer queue, a forked RNG); the server must then be
  /// Register()ed with the matching backend before Start().
  CarouselServer(const NodeInfo& info, const Directory* directory,
                 runtime::NodeEnv env, const CarouselOptions& options,
                 TraceCollector* traces = nullptr,
                 obs::MetricsRegistry* metrics = nullptr);
  ~CarouselServer() override;

  /// Starts the Raft member. Replica 0 bootstraps as leader of term 1.
  void Start();

  // runtime::Endpoint interface.
  void HandleMessage(NodeId from, const sim::MessagePtr& msg) override;
  SimTime ServiceCost(const sim::Message& msg) const override;
  void OnCrash() override;
  void OnRecover() override;

  /// ---- Introspection (tests, benches) ----
  raft::RaftNode* raft() { return raft_.get(); }
  const kv::VersionedStore& store() const { return store_; }
  /// Mutable store access for verification runs (writer-log enablement).
  kv::VersionedStore& mutable_store() { return store_; }
  /// Attaches a verification history recorder (may be null); coordinators
  /// stamp their decision points into it.
  void set_history(check::HistoryRecorder* history) { ctx_.history = history; }
  const kv::PendingList& pending() const { return pending_; }
  PartitionId partition() const { return partition_; }
  /// False while a newly elected leader is still running the CPC
  /// failure-handling protocol (requests are buffered).
  bool serving() const { return recovery_->serving(); }
  /// Serving-gate hook (see Recovery::set_on_serving); runs on this
  /// server's loop.
  void set_on_serving(std::function<void()> fn) {
    recovery_->set_on_serving(std::move(fn));
  }
  /// Number of transactions this node committed (applied writes for).
  uint64_t committed_count() const { return participant_->committed_count(); }

  Participant& participant() { return *participant_; }
  Coordinator& coordinator() { return *coordinator_; }
  Recovery& recovery() { return *recovery_; }
  /// Egress batcher statistics (tests, benches). Counters stay zero when
  /// batching is disabled.
  const runtime::MessageBatcher::Stats& batcher_stats() const {
    return batcher_.stats();
  }
  /// Network-message routing table (coverage tests).
  const runtime::Dispatcher& dispatcher() const { return dispatcher_; }
  /// Raft log payload routing table (coverage tests).
  const runtime::Dispatcher& apply_dispatcher() const {
    return apply_dispatcher_;
  }

  /// Fast-path quorum for a participant group of size n = 2f+1:
  /// ceil(3f/2) + 1 (paper §4.2).
  static int SupermajorityFor(int group_size);

 private:
  void ApplyLogEntry(uint64_t index, const sim::MessagePtr& payload);
  /// Outbound routing: server-to-server traffic goes through the egress
  /// batcher when batching is on; client-bound and all unbatched traffic
  /// goes straight to the transport.
  void SendRouted(NodeId to, sim::MessagePtr msg);
  /// CPU charge for one message's payload-proportional work (per-key,
  /// per-entry terms), excluding the per-message dispatch base.
  SimTime PayloadCost(const sim::Message& msg) const;

  // ---- Identity / wiring ----
  PartitionId partition_;
  const Directory* directory_;
  CarouselOptions options_;
  std::vector<NodeId> group_members_;
  std::unique_ptr<raft::RaftNode> raft_;
  /// Durable state (threaded backend); null under the simulator.
  runtime::Storage* storage_ = nullptr;

  // ---- Substrate shared by the roles ----
  kv::VersionedStore store_;
  kv::PendingList pending_;
  ServerContext ctx_;

  // ---- Roles ----
  std::unique_ptr<Participant> participant_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<Recovery> recovery_;

  // ---- Routing ----
  runtime::Dispatcher dispatcher_;
  runtime::Dispatcher apply_dispatcher_;
  runtime::MessageBatcher batcher_;
};

inline int CarouselServer::SupermajorityFor(int group_size) {
  return ::carousel::core::SupermajorityFor(group_size);
}

}  // namespace carousel::core

#endif  // CAROUSEL_CAROUSEL_SERVER_H_
