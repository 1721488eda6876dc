#ifndef CAROUSEL_CAROUSEL_RECOVERY_H_
#define CAROUSEL_CAROUSEL_RECOVERY_H_

#include <deque>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "carousel/coordinator.h"
#include "carousel/participant.h"
#include "carousel/server_context.h"
#include "kv/pending_list.h"
#include "sim/message.h"

namespace carousel::core {

/// Recovery role of a Carousel data server: the CPC failure-handling
/// protocol (paper §4.3.3). A freshly elected leader buffers new requests,
/// reconstructs the pending-transaction list from f+1 vote attachments,
/// re-replicates surviving fast-path prepares, re-announces slow-path
/// prepared transactions, and only then opens the serving gate.
class Recovery {
 public:
  Recovery(ServerContext* ctx, Participant* participant,
           Coordinator* coordinator)
      : ctx_(ctx),
        participant_(participant),
        coordinator_(coordinator),
        m_recoveries_(ctx->RoleCounter("recovery", "leadership_recoveries")),
        m_reproposed_(ctx->RoleCounter("recovery", "prepares_rereplicated")) {
    participant_->set_on_prepare_applied(
        [this](const TxnId& tid) { OnPrepareApplied(tid); });
  }

  /// Redelivery sink for buffered messages (the server's dispatch entry).
  void set_redeliver(
      std::function<void(NodeId, const sim::MessagePtr&)> redeliver) {
    redeliver_ = std::move(redeliver);
  }

  /// Raft callbacks, wired up by the server.
  void OnElected(uint64_t term);
  void OnLeadership(uint64_t term,
                    std::vector<std::vector<kv::PendingTxn>> vote_lists);
  void OnStepDown(uint64_t term);

  /// Pre-dispatch gate: buffers request-class messages while the CPC
  /// failure-handling protocol is in flight. Returns true if buffered
  /// (the caller must not dispatch the message).
  bool MaybeBuffer(NodeId from, const sim::MessagePtr& msg);

  /// Host crash-recover: a restarted node serves immediately (it rejoins
  /// as a follower; leader recovery re-runs on election).
  void OnHostRecover() { OpenGate(); }

  bool serving() const { return serving_; }
  /// Called on this server's loop each time the serving gate opens (a
  /// new leader finished §4.3.3, stepped down, or the host recovered), so
  /// a harness can wait for readiness without polling.
  void set_on_serving(std::function<void()> fn) {
    on_serving_ = std::move(fn);
  }
  size_t buffered_count() const { return buffered_.size(); }

 private:
  /// Participant hook: a prepare result we re-replicated has committed.
  void OnPrepareApplied(const TxnId& tid);
  void FinishRecoveryIfReady();
  void DrainBuffered();
  void OpenGate();

  ServerContext* ctx_;
  Participant* participant_;
  Coordinator* coordinator_;
  std::function<void(NodeId, const sim::MessagePtr&)> redeliver_;
  std::function<void()> on_serving_;

  /// False from election until §4.3.3 completes; requests buffer below.
  bool serving_ = true;
  std::deque<std::pair<NodeId, sim::MessagePtr>> buffered_;
  /// Fast-path prepares being re-replicated (step 5), until applied.
  std::set<TxnId> recovery_tids_;
  int recovery_outstanding_ = 0;

  // Metrics (null handles when the registry is absent or disabled).
  obs::Counter m_recoveries_;
  obs::Counter m_reproposed_;
};

}  // namespace carousel::core

#endif  // CAROUSEL_CAROUSEL_RECOVERY_H_
