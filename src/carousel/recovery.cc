#include "carousel/recovery.h"

#include <cstdio>
#include <map>
#include <memory>

#include "runtime/arena.h"

namespace {
// Protocol tracing for debugging: set CAROUSEL_TRACE=1 in the environment.
bool TraceEnabled() {
  static const bool enabled = ::getenv("CAROUSEL_TRACE") != nullptr;
  return enabled;
}
}  // namespace

namespace carousel::core {

void Recovery::OnElected(uint64_t term) {
  // Buffer client/coordinator requests from the instant of election until
  // the CPC failure-handling protocol completes (§4.3.3 step 1).
  (void)term;
  serving_ = false;
}

bool Recovery::MaybeBuffer(NodeId from, const sim::MessagePtr& msg) {
  if (serving_) return false;
  // Only request-class messages wait for recovery; responses (decisions,
  // acks, heartbeats) and Raft traffic are processed immediately.
  switch (msg->type()) {
    case sim::kCarouselReadPrepare:
    case sim::kCarouselQueryPrepare:
    case sim::kCarouselQueryDecision:
    case sim::kCarouselWriteback:
    case sim::kCarouselCoordPrepare:
    case sim::kCarouselCommitRequest:
    case sim::kCarouselAbortRequest:
      buffered_.emplace_back(from, msg);
      return true;
    default:
      return false;
  }
}

void Recovery::OnLeadership(
    uint64_t term, std::vector<std::vector<kv::PendingTxn>> vote_lists) {
  serving_ = false;
  recovery_outstanding_ = 0;
  recovery_tids_.clear();
  m_recoveries_.Increment();

  // ---- CPC failure handling (paper §4.3.3) ----
  // Step 2 (completing replication of the log) has already happened: Raft
  // invokes this callback only after the new leader's no-op entry — and
  // with it every earlier entry — is committed and applied.
  //
  // Step 3: examine f+1 pending-transaction lists (our own plus f of the
  // lists piggybacked on granted votes).
  const auto& group = ctx_->directory->Replicas(ctx_->partition);
  const int f = (static_cast<int>(group.size()) - 1) / 2;
  std::vector<std::vector<kv::PendingTxn>> lists;
  lists.push_back(ctx_->pending->Snapshot());
  for (int i = 0; i < f && i < static_cast<int>(vote_lists.size()); ++i) {
    lists.push_back(vote_lists[i]);
  }
  const bool enough_lists = static_cast<int>(lists.size()) >= f + 1;
  const int majority_needed = (f + 1) / 2 + 1;
  if (TraceEnabled()) {
    fprintf(stderr,
            "[%lld] node %d CPC recovery term=%llu lists=%zu (need %d) "
            "own_pending=%zu\n",
            (long long)ctx_->now(), ctx_->self, (unsigned long long)term,
            lists.size(), f + 1, lists.front().size());
  }

  std::vector<kv::PendingTxn> survivors;
  if (enough_lists && f > 0) {
    // Count, per transaction, how many lists prepared it with identical
    // versions and in the same term.
    std::map<TxnId, std::vector<const kv::PendingTxn*>> by_tid;
    for (const auto& list : lists) {
      for (const auto& entry : list) by_tid[entry.tid].push_back(&entry);
    }
    for (const auto& [tid, entries] : by_tid) {
      if (participant_->HasLoggedPrepare(tid)) continue;  // Slow-path done.
      if (participant_->HasDecided(tid)) continue;
      int agreeing = 0;
      const kv::PendingTxn* sample = entries.front();
      for (const kv::PendingTxn* e : entries) {
        if (e->term == sample->term &&
            e->read_versions == sample->read_versions) {
          agreeing++;
        }
      }
      if (TraceEnabled()) {
        fprintf(stderr, "[%lld] node %d CPC recovery tid %s agreeing=%d/%d\n",
                (long long)ctx_->now(), ctx_->self, tid.ToString().c_str(),
                agreeing, majority_needed);
      }
      if (agreeing < majority_needed) continue;

      // Step 4: exclude stale versions (the failed leader always had the
      // latest) ...
      bool stale = false;
      for (const auto& [key, version] : sample->read_versions) {
        if (ctx_->store->GetVersion(key) != version) {
          stale = true;
          break;
        }
      }
      if (stale) {
        if (TraceEnabled()) {
          fprintf(stderr, "[%lld] node %d CPC recovery tid %s STALE\n",
                  (long long)ctx_->now(), ctx_->self, tid.ToString().c_str());
        }
        continue;
      }
      // ... and conflicts with slow-path prepared transactions.
      bool conflicts = false;
      for (const kv::PendingTxn& logged : ctx_->pending->Snapshot()) {
        if (!participant_->HasLoggedPrepare(logged.tid)) continue;
        auto overlaps = [](const KeyList& a, const KeyList& b) {
          for (const Key& x : a) {
            for (const Key& y : b) {
              if (x == y) return true;
            }
          }
          return false;
        };
        if (overlaps(sample->read_keys, logged.write_keys) ||
            overlaps(sample->write_keys, logged.write_keys) ||
            overlaps(sample->write_keys, logged.read_keys)) {
          conflicts = true;
          break;
        }
      }
      if (conflicts) continue;
      if (TraceEnabled()) {
        fprintf(stderr, "[%lld] node %d CPC recovery tid %s SURVIVES\n",
                (long long)ctx_->now(), ctx_->self, tid.ToString().c_str());
      }
      survivors.push_back(*sample);
    }
  }

  // Drop tentative fast-path entries that did not survive: they cannot
  // have been exposed to any coordinator (a fast-path quorum of
  // ceil(3f/2)+1 leaves at least a majority of every f+1 sample prepared).
  std::set<TxnId> survivor_tids;
  for (const auto& s : survivors) survivor_tids.insert(s.tid);
  for (const kv::PendingTxn& entry : ctx_->pending->Snapshot()) {
    if (!participant_->HasLoggedPrepare(entry.tid) &&
        survivor_tids.count(entry.tid) == 0) {
      ctx_->pending->Remove(entry.tid);
    }
  }

  // Step 5: replicate the surviving fast-path prepares; requests are
  // buffered (serving_ == false) until these commit.
  for (const kv::PendingTxn& s : survivors) {
    if (!ctx_->pending->Contains(s.tid)) {
      kv::PendingTxn copy = s;
      copy.prepared_at_micros = ctx_->now();
      ctx_->pending->Add(std::move(copy)).ok();
    }
    recovery_tids_.insert(s.tid);
    recovery_outstanding_++;
    m_reproposed_.Increment();
    auto log = runtime::MakeMessage<LogPrepareResult>();
    log->tid = s.tid;
    log->coordinator = s.coordinator;
    log->prepared = true;
    log->read_keys = s.read_keys;
    log->write_keys = s.write_keys;
    log->read_versions = s.read_versions;
    log->term = s.term;
    TagSpan(log.get(), s.tid, obs::WanrtPhase::kPrepare);
    ctx_->raft->Propose(std::move(log)).ok();
  }

  // Re-announce slow-path prepared transactions to their coordinators (the
  // failed leader may have died between replication and notification).
  for (const kv::PendingTxn& entry : ctx_->pending->Snapshot()) {
    if (participant_->HasLoggedPrepare(entry.tid)) {
      participant_->SendDecision(entry.coordinator, entry.tid, true,
                                 entry.read_versions, entry.term,
                                 /*is_leader=*/true, /*via_fast_path=*/false);
    }
  }

  coordinator_->TakeOverCoordination();
  (void)term;
  FinishRecoveryIfReady();
}

void Recovery::OnStepDown(uint64_t term) {
  (void)term;
  // Abandon any in-progress recovery; a follower serves (fast-path
  // prepares, reads) normally.
  OpenGate();
  recovery_outstanding_ = 0;
  recovery_tids_.clear();
  DrainBuffered();
}

void Recovery::OnPrepareApplied(const TxnId& tid) {
  if (recovery_tids_.erase(tid) == 0) return;
  recovery_outstanding_--;
  FinishRecoveryIfReady();
}

void Recovery::FinishRecoveryIfReady() {
  if (serving_ || recovery_outstanding_ > 0) return;
  OpenGate();
  DrainBuffered();
}

void Recovery::OpenGate() {
  if (serving_) return;
  serving_ = true;
  if (on_serving_) on_serving_();
}

void Recovery::DrainBuffered() {
  std::deque<std::pair<NodeId, sim::MessagePtr>> pending_msgs;
  pending_msgs.swap(buffered_);
  for (auto& [from, msg] : pending_msgs) redeliver_(from, msg);
}

}  // namespace carousel::core
