#include "carousel/client.h"

#include <memory>

#include "runtime/arena.h"
#include <utility>


namespace carousel::core {

CarouselClient::CarouselClient(NodeId id, DcId dc, ClientId client_id,
                               const Directory* directory,
                               const CarouselOptions& options,
                               TraceCollector* traces)
    : runtime::Endpoint(id, dc),
      client_id_(client_id),
      directory_(directory),
      options_(options),
      traces_(traces) {}

TxnId CarouselClient::Begin() {
  return TxnId{client_id_, ++next_counter_};
}

void CarouselClient::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const std::string prefix = "client." + std::to_string(id()) + ".";
  m_started_ = registry->GetCounter(prefix + "txns_started");
  m_committed_ = registry->GetCounter(prefix + "txns_committed");
  m_aborted_ = registry->GetCounter(prefix + "txns_aborted");
  m_timedout_ = registry->GetCounter(prefix + "txns_timedout");
}

void CarouselClient::ReadAndPrepare(const TxnId& tid, KeyList reads,
                                    KeyList writes, ReadCallback callback) {
  ActiveTxn& txn = txns_[tid];
  txn.tid = tid;
  txn.read_cb = std::move(callback);
  txn.read_only = writes.empty();
  // Only the issuing client opens the trace; every later observer merely
  // stamps into it.
  if (traces_) traces_->Begin(tid, now(), txn.read_only);
  if (wanrt_) wanrt_->Begin(tid);
  m_started_.Increment();
  if (history_) {
    history_->Invoke(tid, reads, writes, txn.read_only, now());
  }

  for (Key& k : reads) {
    txn.keys[directory_->PartitionFor(k)].reads.push_back(std::move(k));
  }
  for (Key& k : writes) {
    txn.keys[directory_->PartitionFor(k)].writes.push_back(std::move(k));
  }

  bool all_local = true;
  for (const auto& [p, rw] : txn.keys) {
    if (!rw.reads.empty()) txn.awaiting_data.insert(p);
    if (directory_->LocalReplica(p, dc()) == kInvalidNode) all_local = false;
  }
  if (!all_local) rpt_count_++;

  if (!txn.read_only) {
    std::set<PartitionId> participants;
    for (const auto& [p, rw] : txn.keys) participants.insert(p);
    txn.coordinator = directory_->CoordinatorFor(dc(), participants);

    auto notify = runtime::MakeMessage<CoordPrepareMsg>();
    notify->tid = tid;
    notify->client = id();
    notify->fast_path = options_.fast_path;
    notify->keys = txn.keys;
    TagSpan(notify.get(), tid, obs::WanrtPhase::kPrepare);
    Send(txn.coordinator, std::move(notify));
    ArmHeartbeat(tid);
  }

  SendReadPrepares(txn, /*retry=*/false);
  if (traces_ && !txn.read_only) {
    traces_->RecordPhase(tid, TxnPhase::kPrepareSent, now());
  }
  ArmRetryTimer(tid);

  if (txn.awaiting_data.empty()) MaybeFinishReads(txn);
}

void CarouselClient::SendReadPrepares(ActiveTxn& txn, bool retry) {
  for (const auto& [p, rw] : txn.keys) {
    const bool need_data = txn.awaiting_data.count(p) > 0;
    auto make_msg = [&](bool want_data) {
      auto msg = runtime::MakeMessage<ReadPrepareMsg>();
      msg->tid = txn.tid;
      msg->partition = p;
      msg->client = id();
      msg->coordinator = txn.coordinator;
      msg->read_keys = rw.reads;
      msg->write_keys = rw.writes;
      msg->read_only = txn.read_only;
      msg->fast_path = options_.fast_path && !txn.read_only;
      msg->want_data = want_data;
      msg->is_retry = retry;
      msg->attempt = txn.read_attempt;
      TagSpan(msg.get(), txn.tid, obs::WanrtPhase::kExecute);
      return msg;
    };

    if (retry) {
      // Leader unknown after a failure: ask the whole group; only the
      // leader acts (and replies with data).
      if (!need_data && txn.read_only) continue;
      for (NodeId replica : directory_->Replicas(p)) {
        Send(replica, make_msg(need_data));
      }
      continue;
    }

    const NodeId leader = directory_->CachedLeader(p);
    if (txn.read_only) {
      Send(leader, make_msg(true));
      continue;
    }
    if (options_.fast_path) {
      // CPC: prepare goes to every replica; data comes from the leader
      // and, with the local-read optimization, the replica in our DC (or
      // the closest one, when enabled and none is local).
      NodeId extra = options_.local_reads
                         ? directory_->LocalReplica(p, dc())
                         : kInvalidNode;
      if (extra == kInvalidNode && options_.local_reads &&
          options_.closest_reads) {
        const Topology& topo = directory_->topology();
        SimTime best_rtt = 0;
        for (NodeId replica : directory_->Replicas(p)) {
          const SimTime rtt = topo.RttMicros(dc(), topo.DcOf(replica));
          if (extra == kInvalidNode || rtt < best_rtt) {
            extra = replica;
            best_rtt = rtt;
          }
        }
      }
      for (NodeId replica : directory_->Replicas(p)) {
        const bool want_data =
            need_data && (replica == leader || replica == extra);
        Send(replica, make_msg(want_data));
      }
    } else {
      Send(leader, make_msg(need_data));
    }
  }
}

void CarouselClient::Write(const TxnId& tid, Key key, Value value) {
  auto it = txns_.find(tid);
  if (it == txns_.end()) return;
  if (history_) history_->BufferWrite(tid, key, value);
  it->second.writes[std::move(key)] = std::move(value);
}

void CarouselClient::Commit(const TxnId& tid, CommitCallback callback) {
  auto it = txns_.find(tid);
  if (it == txns_.end()) {
    callback(Status::InvalidArgument("unknown transaction"));
    return;
  }
  ActiveTxn& txn = it->second;
  txn.commit_cb = std::move(callback);
  if (txn.read_only) {
    // Read-only transactions completed at the read callback.
    FinishCommit(tid, !txn.ro_failed, txn.ro_failed ? "read-only conflict" : "");
    return;
  }
  if (txn.have_early_response) {
    FinishCommit(tid, txn.early_committed, txn.early_reason);
    return;
  }
  txn.commit_sent = true;
  if (traces_) {
    traces_->RecordPhase(tid, TxnPhase::kCommitStart, now());
  }
  txn.hb_gen++;  // Commit supersedes heartbeats.
  txn.retries = 0;
  SendCommit(txn, /*broadcast=*/false);
  ArmRetryTimer(tid);
}

void CarouselClient::SendCommit(ActiveTxn& txn, bool broadcast) {
  auto msg = runtime::MakeMessage<CommitRequestMsg>();
  msg->tid = txn.tid;
  msg->client = id();
  msg->writes = txn.writes;
  msg->read_versions = txn.versions_used;
  msg->keys = txn.keys;
  TagSpan(msg.get(), txn.tid, obs::WanrtPhase::kDecision);
  if (broadcast) {
    const PartitionId p =
        directory_->topology().node(txn.coordinator).partition;
    for (NodeId replica : directory_->Replicas(p)) {
      Send(replica, msg);
    }
  } else {
    Send(txn.coordinator, std::move(msg));
  }
}

void CarouselClient::Abort(const TxnId& tid) {
  auto it = txns_.find(tid);
  if (it == txns_.end()) return;
  ActiveTxn& txn = it->second;
  if (!txn.read_only && txn.coordinator != kInvalidNode) {
    auto msg = runtime::MakeMessage<AbortRequestMsg>();
    msg->tid = tid;
    msg->client = id();
    TagSpan(msg.get(), tid, obs::WanrtPhase::kDecision);
    Send(txn.coordinator, std::move(msg));
  } else if (traces_) {
    // No coordinator will ever seal this trace; close it here.
    traces_->RecordPhase(tid, TxnPhase::kDecided, now());
    traces_->RecordOutcome(tid, /*committed=*/false, /*fast_path=*/false,
                           "client abort", now());
    traces_->Seal(tid);
  }
  // A voluntary abort always precedes Commit(), so the coordinator cannot
  // have decided commit (it needs our CommitRequest's write data first);
  // recording a definite abort is sound.
  if (history_) {
    history_->ClientOutcome(tid, check::Outcome::kAborted, "client abort",
                            now());
  }
  if (wanrt_) wanrt_->Seal(tid, id(), /*committed=*/false, txn.read_only);
  m_aborted_.Increment();
  txns_.erase(it);
}

void CarouselClient::HandleMessage(NodeId from, const sim::MessagePtr& msg) {
  (void)from;
  switch (msg->type()) {
    case sim::kCarouselReadResponse: {
      const auto& m = sim::As<ReadResponseMsg>(*msg);
      auto it = txns_.find(m.tid);
      if (it == txns_.end()) return;
      ActiveTxn& txn = it->second;
      if (txn.reads_done) return;
      if (m.attempt != txn.read_attempt) return;  // Stale attempt.
      if (txn.read_only && !m.ok) {
        txn.ro_failed = true;
        txn.awaiting_data.erase(m.partition);
        MaybeFinishReads(txn);
        return;
      }
      // First response per partition wins (leader or local replica).
      if (txn.awaiting_data.erase(m.partition) == 0) return;
      for (const auto& [k, vv] : m.reads) {
        txn.results[k] = vv;
        txn.versions_used[k] = vv.version;
      }
      MaybeFinishReads(txn);
      return;
    }
    case sim::kCarouselCommitResponse: {
      const auto& m = sim::As<CommitResponseMsg>(*msg);
      auto it = txns_.find(m.tid);
      if (it == txns_.end()) return;
      ActiveTxn& txn = it->second;
      if (!txn.commit_sent && !txn.commit_cb) {
        // Early decision (e.g., abort on prepare conflict) before the
        // application called Commit; remember it.
        txn.have_early_response = true;
        txn.early_committed = m.committed;
        txn.early_reason = m.reason;
        return;
      }
      FinishCommit(m.tid, m.committed, m.reason);
      return;
    }
    case sim::kCarouselNotLeader: {
      const auto& m = sim::As<NotLeaderMsg>(*msg);
      auto it = txns_.find(m.tid);
      if (it == txns_.end()) return;
      ActiveTxn& txn = it->second;
      if (txn.commit_sent && m.leader_hint != kInvalidNode &&
          m.leader_hint != txn.coordinator) {
        txn.coordinator = m.leader_hint;
        SendCommit(txn, /*broadcast=*/false);
      }
      return;
    }
    default:
      return;
  }
}

void CarouselClient::MaybeFinishReads(ActiveTxn& txn) {
  if (txn.reads_done || !txn.awaiting_data.empty()) return;
  txn.reads_done = true;
  const TxnId tid = txn.tid;
  if (history_) history_->ObserveReads(tid, txn.results);
  if (traces_) {
    traces_->RecordPhase(tid, TxnPhase::kExecuteDone, now());
  }
  if (txn.read_only) {
    txn.hb_gen++;
    txn.retry_gen++;
    ReadCallback cb = std::move(txn.read_cb);
    const bool failed = txn.ro_failed;
    ReadResults results = std::move(txn.results);
    // Read-only transactions end here: the client owns their whole trace.
    if (traces_) {
      traces_->RecordOutcome(tid, !failed, /*fast_path=*/false,
                             failed ? "read-only conflict" : "",
                             now());
      traces_->Seal(tid);
    }
    if (history_) {
      history_->ClientOutcome(
          tid, failed ? check::Outcome::kAborted : check::Outcome::kCommitted,
          failed ? "read-only conflict" : "", now());
    }
    if (wanrt_) wanrt_->Seal(tid, id(), !failed, /*read_only=*/true);
    (failed ? m_aborted_ : m_committed_).Increment();
    txns_.erase(tid);
    if (cb) {
      cb(failed ? Status::Aborted("read-only conflict") : Status::OK(),
         results);
    }
    return;
  }
  if (txn.read_cb) {
    ReadCallback cb = std::move(txn.read_cb);
    cb(Status::OK(), txn.results);
    // Note: the callback may have called Commit()/Abort() re-entrantly;
    // `txn` may be invalid past this point.
  }
}

void CarouselClient::FinishCommit(const TxnId& tid, bool committed,
                                  const std::string& reason) {
  auto it = txns_.find(tid);
  if (it == txns_.end()) return;
  // The Commit phase ends now, when the client sees the outcome (the
  // coordinator recorded the outcome itself when it decided).
  if (traces_) {
    traces_->RecordPhase(tid, TxnPhase::kDecided, now());
    traces_->RecordOutcome(tid, committed, /*fast_path=*/false, reason,
                           now());
  }
  if (history_) {
    history_->ClientOutcome(
        tid, committed ? check::Outcome::kCommitted : check::Outcome::kAborted,
        reason, now());
  }
  if (wanrt_) wanrt_->Seal(tid, id(), committed, /*read_only=*/false);
  (committed ? m_committed_ : m_aborted_).Increment();
  CommitCallback cb = std::move(it->second.commit_cb);
  // `reason` may alias a field of the ActiveTxn erased next (e.g.
  // early_reason), so copy it before the erase.
  const std::string why = reason;
  it->second.hb_gen++;
  it->second.retry_gen++;
  txns_.erase(it);
  if (cb) {
    cb(committed ? Status::OK() : Status::Aborted(why));
  }
}

void CarouselClient::ArmHeartbeat(const TxnId& tid) {
  auto it = txns_.find(tid);
  if (it == txns_.end()) return;
  const uint64_t gen = it->second.hb_gen;
  Schedule(options_.heartbeat_interval, [this, tid, gen]() {
    if (!alive()) return;
    auto it = txns_.find(tid);
    if (it == txns_.end() || it->second.hb_gen != gen) return;
    ActiveTxn& txn = it->second;
    if (txn.commit_sent) return;
    auto msg = runtime::MakeMessage<HeartbeatMsg>();
    msg->tid = tid;
    msg->client = id();
    Send(txn.coordinator, msg);
    ArmHeartbeat(tid);
  });
}

void CarouselClient::ArmRetryTimer(const TxnId& tid) {
  auto it = txns_.find(tid);
  if (it == txns_.end()) return;
  const uint64_t gen = ++it->second.retry_gen;
  Schedule(options_.client_retry_timeout, [this, tid, gen]() {
    if (!alive()) return;
    auto it = txns_.find(tid);
    if (it == txns_.end() || it->second.retry_gen != gen) return;
    ActiveTxn& txn = it->second;
    if (txn.reads_done && !txn.commit_sent) {
      // Between phases (application is deciding); nothing to retransmit.
      ArmRetryTimer(tid);
      return;
    }
    if (++txn.retries > kMaxRetries) {
      const bool in_commit = txn.commit_sent;
      CommitCallback ccb = std::move(txn.commit_cb);
      ReadCallback rcb = txn.reads_done ? nullptr : std::move(txn.read_cb);
      // Give up: close the trace with an unknown-outcome timeout (unless
      // some coordinator already sealed it).
      if (traces_) {
        traces_->RecordPhase(tid, TxnPhase::kDecided, now());
        traces_->RecordOutcome(tid, /*committed=*/false, /*fast_path=*/false,
                               "timeout", now());
        traces_->Seal(tid);
      }
      // The true verdict is indeterminate: the commit may still land.
      if (history_) {
        history_->ClientOutcome(tid, check::Outcome::kTimedOut,
                                in_commit ? "commit timeout" : "read timeout",
                                now());
      }
      if (wanrt_) {
        wanrt_->Seal(tid, id(), /*committed=*/false, txn.read_only);
      }
      m_timedout_.Increment();
      txns_.erase(it);
      if (rcb) rcb(Status::TimedOut("read phase"), {});
      if (in_commit && ccb) ccb(Status::TimedOut("commit"));
      return;
    }
    if (txn.commit_sent) {
      SendCommit(txn, /*broadcast=*/true);
    } else if (!txn.reads_done) {
      if (txn.read_only) {
        // A read-only snapshot must come from ONE attempt. Keeping results
        // from the previous attempt and filling in only the missing
        // partitions would merge reads taken a retry-interval apart —
        // a fractured snapshot that breaks serializability (writers that
        // committed in between are half-visible). Start over.
        txn.read_attempt++;
        txn.ro_failed = false;
        txn.results.clear();
        txn.versions_used.clear();
        txn.awaiting_data.clear();
        for (const auto& [p, rw] : txn.keys) {
          if (!rw.reads.empty()) txn.awaiting_data.insert(p);
        }
      }
      SendReadPrepares(txn, /*retry=*/true);
    }
    ArmRetryTimer(tid);
  });
}

}  // namespace carousel::core
