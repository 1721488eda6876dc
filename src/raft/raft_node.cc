#include "raft/raft_node.h"

#include <algorithm>
#include <memory>

#include "runtime/arena.h"
#include "runtime/storage.h"

namespace carousel::raft {

size_t PendingTxnWireSize(const kv::PendingTxn& txn) {
  size_t sz = 24;  // tid + term
  // The wire codec writes one version word per read *key* (not per
  // read_versions entry — the map dedupes duplicate keys), so charge
  // 4 (length) + key + 8 (version) per read key to match it.
  for (const auto& k : txn.read_keys) sz += k.size() + 12;
  for (const auto& k : txn.write_keys) sz += k.size() + 4;
  return sz;
}

RaftNode::RaftNode(PartitionId group, NodeId self, std::vector<NodeId> members,
                   runtime::Clock* clock, runtime::TimerQueue* timers,
                   carousel::Rng rng, RaftOptions options,
                   runtime::Storage* storage)
    : group_(group),
      self_(self),
      members_(std::move(members)),
      clock_(clock),
      timers_(timers),
      options_(options),
      rng_(std::move(rng)),
      storage_(storage) {
  next_index_.assign(members_.size(), 1);
  match_index_.assign(members_.size(), 0);
}

void RaftNode::Start(bool bootstrap_as_leader) {
  running_ = true;
  runtime::DurableNodeState durable;
  if (storage_ != nullptr && storage_->Load(&durable) && !durable.empty()) {
    // Restart of a node that lived before: restore the persistent state
    // and replay the committed prefix through apply_fn so the hosting
    // server rebuilds its decision/prepare state, then rejoin as a
    // follower. bootstrap_as_leader is deliberately ignored — a restarted
    // replica 0 grabbing term-1 leadership again would fork history.
    recovered_ = true;
    term_ = durable.term;
    voted_for_ = durable.voted_for;
    log_.clear();
    log_.reserve(durable.log.size());
    for (auto& entry : durable.log) {
      log_.push_back(LogEntry{entry.term, entry.payload});
    }
    commit_index_ = std::min<uint64_t>(durable.commit_index, log_.size());
    ApplyCommitted();
    BecomeFollower(term_);
    return;
  }
  // Consistent bootstrap: the whole group starts in term 1 with replica 0
  // as leader, so no startup election (and no term skew visible to CPC's
  // up-to-date check) occurs. Bootstrap leadership is not a failover:
  // nothing was ever persisted, hence nothing ever sent, so there is no
  // earlier-term entry to commit, no pending list to examine and no
  // coordinator to take over. The elected/leadership hooks stay silent
  // and the node serves at once; the term-1 no-op still replicates.
  term_ = 1;
  PersistHardState();
  if (bootstrap_as_leader) {
    BecomeLeader(/*bootstrap=*/true);
  } else {
    BecomeFollower(term_);
  }
}

void RaftNode::HandleMessage(NodeId from, const sim::MessagePtr& msg) {
  if (!running_) return;
  switch (msg->type()) {
    case sim::kRaftRequestVote:
      HandleRequestVote(from, sim::As<RequestVoteMsg>(*msg));
      break;
    case sim::kRaftVoteResponse:
      HandleVoteResponse(from, sim::As<VoteResponseMsg>(*msg));
      break;
    case sim::kRaftAppendEntries:
      HandleAppendEntries(from, sim::As<AppendEntriesMsg>(*msg));
      break;
    case sim::kRaftAppendResponse:
      HandleAppendResponse(from, sim::As<AppendResponseMsg>(*msg));
      break;
    default:
      break;
  }
}

Result<uint64_t> RaftNode::Propose(sim::MessagePtr payload) {
  if (!is_leader()) {
    return Status::NotLeader("propose on non-leader (group " +
                             std::to_string(group_) + ")");
  }
  log_.push_back(LogEntry{term_, std::move(payload)});
  const uint64_t index = log_.size();
  PersistEntry(index);
  proposals_++;
  match_index_[/*self slot*/ SelfSlot()] = index;
  // Micro-batching: an idle leader replicates immediately; proposals that
  // arrive within append_batch_interval of the last send are coalesced
  // into one AppendEntries per follower.
  if (!flush_scheduled_) {
    const SimTime due = last_flush_ + options_.append_batch_interval;
    if (clock_->now() >= due) {
      FlushAppends();
    } else {
      flush_scheduled_ = true;
      const uint64_t gen = heartbeat_timer_gen_;
      timers_->ScheduleAt(due, [this, gen]() {
        flush_scheduled_ = false;
        if (!running_ || role_ != RaftRole::kLeader ||
            gen != heartbeat_timer_gen_) {
          return;
        }
        FlushAppends();
      });
    }
  }
  // Single-member groups commit immediately.
  AdvanceCommit();
  return index;
}

void RaftNode::FlushAppends() {
  last_flush_ = clock_->now();
  for (NodeId peer : members_) {
    if (peer == self_) continue;
    if (next_index_[SlotOf(peer)] <= last_log_index()) {
      SendAppendEntries(peer);
    }
  }
}

void RaftNode::OnCrash() {
  const bool was_leader = (role_ == RaftRole::kLeader);
  running_ = false;
  election_timer_gen_++;
  heartbeat_timer_gen_++;
  if (was_leader && step_down_fn_) step_down_fn_(term_);
}

void RaftNode::OnRecover() {
  running_ = true;
  role_ = RaftRole::kFollower;
  leader_hint_ = kInvalidNode;
  ResetElectionTimer();
}

void RaftNode::BecomeFollower(uint64_t term) {
  const bool was_leader = (role_ == RaftRole::kLeader);
  if (term > term_) {
    term_ = term;
    voted_for_ = kInvalidNode;
    PersistHardState();
  }
  role_ = RaftRole::kFollower;
  heartbeat_timer_gen_++;  // Stop heartbeats if we were leader.
  ResetElectionTimer();
  if (was_leader && step_down_fn_) step_down_fn_(term_);
}

void RaftNode::BecomeCandidate() {
  role_ = RaftRole::kCandidate;
  term_++;
  voted_for_ = self_;
  PersistHardState();  // Our own ballot must be durable before campaigning.
  votes_received_ = 1;  // Own vote.
  vote_lists_.clear();
  leader_hint_ = kInvalidNode;
  ResetElectionTimer();

  auto msg = runtime::MakeMessage<RequestVoteMsg>();
  msg->group = group_;
  msg->term = term_;
  msg->candidate = self_;
  msg->last_log_index = last_log_index();
  msg->last_log_term = LastLogTerm();
  for (NodeId peer : members_) {
    if (peer != self_) send_fn_(peer, msg);
  }
  // Single-node group: win immediately.
  if (votes_received_ >= quorum_size()) BecomeLeader();
}

void RaftNode::BecomeLeader(bool bootstrap) {
  role_ = RaftRole::kLeader;
  leader_hint_ = self_;
  elections_won_++;
  election_timer_gen_++;  // No election timeout while leading.
  if (elected_fn_ && !bootstrap) elected_fn_(term_);
  for (size_t i = 0; i < members_.size(); ++i) {
    next_index_[i] = last_log_index() + 1;
    match_index_[i] = 0;
  }
  match_index_[SelfSlot()] = last_log_index();

  // Append a no-op so entries from earlier terms become committable and we
  // can detect when the log is fully replicated (leader init).
  log_.push_back(LogEntry{term_, runtime::MakeMessage<NoopPayload>()});
  PersistEntry(log_.size());
  leader_init_index_ = log_.size();
  leader_init_done_ = bootstrap;
  match_index_[SelfSlot()] = log_.size();

  BroadcastAppendEntries();
  ScheduleHeartbeat();
  AdvanceCommit();
}

void RaftNode::ResetElectionTimer() {
  const uint64_t gen = ++election_timer_gen_;
  const SimTime timeout =
      options_.election_timeout_min +
      rng_.UniformInt(0, options_.election_timeout_max -
                             options_.election_timeout_min);
  timers_->Schedule(timeout, [this, gen]() {
    if (!running_ || gen != election_timer_gen_) return;
    if (role_ != RaftRole::kLeader) BecomeCandidate();
  });
}

void RaftNode::ScheduleHeartbeat() {
  const uint64_t gen = ++heartbeat_timer_gen_;
  timers_->Schedule(options_.heartbeat_interval, [this, gen]() {
    if (!running_ || gen != heartbeat_timer_gen_ ||
        role_ != RaftRole::kLeader) {
      return;
    }
    BroadcastAppendEntries();
    ScheduleHeartbeat();
  });
}

void RaftNode::BroadcastAppendEntries() {
  for (NodeId peer : members_) {
    if (peer != self_) SendAppendEntries(peer);
  }
}

void RaftNode::SendAppendEntries(NodeId peer) {
  const int slot = SlotOf(peer);
  auto msg = runtime::MakeMessage<AppendEntriesMsg>();
  msg->group = group_;
  msg->term = term_;
  msg->leader = self_;
  msg->leader_commit = commit_index_;
  const uint64_t next = next_index_[slot];
  msg->prev_log_index = next - 1;
  msg->prev_log_term =
      msg->prev_log_index == 0 ? 0 : EntryAt(msg->prev_log_index).term;
  for (uint64_t i = next; i <= last_log_index(); ++i) {
    msg->entries.push_back(EntryAt(i));
  }
  // Pipelining: optimistically advance next_index so back-to-back
  // proposals do not retransmit the in-flight suffix (the network
  // preserves per-pair FIFO order; a rejection resets next_index via the
  // follower's hint).
  next_index_[slot] = last_log_index() + 1;
  send_fn_(peer, std::move(msg));
}

void RaftNode::HandleRequestVote(NodeId from, const RequestVoteMsg& msg) {
  if (msg.term > term_) BecomeFollower(msg.term);

  auto reply = runtime::MakeMessage<VoteResponseMsg>();
  reply->group = group_;
  reply->term = term_;
  reply->voter = self_;
  reply->granted = false;

  const bool log_ok =
      msg.last_log_term > LastLogTerm() ||
      (msg.last_log_term == LastLogTerm() &&
       msg.last_log_index >= last_log_index());
  if (msg.term == term_ &&
      (voted_for_ == kInvalidNode || voted_for_ == msg.candidate) && log_ok) {
    voted_for_ = msg.candidate;
    PersistHardState();  // The vote must be durable before the reply leaves.
    reply->granted = true;
    // Carousel extension: piggyback our pending-transaction list.
    if (vote_attachment_fn_) reply->pending_list = vote_attachment_fn_();
    ResetElectionTimer();
  }
  send_fn_(from, std::move(reply));
}

void RaftNode::HandleVoteResponse(NodeId from, const VoteResponseMsg& msg) {
  (void)from;
  if (msg.term > term_) {
    BecomeFollower(msg.term);
    return;
  }
  if (role_ != RaftRole::kCandidate || msg.term != term_ || !msg.granted) {
    return;
  }
  votes_received_++;
  vote_lists_.push_back(msg.pending_list);
  if (votes_received_ >= quorum_size()) BecomeLeader();
}

void RaftNode::HandleAppendEntries(NodeId from, const AppendEntriesMsg& msg) {
  auto reply = runtime::MakeMessage<AppendResponseMsg>();
  reply->group = group_;
  reply->follower = self_;

  if (msg.term > term_ ||
      (msg.term == term_ && role_ != RaftRole::kFollower)) {
    BecomeFollower(msg.term);
  }
  if (msg.term < term_) {
    reply->term = term_;
    reply->success = false;
    reply->match_index = 0;
    send_fn_(from, std::move(reply));
    return;
  }

  // Valid leader for our term.
  leader_hint_ = msg.leader;
  ResetElectionTimer();
  reply->term = term_;

  // Log consistency check.
  if (msg.prev_log_index > last_log_index() ||
      (msg.prev_log_index > 0 &&
       EntryAt(msg.prev_log_index).term != msg.prev_log_term)) {
    reply->success = false;
    // Backoff hint: retry from our log end (or below the conflict).
    reply->match_index =
        std::min<uint64_t>(last_log_index(),
                           msg.prev_log_index == 0 ? 0 : msg.prev_log_index - 1);
    send_fn_(from, std::move(reply));
    return;
  }

  // Append / overwrite entries.
  uint64_t index = msg.prev_log_index;
  for (const LogEntry& entry : msg.entries) {
    index++;
    if (index <= last_log_index()) {
      if (EntryAt(index).term != entry.term) {
        log_.resize(index - 1);  // Delete conflicting suffix.
        log_.push_back(entry);
        PersistEntry(index);  // Journaled re-append truncates the suffix too.
      }
    } else {
      log_.push_back(entry);
      PersistEntry(index);
    }
  }

  if (msg.leader_commit > commit_index_) {
    commit_index_ = std::min<uint64_t>(msg.leader_commit, last_log_index());
    PersistCommitIndex();
    ApplyCommitted();
  }

  reply->success = true;
  reply->match_index = msg.prev_log_index + msg.entries.size();
  // WANRT accounting: the ack that lets the leader commit entry E is part
  // of E's causal chain; stamp the covered entries' spans onto it.
  if (span_tracking_) {
    for (const LogEntry& entry : msg.entries) {
      if (entry.payload) entry.payload->CollectSpans(&reply->wan_spans);
    }
  }
  send_fn_(from, std::move(reply));
}

void RaftNode::HandleAppendResponse(NodeId from, const AppendResponseMsg& msg) {
  if (msg.term > term_) {
    BecomeFollower(msg.term);
    return;
  }
  if (role_ != RaftRole::kLeader || msg.term != term_) return;

  const int slot = SlotOf(from);
  if (msg.success) {
    match_index_[slot] = std::max(match_index_[slot], msg.match_index);
    // Do not rewind the (optimistically advanced) next_index on acks for
    // older in-flight sends.
    next_index_[slot] = std::max(next_index_[slot], msg.match_index + 1);
    AdvanceCommit();
    // Stream any remaining entries.
    if (next_index_[slot] <= last_log_index()) SendAppendEntries(from);
  } else {
    // Rewind to the follower's hint and retransmit from there.
    next_index_[slot] = std::max<uint64_t>(
        1, std::min<uint64_t>(next_index_[slot], msg.match_index + 1));
    SendAppendEntries(from);
  }
}

void RaftNode::AdvanceCommit() {
  if (role_ != RaftRole::kLeader) return;
  for (uint64_t n = last_log_index(); n > commit_index_; --n) {
    if (EntryAt(n).term != term_) break;  // Only commit own-term entries.
    int replicated = 0;
    for (uint64_t m : match_index_) {
      if (m >= n) replicated++;
    }
    if (replicated >= quorum_size()) {
      commit_index_ = n;
      PersistCommitIndex();
      ApplyCommitted();
      break;
    }
  }
  MaybeFinishLeaderInit();
}

void RaftNode::ApplyCommitted() {
  while (last_applied_ < commit_index_) {
    last_applied_++;
    if (apply_fn_) apply_fn_(last_applied_, EntryAt(last_applied_).payload);
  }
  MaybeFinishLeaderInit();
}

void RaftNode::MaybeFinishLeaderInit() {
  if (role_ != RaftRole::kLeader || leader_init_done_ ||
      commit_index_ < leader_init_index_) {
    return;
  }
  leader_init_done_ = true;
  if (leadership_fn_) leadership_fn_(term_, vote_lists_);
  vote_lists_.clear();
}

void RaftNode::PersistHardState() {
  if (storage_ != nullptr) storage_->PersistHardState(term_, voted_for_);
}

void RaftNode::PersistEntry(uint64_t index) {
  if (storage_ != nullptr) {
    storage_->PersistLogEntry(index, EntryAt(index).term,
                              EntryAt(index).payload);
  }
}

void RaftNode::PersistCommitIndex() {
  if (storage_ != nullptr) storage_->PersistCommitIndex(commit_index_);
}

int RaftNode::SlotOf(NodeId peer) const {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == peer) return static_cast<int>(i);
  }
  return 0;  // Unreachable for well-formed groups.
}

int RaftNode::SelfSlot() const { return SlotOf(self_); }

}  // namespace carousel::raft
