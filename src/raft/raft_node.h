#ifndef CAROUSEL_RAFT_RAFT_NODE_H_
#define CAROUSEL_RAFT_RAFT_NODE_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "kv/pending_list.h"
#include "raft/messages.h"
#include "runtime/runtime.h"
#include "sim/message.h"

namespace carousel::raft {

/// Tuning for elections and heartbeats. Defaults suit a geo-distributed
/// deployment (timeouts well above the largest RTT in the paper's Table 1).
struct RaftOptions {
  SimTime election_timeout_min = 1'000'000;  // 1 s
  SimTime election_timeout_max = 2'000'000;  // 2 s
  SimTime heartbeat_interval = 200'000;      // 200 ms
  /// Proposals made within this window are coalesced into one
  /// AppendEntries per follower (micro-batching, as etcd does under
  /// load). An idle leader sends immediately.
  SimTime append_batch_interval = 200;  // 200 us
};

/// Role of a Raft member.
enum class RaftRole { kFollower, kCandidate, kLeader };

/// A single member of one Raft consensus group, driven entirely by timer
/// and message events through the runtime seam (it holds only a Clock and
/// a TimerQueue, so it runs under any backend). The hosting server wires
/// up message transport
/// (send_fn), applies committed payloads (apply_fn), and can attach
/// Carousel's pending-transaction list to granted votes
/// (vote_attachment_fn) and intercept leadership changes (leadership_fn) —
/// the hooks CPC's failure-handling protocol needs (paper §4.3.3).
///
/// Implemented from the Raft paper: randomized election timeouts, log
/// matching via (prev_index, prev_term) checks, and the restriction that a
/// leader only advances commit_index over entries of its own term.
/// Persistence is implicit: a crash/recover cycle keeps term, votedFor and
/// the log (a process pause with durable state, paper's fail-stop model).
class RaftNode {
 public:
  using SendFn = std::function<void(NodeId to, sim::MessagePtr msg)>;
  using ApplyFn = std::function<void(uint64_t index, const sim::MessagePtr&)>;
  using VoteAttachmentFn = std::function<std::vector<kv::PendingTxn>()>;
  /// Called when this node wins an election *and* has committed its no-op
  /// entry (so all prior-term entries are durable and applied); not on
  /// bootstrap leadership, which has nothing to recover. Receives
  /// the pending-transaction lists piggybacked on the granted votes (the
  /// caller's own list is not included; it has direct access).
  using LeadershipFn =
      std::function<void(uint64_t term,
                         std::vector<std::vector<kv::PendingTxn>> vote_lists)>;
  /// Called when leadership is lost (stepped down or crashed).
  using StepDownFn = std::function<void(uint64_t term)>;
  /// Called the instant this node wins an election (before any request
  /// can be served); leadership_fn follows once the log is fully
  /// committed. Bootstrap leadership calls neither.
  using ElectedFn = std::function<void(uint64_t term)>;

  /// `rng` is moved in by value: each member owns an independent stream,
  /// forked by the harness in a deterministic order. `storage`, when
  /// non-null, makes the persistent state (term, votedFor, log, commit
  /// watermark) actually durable: every mutation is journaled before the
  /// message it protects is sent, and Start() restores + replays instead
  /// of bootstrapping when a previous life left state behind. Null keeps
  /// the in-memory model (the simulator's process-pause crashes).
  RaftNode(PartitionId group, NodeId self, std::vector<NodeId> members,
           runtime::Clock* clock, runtime::TimerQueue* timers,
           carousel::Rng rng, RaftOptions options,
           runtime::Storage* storage = nullptr);

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  void set_send_fn(SendFn fn) { send_fn_ = std::move(fn); }
  void set_apply_fn(ApplyFn fn) { apply_fn_ = std::move(fn); }
  void set_vote_attachment_fn(VoteAttachmentFn fn) {
    vote_attachment_fn_ = std::move(fn);
  }
  void set_leadership_fn(LeadershipFn fn) { leadership_fn_ = std::move(fn); }
  void set_step_down_fn(StepDownFn fn) { step_down_fn_ = std::move(fn); }
  void set_elected_fn(ElectedFn fn) { elected_fn_ = std::move(fn); }
  /// When on, followers stamp the spans of entries covered by each
  /// successful AppendResponse (WANRT accounting of the ack leg). Off by
  /// default so the disabled-metrics hot path does no span work.
  void set_span_tracking(bool on) { span_tracking_ = on; }

  /// Starts timers. If `bootstrap_as_leader` the node assumes leadership
  /// of term 1 immediately (used at cluster startup to avoid an initial
  /// election storm; all members must be started consistently) and can
  /// serve before its term-1 no-op commits. When
  /// durable storage holds a previous life's state, the flag is ignored:
  /// the node restores term/votedFor/log, replays the committed prefix
  /// through apply_fn, and rejoins as a follower — claiming a stale term-1
  /// leadership after a restart would fork history.
  void Start(bool bootstrap_as_leader);

  /// True if Start() restored state from durable storage.
  bool recovered() const { return recovered_; }

  /// Feeds a Raft protocol message from peer `from`.
  void HandleMessage(NodeId from, const sim::MessagePtr& msg);

  /// Appends `payload` to the replicated log. Only valid on the leader;
  /// returns the assigned log index. The payload is applied (via apply_fn,
  /// on every live member) once committed.
  Result<uint64_t> Propose(sim::MessagePtr payload);

  /// ---- Crash/recovery (driven by the hosting server) ----
  void OnCrash();
  void OnRecover();

  /// ---- Introspection ----
  bool is_leader() const { return role_ == RaftRole::kLeader && running_; }
  RaftRole role() const { return role_; }
  uint64_t term() const { return term_; }
  /// Best known leader (from AppendEntries), or kInvalidNode.
  NodeId leader_hint() const { return leader_hint_; }
  uint64_t commit_index() const { return commit_index_; }
  uint64_t last_log_index() const { return log_.size(); }
  const std::vector<LogEntry>& log() const { return log_; }
  PartitionId group() const { return group_; }
  NodeId self() const { return self_; }
  const std::vector<NodeId>& members() const { return members_; }
  int quorum_size() const { return static_cast<int>(members_.size()) / 2 + 1; }
  /// Times this node assumed leadership (bootstrap included); for metrics.
  uint64_t elections_won() const { return elections_won_; }
  /// Payloads proposed on this node while leader; for metrics.
  uint64_t proposals() const { return proposals_; }

 private:
  void BecomeFollower(uint64_t term);
  void BecomeCandidate();
  /// `bootstrap`: term-1 leadership of a group that never ran, which
  /// skips the elected/leadership hooks (there is nothing to recover).
  void BecomeLeader(bool bootstrap = false);
  void ResetElectionTimer();
  void ScheduleHeartbeat();
  void BroadcastAppendEntries();
  /// Sends pending (unsent) entries to every follower.
  void FlushAppends();
  void SendAppendEntries(NodeId peer);
  void AdvanceCommit();
  void ApplyCommitted();
  void MaybeFinishLeaderInit();

  void HandleRequestVote(NodeId from, const RequestVoteMsg& msg);
  void HandleVoteResponse(NodeId from, const VoteResponseMsg& msg);
  void HandleAppendEntries(NodeId from, const AppendEntriesMsg& msg);
  void HandleAppendResponse(NodeId from, const AppendResponseMsg& msg);

  /// Journals (term_, voted_for_) when storage is attached; call after
  /// every hard-state mutation, before the message it protects is sent.
  void PersistHardState();
  /// Journals log entry `index` (which implicitly truncates any persisted
  /// suffix at >= index).
  void PersistEntry(uint64_t index);
  void PersistCommitIndex();

  uint64_t LastLogTerm() const { return log_.empty() ? 0 : log_.back().term; }
  /// Index of `peer` in members_ (for next_index_/match_index_ slots).
  int SlotOf(NodeId peer) const;
  int SelfSlot() const;
  /// log index is 1-based; log_[i-1] is entry i.
  const LogEntry& EntryAt(uint64_t index) const { return log_[index - 1]; }

  PartitionId group_;
  NodeId self_;
  std::vector<NodeId> members_;
  runtime::Clock* clock_;
  runtime::TimerQueue* timers_;
  RaftOptions options_;
  carousel::Rng rng_;
  runtime::Storage* storage_;
  bool recovered_ = false;

  SendFn send_fn_;
  ApplyFn apply_fn_;
  VoteAttachmentFn vote_attachment_fn_;
  LeadershipFn leadership_fn_;
  StepDownFn step_down_fn_;
  ElectedFn elected_fn_;

  // Persistent state.
  uint64_t term_ = 0;
  NodeId voted_for_ = kInvalidNode;
  std::vector<LogEntry> log_;

  // Volatile state.
  RaftRole role_ = RaftRole::kFollower;
  bool running_ = false;
  NodeId leader_hint_ = kInvalidNode;
  uint64_t commit_index_ = 0;
  uint64_t last_applied_ = 0;
  uint64_t election_timer_gen_ = 0;
  uint64_t heartbeat_timer_gen_ = 0;
  SimTime last_flush_ = -1'000'000;
  bool flush_scheduled_ = false;
  bool span_tracking_ = false;
  uint64_t elections_won_ = 0;
  uint64_t proposals_ = 0;

  // Candidate state.
  int votes_received_ = 0;
  std::vector<std::vector<kv::PendingTxn>> vote_lists_;

  // Leader state.
  std::vector<uint64_t> next_index_;   // per member slot
  std::vector<uint64_t> match_index_;  // per member slot
  /// Index of the no-op appended on election; leadership_fn fires when it
  /// commits.
  uint64_t leader_init_index_ = 0;
  bool leader_init_done_ = false;
};

}  // namespace carousel::raft

#endif  // CAROUSEL_RAFT_RAFT_NODE_H_
