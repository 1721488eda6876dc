#ifndef CAROUSEL_RAFT_MESSAGES_H_
#define CAROUSEL_RAFT_MESSAGES_H_

#include <vector>

#include "common/types.h"
#include "kv/pending_list.h"
#include "sim/message.h"

namespace carousel::raft {

/// One replicated log slot: the leader's term when appended plus an opaque
/// payload (a sim::Message subclass defined by the layer above Raft, or
/// none).
struct LogEntry {
  uint64_t term = 0;
  sim::MessagePtr payload;

  template <class F>
  void Fields(F& f) {
    f(term, Nullable{payload});
  }
};

/// No-op entry a new leader appends to commit entries from prior terms
/// (Raft §5.4.2 commit rule) and to detect when its log is fully
/// replicated.
struct NoopPayload final : sim::WireMessage<NoopPayload, sim::kLogNoop, 8> {
  template <class F>
  void Fields(F& f) {
    f.Header();
  }
};

struct RequestVoteMsg final
    : sim::WireMessage<RequestVoteMsg, sim::kRaftRequestVote, 40> {
  PartitionId group = kInvalidPartition;
  uint64_t term = 0;
  NodeId candidate = kInvalidNode;
  uint64_t last_log_index = 0;
  uint64_t last_log_term = 0;

  template <class F>
  void Fields(F& f) {
    f.Header(group, term, candidate, last_log_index, last_log_term);
  }
};

/// Vote response. Carousel extension (paper §4.3.3 step 1): when the vote
/// is granted, the voter piggybacks its pending-transaction list so the
/// new leader can reconstruct fast-path prepare decisions (each entry in
/// kv::PendingTxn's wire layout).
struct VoteResponseMsg final
    : sim::WireMessage<VoteResponseMsg, sim::kRaftVoteResponse, 24> {
  PartitionId group = kInvalidPartition;
  uint64_t term = 0;
  bool granted = false;
  NodeId voter = kInvalidNode;
  std::vector<kv::PendingTxn> pending_list;

  template <class F>
  void Fields(F& f) {
    uint32_t n = WireCount(pending_list);
    f.Header(group, term, voter, granted, n);
    f(Counted{pending_list, n});
  }
};

struct AppendEntriesMsg final
    : sim::WireMessage<AppendEntriesMsg, sim::kRaftAppendEntries, 48> {
  PartitionId group = kInvalidPartition;
  uint64_t term = 0;
  NodeId leader = kInvalidNode;
  uint64_t prev_log_index = 0;
  uint64_t prev_log_term = 0;
  uint64_t leader_commit = 0;
  std::vector<LogEntry> entries;

  template <class F>
  void Fields(F& f) {
    uint32_t n = WireCount(entries);
    f.Header(group, term, leader, prev_log_index, prev_log_term,
             leader_commit, n);
    f(Counted{entries, n});
  }
  /// WANRT accounting: an append is attributed to every transaction whose
  /// log payload it carries, so replication legs count toward those
  /// transactions' causal hop chains.
  void CollectSpans(std::vector<sim::WanSpan>* out) const override {
    for (const auto& e : entries) {
      if (e.payload) e.payload->CollectSpans(out);
    }
  }
};

struct AppendResponseMsg final
    : sim::WireMessage<AppendResponseMsg, sim::kRaftAppendResponse, 32> {
  PartitionId group = kInvalidPartition;
  uint64_t term = 0;
  bool success = false;
  NodeId follower = kInvalidNode;
  /// On success: highest index known replicated on the follower. On
  /// failure: a hint for the leader's next_index backoff.
  uint64_t match_index = 0;
  /// WANRT accounting only (zero wire bytes): spans of the transactions
  /// whose entries this ack covers, stamped by the follower when span
  /// tracking is on, so the ack leg of a replication round is attributed
  /// to the transactions it makes durable.
  std::vector<sim::WanSpan> wan_spans;

  template <class F>
  void Fields(F& f) {
    f.Header(group, term, follower, success, match_index);
  }
  void CollectSpans(std::vector<sim::WanSpan>* out) const override {
    out->insert(out->end(), wan_spans.begin(), wan_spans.end());
  }
};

}  // namespace carousel::raft

#endif  // CAROUSEL_RAFT_MESSAGES_H_
