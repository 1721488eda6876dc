#ifndef CAROUSEL_TAPIR_MESSAGES_H_
#define CAROUSEL_TAPIR_MESSAGES_H_

#include <map>

#include "common/types.h"
#include "sim/message.h"

namespace carousel::tapir {

/// A replica's OCC validation outcome for a prepare (TAPIR's
/// PREPARE-OK / ABORT / ABSTAIN result set).
enum class Vote : int8_t {
  kOk = 0,      // No conflicts at this replica.
  kAbort = 1,   // The transaction read stale data; abort is final.
  kAbstain = 2  // Conflicts with another prepared transaction.
};

/// Client -> one (closest) replica: read a batch of keys of one partition.
struct TapirReadMsg final
    : sim::WireMessage<TapirReadMsg, sim::kTapirRead, 32> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId client = kInvalidNode;
  KeyList keys;

  template <class F>
  void Fields(F& f) {
    f.Header(tid, partition, client);
    f(keys);
  }
};

struct TapirReadReplyMsg final
    : sim::WireMessage<TapirReadReplyMsg, sim::kTapirReadReply, 24> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  std::map<Key, VersionedValue> reads;

  template <class F>
  void Fields(F& f) {
    f.Header(tid, partition);
    f(reads);
  }
};

/// Client -> every replica of a participant partition (IR consensus
/// operation): validate and tentatively prepare the transaction.
struct TapirPrepareMsg final
    : sim::WireMessage<TapirPrepareMsg, sim::kTapirPrepare, 40> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId client = kInvalidNode;
  /// Proposed commit timestamp (client clock, tie-broken by client id).
  uint64_t timestamp = 0;
  ReadVersionMap read_versions;
  WriteSet writes;

  template <class F>
  void Fields(F& f) {
    f.Header(tid, partition, client, timestamp);
    f(read_versions, writes);
  }
};

struct TapirPrepareReplyMsg final
    : sim::WireMessage<TapirPrepareReplyMsg, sim::kTapirPrepareReply, 28> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId replica = kInvalidNode;
  Vote vote = Vote::kAbstain;

  template <class F>
  void Fields(F& f) {
    f.Header(tid, partition, replica, vote);
  }
};

/// Client -> every replica (IR slow path): make the chosen prepare result
/// durable before acting on it.
struct TapirFinalizeMsg final
    : sim::WireMessage<TapirFinalizeMsg, sim::kTapirFinalize, 28> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  Vote vote = Vote::kAbstain;

  template <class F>
  void Fields(F& f) {
    f.Header(tid, partition, vote);
  }
};

struct TapirFinalizeReplyMsg final
    : sim::WireMessage<TapirFinalizeReplyMsg, sim::kTapirFinalizeReply, 24> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId replica = kInvalidNode;

  template <class F>
  void Fields(F& f) {
    f.Header(tid, partition, replica);
  }
};

/// Client -> every replica: the commit/abort decision (inconsistent
/// operation; applied on receipt).
struct TapirDecideMsg final
    : sim::WireMessage<TapirDecideMsg, sim::kTapirDecide, 32> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  bool commit = false;
  uint64_t timestamp = 0;
  WriteSet writes;

  template <class F>
  void Fields(F& f) {
    f.Header(tid, partition, timestamp, commit);
    f(writes);
  }
};

struct TapirDecideAckMsg final
    : sim::WireMessage<TapirDecideAckMsg, sim::kTapirDecideAck, 24> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId replica = kInvalidNode;

  template <class F>
  void Fields(F& f) {
    f.Header(tid, partition, replica);
  }
};

}  // namespace carousel::tapir

#endif  // CAROUSEL_TAPIR_MESSAGES_H_
