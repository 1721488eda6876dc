#ifndef CAROUSEL_KV_PENDING_LIST_H_
#define CAROUSEL_KV_PENDING_LIST_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/fields.h"
#include "common/status.h"
#include "common/types.h"

namespace carousel::kv {

/// One entry in a pending-transaction list: a transaction that has been
/// prepared on this replica but not yet committed or aborted (paper
/// §4.1.4 / §4.2). Key sets are restricted to the replica's partition.
struct PendingTxn {
  TxnId tid;
  KeyList read_keys;
  KeyList write_keys;
  /// Versions the preparing replica used for the read keys; compared
  /// against the leader's versions by the CPC fast path and by recovery.
  ReadVersionMap read_versions;
  /// Raft term the replica was in when it prepared the transaction.
  uint64_t term = 0;
  /// Transaction coordinator, so a newly elected leader can notify it
  /// after failure recovery.
  NodeId coordinator = kInvalidNode;
  /// When the entry was created (microseconds of simulated time); drives
  /// the pending-entry garbage-collection probe.
  int64_t prepared_at_micros = 0;

  /// The layout a vote piggybacks (raft::VoteResponseMsg): tid,
  /// coordinator, the term as u32 and both key counts as u16, then the
  /// keys, then one version per read key. prepared_at_micros is local
  /// bookkeeping and stays off the wire; the prepare-pin journal
  /// (EncodePendingTxn) keeps its own, fuller format.
  template <class F>
  void Fields(F& f) {
    uint16_t reads = static_cast<uint16_t>(read_keys.size());
    uint16_t writes = static_cast<uint16_t>(write_keys.size());
    f(tid, coordinator, Narrow<uint32_t>(term), reads, writes,
      Counted{read_keys, reads}, Counted{write_keys, writes},
      VersionsPerKey{read_keys, read_versions});
  }
};

/// The pending-transaction list a Carousel replica maintains, with the OCC
/// conflict checks from the paper: a new transaction conflicts with the
/// pending set if any of its reads hits a pending write (read-write), or
/// any of its writes hits a pending read (write-read) or a pending write
/// (write-write). Conflicts fail the prepare; there is no waiting.
class PendingList {
 public:
  PendingList() = default;

  /// True if (reads, writes) conflicts with any pending transaction.
  bool HasConflict(const KeyList& reads, const KeyList& writes) const;

  /// True if any of `reads` has a pending writer. Used by the read-only
  /// transaction optimization (paper §4.4.2).
  bool HasPendingWriter(const KeyList& reads) const;

  /// Adds a prepared transaction. Fails with InvalidArgument if the tid is
  /// already pending.
  Status Add(PendingTxn txn);

  bool Contains(const TxnId& tid) const { return txns_.count(tid) > 0; }

  /// The pending entry for `tid`, or nullptr.
  const PendingTxn* Find(const TxnId& tid) const;

  /// Removes `tid` (no-op if absent), e.g., when the commit decision
  /// arrives in the Writeback phase.
  void Remove(const TxnId& tid);

  /// Copy of all pending entries; piggybacked on Raft vote messages for
  /// CPC leader-failure recovery (paper §4.3.3 step 1).
  std::vector<PendingTxn> Snapshot() const;

  size_t size() const { return txns_.size(); }

  /// Mutation observers, fired after a successful Add and after an actual
  /// removal. The durable backend journals prepare pins through these so
  /// a restarted replica still answers §4.3.3's supermajority count; the
  /// simulator (whose crashes preserve memory) leaves them unset.
  using AddObserver = std::function<void(const PendingTxn&)>;
  using RemoveObserver = std::function<void(const TxnId&)>;
  void SetObservers(AddObserver on_add, RemoveObserver on_remove) {
    on_add_ = std::move(on_add);
    on_remove_ = std::move(on_remove);
  }

 private:
  std::unordered_map<TxnId, PendingTxn, TxnIdHash> txns_;
  /// Key -> number of pending transactions reading / writing it, so the
  /// conflict check is O(|keys|) instead of O(|pending| * |keys|).
  std::unordered_map<Key, int> readers_;
  std::unordered_map<Key, int> writers_;
  AddObserver on_add_;
  RemoveObserver on_remove_;
};

/// Flat little-endian serialization of one pending entry, for the durable
/// prepare-pin journal (runtime storage sees it as an opaque blob).
std::vector<uint8_t> EncodePendingTxn(const PendingTxn& txn);
/// Returns false on malformed input (the blob is then ignored).
bool DecodePendingTxn(const uint8_t* data, size_t len, PendingTxn* out);

}  // namespace carousel::kv

#endif  // CAROUSEL_KV_PENDING_LIST_H_
