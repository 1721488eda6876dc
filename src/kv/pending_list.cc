#include "kv/pending_list.h"

#include "common/bytes.h"

namespace carousel::kv {

bool PendingList::HasConflict(const KeyList& reads,
                              const KeyList& writes) const {
  for (const Key& k : reads) {
    if (writers_.count(k) > 0) return true;  // read-write
  }
  for (const Key& k : writes) {
    if (writers_.count(k) > 0) return true;  // write-write
    if (readers_.count(k) > 0) return true;  // write-read
  }
  return false;
}

bool PendingList::HasPendingWriter(const KeyList& reads) const {
  for (const Key& k : reads) {
    if (writers_.count(k) > 0) return true;
  }
  return false;
}

Status PendingList::Add(PendingTxn txn) {
  if (txns_.count(txn.tid) > 0) {
    return Status::InvalidArgument("txn " + txn.tid.ToString() +
                                   " already pending");
  }
  for (const Key& k : txn.read_keys) readers_[k]++;
  for (const Key& k : txn.write_keys) writers_[k]++;
  auto [it, inserted] = txns_.emplace(txn.tid, std::move(txn));
  (void)inserted;
  if (on_add_) on_add_(it->second);
  return Status::OK();
}

const PendingTxn* PendingList::Find(const TxnId& tid) const {
  auto it = txns_.find(tid);
  return it == txns_.end() ? nullptr : &it->second;
}

void PendingList::Remove(const TxnId& tid) {
  auto it = txns_.find(tid);
  if (it == txns_.end()) return;
  for (const Key& k : it->second.read_keys) {
    auto rit = readers_.find(k);
    if (rit != readers_.end() && --rit->second == 0) readers_.erase(rit);
  }
  for (const Key& k : it->second.write_keys) {
    auto wit = writers_.find(k);
    if (wit != writers_.end() && --wit->second == 0) writers_.erase(wit);
  }
  txns_.erase(it);
  if (on_remove_) on_remove_(tid);
}

std::vector<PendingTxn> PendingList::Snapshot() const {
  std::vector<PendingTxn> out;
  out.reserve(txns_.size());
  for (const auto& [tid, txn] : txns_) out.push_back(txn);
  return out;
}

std::vector<uint8_t> EncodePendingTxn(const PendingTxn& txn) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  const auto put_str = [&w](const std::string& s) {
    w.U32(static_cast<uint32_t>(s.size()));
    w.Str(s);
  };
  w.U32(static_cast<uint32_t>(txn.tid.client));
  w.U64(txn.tid.counter);
  w.U64(txn.term);
  w.U32(static_cast<uint32_t>(txn.coordinator));
  w.U64(static_cast<uint64_t>(txn.prepared_at_micros));
  w.U32(static_cast<uint32_t>(txn.read_keys.size()));
  for (const Key& k : txn.read_keys) put_str(k);
  w.U32(static_cast<uint32_t>(txn.write_keys.size()));
  for (const Key& k : txn.write_keys) put_str(k);
  w.U32(static_cast<uint32_t>(txn.read_versions.size()));
  for (const auto& [k, v] : txn.read_versions) {
    put_str(k);
    w.U64(v);
  }
  return out;
}

bool DecodePendingTxn(const uint8_t* data, size_t len, PendingTxn* out) {
  ByteReader r(data, len);
  PendingTxn txn;
  txn.tid.client = static_cast<ClientId>(static_cast<int32_t>(r.U32()));
  txn.tid.counter = r.U64();
  txn.term = r.U64();
  txn.coordinator = static_cast<NodeId>(static_cast<int32_t>(r.U32()));
  txn.prepared_at_micros = static_cast<int64_t>(r.U64());
  const uint32_t nreads = r.U32();
  for (uint32_t i = 0; i < nreads && r.ok(); ++i) {
    txn.read_keys.push_back(r.Str(r.U32()));
  }
  const uint32_t nwrites = r.U32();
  for (uint32_t i = 0; i < nwrites && r.ok(); ++i) {
    txn.write_keys.push_back(r.Str(r.U32()));
  }
  const uint32_t nversions = r.U32();
  for (uint32_t i = 0; i < nversions && r.ok(); ++i) {
    Key k = r.Str(r.U32());
    txn.read_versions[std::move(k)] = r.U64();
  }
  if (!r.ok()) return false;
  *out = std::move(txn);
  return true;
}

}  // namespace carousel::kv
