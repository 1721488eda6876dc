#include "obs/wanrt.h"

#include <algorithm>

namespace carousel::obs {

const char* WanrtPhaseName(WanrtPhase phase) {
  switch (phase) {
    case WanrtPhase::kExecute:
      return "execute";
    case WanrtPhase::kPrepare:
      return "prepare";
    case WanrtPhase::kCpcFast:
      return "cpc_fast";
    case WanrtPhase::kCpcSlow:
      return "cpc_slow";
    case WanrtPhase::kDecision:
      return "decision";
  }
  return "?";
}

void WanrtStats::Merge(const WanrtStats& other) {
  sealed += other.sealed;
  committed += other.committed;
  aborted += other.aborted;
  read_only += other.read_only;
  fast_path_txns += other.fast_path_txns;
  slow_path_txns += other.slow_path_txns;
  degraded_txns += other.degraded_txns;
  for (int p = 0; p < kNumWanrtPhases; ++p) {
    cross_dc_deliveries[p] += other.cross_dc_deliveries[p];
    max_phase_hops[p] = std::max(max_phase_hops[p], other.max_phase_hops[p]);
  }
  for (const auto& [hops, n] : other.rw_decided_hops) {
    rw_decided_hops[hops] += n;
  }
  for (const auto& [hops, n] : other.ro_decided_hops) {
    ro_decided_hops[hops] += n;
  }
}

uint32_t WanrtStats::HopsQuantile(const std::map<uint32_t, uint64_t>& hist,
                                  double q) {
  uint64_t total = 0;
  for (const auto& [hops, n] : hist) total += n;
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target = static_cast<uint64_t>(
      q * static_cast<double>(total) + 0.5);
  uint64_t seen = 0;
  for (const auto& [hops, n] : hist) {
    seen += n;
    if (seen >= target) return hops;
  }
  return hist.rbegin()->first;
}

uint32_t WanrtStats::MaxHops(const std::map<uint32_t, uint64_t>& hist) {
  return hist.empty() ? 0 : hist.rbegin()->first;
}

std::string WanrtStats::ToJson(int indent) const {
  const std::string pad(indent, ' ');
  const std::string pad2(indent + 2, ' ');
  const std::string pad4(indent + 4, ' ');
  std::string out = pad + "{\n";
  out += pad2 + "\"sealed\": " + std::to_string(sealed) + ",\n";
  out += pad2 + "\"committed\": " + std::to_string(committed) + ",\n";
  out += pad2 + "\"aborted\": " + std::to_string(aborted) + ",\n";
  out += pad2 + "\"read_only\": " + std::to_string(read_only) + ",\n";
  out += pad2 + "\"fast_path_txns\": " + std::to_string(fast_path_txns) + ",\n";
  out += pad2 + "\"slow_path_txns\": " + std::to_string(slow_path_txns) + ",\n";
  out += pad2 + "\"degraded_txns\": " + std::to_string(degraded_txns) + ",\n";
  out += pad2 + "\"phases\": {";
  for (int p = 0; p < kNumWanrtPhases; ++p) {
    out += p == 0 ? "\n" : ",\n";
    out += pad4 + "\"" + WanrtPhaseName(static_cast<WanrtPhase>(p)) +
           "\": {\"cross_dc_deliveries\": " +
           std::to_string(cross_dc_deliveries[p]) +
           ", \"max_hops\": " + std::to_string(max_phase_hops[p]) + "}";
  }
  out += "\n" + pad2 + "},\n";
  auto hist_json = [&](const std::map<uint32_t, uint64_t>& hist) {
    std::string h = "{";
    bool first = true;
    for (const auto& [hops, n] : hist) {
      h += first ? "\"" : ", \"";
      h += std::to_string(hops);
      h += "\": ";
      h += std::to_string(n);
      first = false;
    }
    h += "}";
    return h;
  };
  out += pad2 + "\"rw_decided_hops\": " + hist_json(rw_decided_hops) + ",\n";
  out += pad2 + "\"ro_decided_hops\": " + hist_json(ro_decided_hops) + "\n";
  out += pad + "}";
  return out;
}

WanrtLedger::WanrtLedger(const Topology* topology, bool enabled)
    : topology_(topology), enabled_(enabled) {}

void WanrtLedger::Begin(const TxnId& tid) {
  if (!enabled_) return;
  LiveTxn& txn = live_[tid];
  txn.rec.tid = tid;
}

void WanrtLedger::Seal(const TxnId& tid, NodeId client, bool committed,
                       bool read_only) {
  if (!enabled_) return;
  auto it = live_.find(tid);
  if (it == live_.end()) return;  // Already sealed (idempotent).
  LiveTxn& txn = it->second;
  txn.rec.sealed = true;
  txn.rec.committed = committed;
  txn.rec.read_only = read_only;
  txn.rec.decided_hops = WatermarkOf(txn, client);
  Fold(txn.rec);
  if (retain_all_) retained_[tid] = txn.rec;
  live_.erase(it);
}

void WanrtLedger::Fold(const TxnWanrt& rec) {
  stats_.sealed++;
  if (rec.committed) {
    stats_.committed++;
  } else {
    stats_.aborted++;
  }
  if (rec.read_only) stats_.read_only++;
  if (!rec.read_only && rec.SawFastVotes() && !rec.SawSlowPath()) {
    stats_.fast_path_txns++;
  }
  if (rec.SawSlowPath()) stats_.slow_path_txns++;
  if (rec.Degraded()) stats_.degraded_txns++;
  for (int p = 0; p < kNumWanrtPhases; ++p) {
    stats_.cross_dc_deliveries[p] += rec.cross_dc_deliveries[p];
    stats_.max_phase_hops[p] =
        std::max(stats_.max_phase_hops[p], rec.max_hops[p]);
  }
  if (rec.committed) {
    auto& hist =
        rec.read_only ? stats_.ro_decided_hops : stats_.rw_decided_hops;
    hist[rec.decided_hops]++;
  }
}

uint64_t WanrtLedger::OnSend(const sim::Message& msg, NodeId from, NodeId to) {
  if (!enabled_) return 0;
  scratch_.clear();
  msg.CollectSpans(&scratch_);
  if (scratch_.empty()) return 0;
  const bool cross_dc =
      from != to && topology_->DcOf(from) != topology_->DcOf(to);

  // Acquire a slot lazily: most messages carry spans of unknown (sealed)
  // transactions or none at all, and those must stay token 0.
  uint32_t slot = 0;
  InFlightEntry* entry = nullptr;
  for (const sim::WanSpan& span : scratch_) {
    auto it = live_.find(span.tid);
    if (it == live_.end()) continue;  // Unknown or already sealed.
    InFlightSpan f;
    f.tid = span.tid;
    f.phase = span.phase;
    f.hops = WatermarkOf(it->second, from) + (cross_dc ? 1 : 0);
    f.cross_dc = cross_dc;
    if (entry == nullptr) {
      if (free_slots_.empty()) {
        slot = static_cast<uint32_t>(inflight_.size());
        inflight_.emplace_back();
      } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
      }
      entry = &inflight_[slot];
    }
    if (entry->count == 0) {
      entry->first = f;
    } else {
      entry->rest.push_back(f);
    }
    entry->count++;
  }
  if (entry == nullptr) return 0;
  return static_cast<uint64_t>(slot) + 1;
}

void WanrtLedger::OnDeliver(uint64_t token, NodeId to) {
  if (!enabled_ || token == 0 || token > inflight_.size()) return;
  InFlightEntry& entry = inflight_[token - 1];
  for (uint32_t i = 0; i < entry.count; ++i) {
    const InFlightSpan& span = i == 0 ? entry.first : entry.rest[i - 1];
    auto txn_it = live_.find(span.tid);
    if (txn_it == live_.end()) continue;  // Sealed while in flight.
    LiveTxn& txn = txn_it->second;
    if (txn.watermark.size() <= static_cast<size_t>(to)) {
      txn.watermark.resize(
          std::max(topology_->nodes().size(), static_cast<size_t>(to) + 1));
    }
    uint32_t& wm = txn.watermark[to];
    wm = std::max(wm, span.hops);
    const int phase =
        span.phase < kNumWanrtPhases ? span.phase : kNumWanrtPhases - 1;
    txn.rec.max_hops[phase] = std::max(txn.rec.max_hops[phase], span.hops);
    if (span.cross_dc) txn.rec.cross_dc_deliveries[phase]++;
  }
  entry.count = 0;
  entry.rest.clear();
  free_slots_.push_back(static_cast<uint32_t>(token - 1));
}

void WanrtLedger::OnDrop(uint64_t token) {
  if (!enabled_ || token == 0 || token > inflight_.size()) return;
  InFlightEntry& entry = inflight_[token - 1];
  entry.count = 0;
  entry.rest.clear();
  free_slots_.push_back(static_cast<uint32_t>(token - 1));
}

const TxnWanrt* WanrtLedger::Find(const TxnId& tid) const {
  auto it = live_.find(tid);
  if (it != live_.end()) return &it->second.rec;
  auto rt = retained_.find(tid);
  if (rt != retained_.end()) return &rt->second;
  return nullptr;
}

void WanrtLedger::ResetStats() { stats_ = WanrtStats{}; }

std::string WanrtLedger::SnapshotJson(int indent) const {
  return stats_.ToJson(indent);
}

}  // namespace carousel::obs
