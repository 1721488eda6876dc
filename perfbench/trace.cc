#include "trace.h"

#include <time.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

// Raw records kept per run (~10 MB when full); aggregates cover every span
// regardless.
constexpr uint32_t kMaxRecords = 1u << 18;

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kTxn:
      return "txn";
    case Layer::kPhaseExecute:
      return "phase_execute";
    case Layer::kPhaseCommit:
      return "phase_commit";
    case Layer::kHandler:
      return "handler";
    case Layer::kStorage:
      return "storage";
    case Layer::kWireEncode:
      return "wire_encode";
    case Layer::kWireDecode:
      return "wire_decode";
  }
  return "?";
}

const char* StorageKindName(int kind) {
  static const char* kNames[kNumStorageKinds] = {
      "hard_state", "commit_index", "log_entry",
      "pending_add", "pending_erase", "compact"};
  return kind >= 0 && kind < kNumStorageKinds ? kNames[kind] : "?";
}

uint64_t TxnKey(const carousel::TxnId& tid) {
  if (!tid.valid()) return 0;
  return static_cast<uint64_t>(static_cast<uint32_t>(tid.client)) << 40 ^
         tid.counter;
}

void SpanAgg::Merge(const SpanAgg& other) {
  count += other.count;
  wall_ns += other.wall_ns;
  self_cpu_ns += other.self_cpu_ns;
  bytes += other.bytes;
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
}

SpanAgg TraceTotals::Layer(perfbench::Layer layer) const {
  SpanAgg out;
  for (const auto& [key, agg] : spans) {
    if (key.first == static_cast<int>(layer)) out.Merge(agg);
  }
  return out;
}

struct Tracer::ThreadState {
  struct Open {
    Layer layer;
    int tag;
    bool cpu;
    int64_t start_ns;
    int64_t cpu_start_ns;
    int64_t child_cpu_ns;
    uint64_t txn;
    uint64_t bytes;
    uint32_t index;
    uint32_t parent;
  };
  uint32_t thread = 0;
  std::vector<Open> stack;
  std::map<std::pair<int, int>, SpanAgg> spans;
  std::vector<int64_t> append_to_commit_ns;
  std::vector<int64_t> post_to_run_ns;
  uint64_t wal_bytes = 0;
  uint64_t compactions = 0;
  int64_t compact_ns_max = 0;
};

Tracer::Tracer() = default;

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadState* Tracer::Local() {
  // A thread's state stays owned by the tracer after the thread exits;
  // Reset() invalidates every cached pointer by bumping the generation.
  thread_local ThreadState* state = nullptr;
  thread_local uint64_t generation = 0;
  const uint64_t current = generation_.load(std::memory_order_acquire);
  if (state != nullptr && generation == current) return state;
  std::lock_guard<std::mutex> lk(mu_);
  threads_.push_back(std::make_unique<ThreadState>());
  state = threads_.back().get();
  state->thread = static_cast<uint32_t>(threads_.size());
  generation = current;
  return state;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  threads_.clear();
  // The record buffer is allocated by the first traced run only, so
  // untraced runs' peak RSS excludes it.
  if (records_ == nullptr) records_.reset(new SpanRecord[kMaxRecords]);
  next_record_.store(0);
  lost_.store(0);
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

uint32_t Tracer::Reserve() {
  if (records_ == nullptr) return 0;
  const uint32_t slot = next_record_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxRecords) {
    lost_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  return slot + 1;
}

void Tracer::Store(const SpanRecord& rec) {
  if (rec.index == 0) return;
  records_[rec.index - 1] = rec;
}

size_t Tracer::spans_kept() const {
  if (records_ == nullptr) return 0;
  return std::min<uint32_t>(next_record_.load(), kMaxRecords);
}

TraceTotals Tracer::Totals() const {
  std::lock_guard<std::mutex> lk(mu_);
  TraceTotals out;
  for (const auto& t : threads_) {
    for (const auto& [key, agg] : t->spans) out.spans[key].Merge(agg);
    out.append_to_commit_ns.insert(out.append_to_commit_ns.end(),
                                   t->append_to_commit_ns.begin(),
                                   t->append_to_commit_ns.end());
    out.post_to_run_ns.insert(out.post_to_run_ns.end(),
                              t->post_to_run_ns.begin(),
                              t->post_to_run_ns.end());
    out.wal_bytes += t->wal_bytes;
    out.compactions += t->compactions;
    out.compact_ns_max = std::max(out.compact_ns_max, t->compact_ns_max);
  }
  return out;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tparent\tname\ttag\tstart_ns\tend_ns\ttxn\tthread\n");
  const size_t n = spans_kept();
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& r = records_[i];
    if (r.index == 0) continue;  // Reserved but never closed.
    std::fprintf(f, "%u\t%u\t%s\t%d\t%lld\t%lld\t%llx\t%u\n", r.index,
                 r.parent, LayerName(static_cast<Layer>(r.layer)), r.tag,
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<unsigned long long>(r.txn), r.thread);
  }
  return std::fclose(f) == 0;
}

void Tracer::RecordAsync(Layer layer, int tag, int64_t start_ns,
                         int64_t end_ns, uint64_t txn, uint32_t index,
                         uint32_t parent) {
  if (!active()) return;
  ThreadState* t = Local();
  SpanAgg& agg = t->spans[{static_cast<int>(layer), tag}];
  const int64_t wall = end_ns - start_ns;
  agg.count++;
  agg.wall_ns += wall;
  agg.samples.push_back(wall);
  if (index == 0) index = Reserve();
  Store(SpanRecord{start_ns, end_ns, txn, index, parent, t->thread, tag,
                   static_cast<uint8_t>(layer)});
}

void Tracer::RecordAppendToCommit(int64_t ns) {
  if (active()) Local()->append_to_commit_ns.push_back(ns);
}

void Tracer::RecordProbe(int64_t ns) {
  if (active()) Local()->post_to_run_ns.push_back(ns);
}

void Tracer::RecordWal(uint64_t bytes_appended, int64_t compact_ns) {
  if (!active()) return;
  ThreadState* t = Local();
  t->wal_bytes += bytes_appended;
  if (compact_ns >= 0) {
    t->compactions++;
    t->compact_ns_max = std::max(t->compact_ns_max, compact_ns);
  }
}

Span::Span(Layer layer, int tag, uint64_t txn, bool cpu) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.active()) return;
  state_ = tracer.Local();
  const uint32_t parent =
      state_->stack.empty() ? 0 : state_->stack.back().index;
  state_->stack.push_back(Tracer::ThreadState::Open{
      layer, tag, cpu, NowNs(), cpu ? ThreadCpuNs() : 0, 0, txn, 0,
      tracer.Reserve(), parent});
}

void Span::AddBytes(uint64_t n) {
  if (state_ != nullptr) state_->stack.back().bytes += n;
}

Span::~Span() {
  if (state_ == nullptr) return;
  Tracer::ThreadState::Open open = state_->stack.back();
  state_->stack.pop_back();
  const int64_t end = NowNs();
  const int64_t wall = end - open.start_ns;
  // Spans without a CPU clock read (wire calls, which never block) count
  // their wall time as CPU.
  const int64_t cpu = open.cpu ? ThreadCpuNs() - open.cpu_start_ns : wall;
  const int64_t self_cpu = std::max<int64_t>(0, cpu - open.child_cpu_ns);
  if (!state_->stack.empty()) state_->stack.back().child_cpu_ns += cpu;
  SpanAgg& agg =
      state_->spans[{static_cast<int>(open.layer), open.tag}];
  agg.count++;
  agg.wall_ns += wall;
  agg.self_cpu_ns += self_cpu;
  agg.bytes += open.bytes;
  agg.samples.push_back(open.layer == Layer::kHandler ? self_cpu : wall);
  Tracer::Get().Store(SpanRecord{open.start_ns, end, open.txn, open.index,
                                 open.parent, state_->thread, open.tag,
                                 static_cast<uint8_t>(open.layer)});
}

void TracedEndpoint::HandleMessage(carousel::NodeId from,
                                   const carousel::runtime::MessagePtr& msg) {
  Span span(Layer::kHandler, msg->type(), TxnKey(msg->span().tid),
            /*cpu=*/true);
  inner_->HandleMessage(from, msg);
}

void TracedStorage::Account(size_t wal_before, int64_t start_ns) {
  const size_t wal_after = inner_->wal_bytes();
  if (wal_after < wal_before) {
    // The call crossed the auto-compaction threshold: the WAL was folded
    // into a snapshot and truncated inside this persist.
    Tracer::Get().RecordWal(wal_after, NowNs() - start_ns);
  } else {
    Tracer::Get().RecordWal(wal_after - wal_before, -1);
  }
}

void TracedStorage::PersistHardState(uint64_t term,
                                     carousel::NodeId voted_for) {
  const int64_t start = NowNs();
  const size_t before = inner_->wal_bytes();
  {
    Span span(Layer::kStorage, kHardState, 0, /*cpu=*/true);
    inner_->PersistHardState(term, voted_for);
  }
  Account(before, start);
}

void TracedStorage::PersistCommitIndex(uint64_t commit_index) {
  const int64_t start = NowNs();
  const size_t before = inner_->wal_bytes();
  {
    Span span(Layer::kStorage, kCommitIndex, 0, /*cpu=*/true);
    inner_->PersistCommitIndex(commit_index);
  }
  Account(before, start);
  const int64_t end = NowNs();
  while (!pending_commit_.empty() &&
         pending_commit_.begin()->first <= commit_index) {
    Tracer::Get().RecordAppendToCommit(end - pending_commit_.begin()->second);
    pending_commit_.erase(pending_commit_.begin());
  }
}

void TracedStorage::PersistLogEntry(
    uint64_t index, uint64_t term,
    const carousel::runtime::MessagePtr& payload) {
  const int64_t start = NowNs();
  const size_t before = inner_->wal_bytes();
  {
    Span span(Layer::kStorage, kLogEntry,
              payload == nullptr ? 0 : TxnKey(payload->span().tid),
              /*cpu=*/true);
    inner_->PersistLogEntry(index, term, payload);
  }
  Account(before, start);
  // A re-append at `index` truncates every later entry (Raft conflict
  // resolution); their clocks restart if they are appended again.
  pending_commit_.erase(pending_commit_.lower_bound(index),
                        pending_commit_.end());
  if (owner_ != nullptr && owner_->raft() != nullptr &&
      owner_->raft()->is_leader()) {
    pending_commit_[index] = start;
  }
}

void TracedStorage::PersistPendingAdd(const std::string& key,
                                      std::vector<uint8_t> blob) {
  const int64_t start = NowNs();
  const size_t before = inner_->wal_bytes();
  {
    Span span(Layer::kStorage, kPendingAdd, 0, /*cpu=*/true);
    inner_->PersistPendingAdd(key, std::move(blob));
  }
  Account(before, start);
}

void TracedStorage::PersistPendingErase(const std::string& key) {
  const int64_t start = NowNs();
  const size_t before = inner_->wal_bytes();
  {
    Span span(Layer::kStorage, kPendingErase, 0, /*cpu=*/true);
    inner_->PersistPendingErase(key);
  }
  Account(before, start);
}

bool TracedStorage::Load(carousel::runtime::DurableNodeState* out) {
  return inner_->Load(out);
}

void TracedStorage::Compact() {
  const int64_t start = NowNs();
  {
    Span span(Layer::kStorage, kCompact, 0, /*cpu=*/true);
    inner_->Compact();
  }
  Tracer::Get().RecordWal(0, NowNs() - start);
}

carousel::runtime::WireCodec TraceCodec(carousel::runtime::WireCodec base) {
  auto inner = std::make_shared<carousel::runtime::WireCodec>(std::move(base));
  carousel::runtime::WireCodec out;
  out.encode = [inner](const carousel::runtime::Message& msg) {
    Span span(Layer::kWireEncode, msg.type(), 0, /*cpu=*/false);
    std::vector<uint8_t> bytes = inner->encode(msg);
    span.AddBytes(bytes.size());
    return bytes;
  };
  if (inner->encode_append) {
    out.encode_append = [inner](const carousel::runtime::Message& msg,
                                std::vector<uint8_t>* buf) {
      Span span(Layer::kWireEncode, msg.type(), 0, /*cpu=*/false);
      const size_t before = buf->size();
      inner->encode_append(msg, buf);
      span.AddBytes(buf->size() - before);
    };
  }
  out.decode = [inner](int type, const uint8_t* data, size_t len) {
    Span span(Layer::kWireDecode, type, 0, /*cpu=*/false);
    span.AddBytes(len);
    return inner->decode(type, data, len);
  };
  return out;
}

}  // namespace perfbench
