#ifndef CAROUSEL_PERFBENCH_TRACE_H_
#define CAROUSEL_PERFBENCH_TRACE_H_

// Outside-in tracing for the benchmark's traced run. Nothing here touches
// the library: spans are opened around calls *into* each layer's public
// functions — a server's HandleMessage (via an Endpoint decorator), the
// Storage interface (via a Storage decorator), and the wire codec hooks
// (via a WireCodec wrapper) — plus client-side transaction and phase
// spans recorded by the benchmark's load generator itself.
//
// Each thread keeps a stack of open spans; when a span closes, its CPU
// time is charged to its parent, so a layer's self time is its span's CPU
// time minus what its child spans used (wire spans, which never block,
// count their wall time as CPU). Per-thread
// aggregates are merged after every traced thread has joined. Raw span
// records (name, start, end, parent, txn, thread) are kept in memory up to
// a fixed cap and written out when the run ends.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "carousel/server.h"
#include "common.h"
#include "runtime/endpoint.h"
#include "runtime/net.h"
#include "runtime/storage.h"

namespace perfbench {

enum class Layer : uint8_t {
  kTxn,           // client: ReadAndPrepare -> final outcome
  kPhaseExecute,  // client: ReadAndPrepare -> read callback
  kPhaseCommit,   // client: Commit -> commit callback
  kHandler,       // server: HandleMessage, tag = message type
  kStorage,       // server: one Storage::Persist* call, tag = StorageKind
  kWireEncode,    // codec encode, tag = message type
  kWireDecode,    // codec decode, tag = message type
};

const char* LayerName(Layer layer);

enum StorageKind : int {
  kHardState,
  kCommitIndex,
  kLogEntry,
  kPendingAdd,
  kPendingErase,
  kCompact,
  kNumStorageKinds,
};

const char* StorageKindName(int kind);

/// Aggregate over every span of one (layer, tag) closed inside the active
/// window. `samples` holds per-span values for percentiles: self CPU time
/// for handler spans, wall duration for everything else.
struct SpanAgg {
  uint64_t count = 0;
  int64_t wall_ns = 0;
  int64_t self_cpu_ns = 0;
  uint64_t bytes = 0;
  std::vector<int64_t> samples;

  void Merge(const SpanAgg& other);
};

/// Everything the traced threads measured, merged.
struct TraceTotals {
  std::map<std::pair<int, int>, SpanAgg> spans;  // (layer, tag) -> agg
  std::vector<int64_t> append_to_commit_ns;      // raft, leader side
  std::vector<int64_t> post_to_run_ns;           // runtime probes
  uint64_t wal_bytes = 0;
  uint64_t compactions = 0;
  int64_t compact_ns_max = 0;

  /// Sum over every tag of one layer.
  SpanAgg Layer(perfbench::Layer layer) const;
};

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t txn = 0;
  uint32_t index = 0;   // 1-based; 0 when the record buffer was full
  uint32_t parent = 0;  // 1-based index of the parent span, 0 = root
  uint32_t thread = 0;
  int32_t tag = 0;
  uint8_t layer = 0;
};

/// Process-wide span sink. Spans record only while active(), which the
/// driver switches on for the traced measurement window.
class Tracer {
 public:
  static Tracer& Get();

  void SetActive(bool on) { active_.store(on, std::memory_order_release); }
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Drops all aggregates and records; call only while no traced thread
  /// is running.
  void Reset();
  /// Merges every thread's aggregates; call after traced threads joined.
  TraceTotals Totals() const;
  /// Writes the kept span records as tab-separated text. Returns false on
  /// I/O error.
  bool WriteSpans(const std::string& path) const;
  size_t spans_kept() const;
  uint64_t spans_lost() const { return lost_.load(); }

  /// Reserves a record slot for a span whose children are recorded before
  /// it closes (client transaction spans). Returns 0 when full.
  uint32_t Reserve();
  /// Records a span that did not live on this thread's stack (client
  /// transaction and phase spans, which start and end in different
  /// callbacks). `index` is from Reserve() or 0.
  void RecordAsync(Layer layer, int tag, int64_t start_ns, int64_t end_ns,
                   uint64_t txn, uint32_t index, uint32_t parent);
  void RecordAppendToCommit(int64_t ns);
  void RecordProbe(int64_t ns);
  void RecordWal(uint64_t bytes_appended, int64_t compact_ns);

 private:
  friend class Span;
  struct ThreadState;

  Tracer();
  /// The calling thread's state, created on first use.
  ThreadState* Local();
  void Store(const SpanRecord& rec);

  std::atomic<bool> active_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
  std::unique_ptr<SpanRecord[]> records_;
  std::atomic<uint32_t> next_record_{0};
  std::atomic<uint64_t> lost_{0};
  std::atomic<uint64_t> generation_{1};
};

/// RAII span on the current thread's stack. Inert when the tracer is not
/// active at construction.
class Span {
 public:
  /// `cpu` additionally reads the thread CPU clock (≈0.25 us per read), so
  /// that self time can be split into CPU and blocking time.
  Span(Layer layer, int tag, uint64_t txn, bool cpu);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void AddBytes(uint64_t n);

 private:
  struct Tracer::ThreadState* state_ = nullptr;
};

/// Endpoint decorator registered with the runtime in place of a server:
/// every inbound message is timed as a handler span, then forwarded. The
/// inner server is bound to the same transport, clock and timer queue, so
/// its sends and timers are untouched.
class TracedEndpoint final : public carousel::runtime::Endpoint {
 public:
  explicit TracedEndpoint(carousel::runtime::Endpoint* inner)
      : Endpoint(inner->id(), inner->dc()), inner_(inner) {}

  /// Call after ThreadedRuntime::Register(this).
  void BindInner() { inner_->BindRuntime(transport(), clock(), timers()); }

  void HandleMessage(carousel::NodeId from,
                     const carousel::runtime::MessagePtr& msg) override;

 private:
  carousel::runtime::Endpoint* inner_;
};

/// Storage decorator around a WalStorage: every persist is a storage span
/// (one WAL write, plus an fsync when the WAL syncs), and the leader's
/// append -> first covering commit index is timed as Raft's
/// append-to-commit latency.
class TracedStorage final : public carousel::runtime::Storage {
 public:
  explicit TracedStorage(std::unique_ptr<carousel::runtime::WalStorage> inner)
      : inner_(std::move(inner)) {}

  /// The server whose Raft member persists through this storage; consulted
  /// (on the node's own loop thread) to tell leader appends from follower
  /// ones.
  void set_owner(carousel::core::CarouselServer* owner) { owner_ = owner; }

  void PersistHardState(uint64_t term, carousel::NodeId voted_for) override;
  void PersistCommitIndex(uint64_t commit_index) override;
  void PersistLogEntry(uint64_t index, uint64_t term,
                       const carousel::runtime::MessagePtr& payload) override;
  void PersistPendingAdd(const std::string& key,
                         std::vector<uint8_t> blob) override;
  void PersistPendingErase(const std::string& key) override;
  bool Load(carousel::runtime::DurableNodeState* out) override;
  void Compact() override;

 private:
  /// Charges WAL growth (or a compaction, when the WAL shrank) observed
  /// across one call that started at `start_ns` with `wal_before` bytes.
  void Account(size_t wal_before, int64_t start_ns);

  std::unique_ptr<carousel::runtime::WalStorage> inner_;
  carousel::core::CarouselServer* owner_ = nullptr;
  /// Leader-side log index -> PersistLogEntry start (loop thread only).
  std::map<uint64_t, int64_t> pending_commit_;
};

/// Wraps codec hooks so every encode/decode is a wire span.
carousel::runtime::WireCodec TraceCodec(carousel::runtime::WireCodec base);

/// Stable 64-bit key for a transaction id (0 for invalid ids).
uint64_t TxnKey(const carousel::TxnId& tid);

}  // namespace perfbench

#endif  // CAROUSEL_PERFBENCH_TRACE_H_
