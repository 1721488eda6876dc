#ifndef CAROUSEL_SIM_MESSAGE_H_
#define CAROUSEL_SIM_MESSAGE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/fields.h"
#include "common/types.h"

namespace carousel::sim {

/// Message type tags. Each protocol module owns a numeric range so that a
/// receiving node can dispatch on type() and static_cast to the concrete
/// struct. Keeping one flat enum makes traffic accounting by type trivial.
enum MessageType : int {
  kInvalidMessage = 0,

  // sim/test messages: 1..99
  kPing = 1,
  kPong = 2,
  kBatchEnvelope = 10,

  // raft: 100..199
  kRaftRequestVote = 100,
  kRaftVoteResponse = 101,
  kRaftAppendEntries = 102,
  kRaftAppendResponse = 103,

  // carousel: 200..299
  kCarouselReadPrepare = 200,
  kCarouselReadResponse = 201,
  kCarouselPrepareDecision = 202,
  kCarouselCoordPrepare = 203,
  kCarouselCommitRequest = 204,
  kCarouselAbortRequest = 205,
  kCarouselCommitResponse = 206,
  kCarouselWriteback = 207,
  kCarouselWritebackAck = 208,
  kCarouselHeartbeat = 209,
  kCarouselQueryPrepare = 210,
  kCarouselNotLeader = 211,
  kCarouselQueryDecision = 212,

  // carousel raft log payloads (never sent alone; carried in AppendEntries):
  // 250..269
  kLogTxnInfo = 250,
  kLogWriteData = 251,
  kLogDecision = 252,
  kLogPrepareResult = 253,
  kLogCommit = 254,
  kLogNoop = 255,

  // tapir: 300..399
  kTapirRead = 300,
  kTapirReadReply = 301,
  kTapirPrepare = 302,
  kTapirPrepareReply = 303,
  kTapirFinalize = 304,
  kTapirFinalizeReply = 305,
  kTapirDecide = 306,
  kTapirDecideAck = 307,
};

/// Instrumentation span: attributes one message (or one log payload it
/// carries) to a transaction and a protocol phase. Spans are accounting
/// metadata, not wire data — they add nothing to SizeBytes() and change no
/// protocol behavior. The phase tag is opaque to the sim layer (it is an
/// obs::WanrtPhase value; sim must not depend on obs).
struct WanSpan {
  TxnId tid{};
  uint8_t phase = 0;
  bool valid() const { return tid.valid(); }
};

/// Base class for every message exchanged through the simulated network
/// and for every replicated log payload. Concrete messages are plain
/// structs with public fields (they are wire DTOs, not objects with
/// invariants).
class Message {
 public:
  Message() = default;
  virtual ~Message() = default;

  // The size memo is an atomic (see WireSize); give the DTO structs back
  // their implicit copyability across it.
  Message(const Message& other)
      : wire_size_(other.wire_size_.load(std::memory_order_relaxed)),
        span_(other.span_) {}
  Message& operator=(const Message& other) {
    wire_size_.store(other.wire_size_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    span_ = other.span_;
    return *this;
  }

  /// The MessageType tag of the concrete struct.
  virtual int type() const = 0;

  /// Serialized size in bytes (payload only; the network adds per-message
  /// header overhead). Used for Figure 7 bandwidth accounting; for field-list
  /// messages (WireMessage) it is exactly what the wire codec writes.
  virtual size_t SizeBytes() const = 0;

  /// Memoized SizeBytes. A message is frozen once handed to the network
  /// (MessagePtr is pointer-to-const), but its size keeps being read: by
  /// traffic accounting at send and delivery, and — the expensive case —
  /// by every AppendEntries that carries it as a log payload, across
  /// every (re)transmission to every follower. Hot paths must use this.
  ///
  /// The memo is a relaxed atomic because the threaded runtime shares one
  /// immutable message across loop threads (in-process transport); racing
  /// initializers compute the same value, so last-write-wins is benign.
  size_t WireSize() const {
    size_t cached = wire_size_.load(std::memory_order_relaxed);
    if (cached == 0) {
      cached = SizeBytes();
      wire_size_.store(cached, std::memory_order_relaxed);
    }
    return cached;
  }

  /// ---- Span context (WANRT accounting; see obs/wanrt.h) ----

  const WanSpan& span() const { return span_; }
  /// Senders stamp the span before handing the message to the network.
  void set_span(const TxnId& tid, uint8_t phase) { span_ = WanSpan{tid, phase}; }

  /// Appends every span this message carries to `out`. The default is the
  /// message's own span (if set); aggregate messages — batch envelopes,
  /// Raft appends and their acks — override this to enumerate the spans of
  /// the items they carry.
  virtual void CollectSpans(std::vector<WanSpan>* out) const {
    if (span_.valid()) out->push_back(span_);
  }

 private:
  mutable std::atomic<size_t> wire_size_{0};
  WanSpan span_{};
};

using MessagePtr = std::shared_ptr<const Message>;

/// Downcasts a message to its concrete type; callers must have checked
/// type() first.
template <typename T>
const T& As(const Message& msg) {
  return static_cast<const T&>(msg);
}

/// Base of every message with a field list (common/fields.h): derives
/// type() from the tag and SizeBytes() from Derived::Fields, which the
/// wire codec also encodes and decodes from. `HeaderBytes` is the fixed
/// header budget the field list's Header(...) fields are padded to.
template <class Derived, int Type, size_t HeaderBytes>
struct WireMessage : Message {
  static constexpr int kType = Type;
  static constexpr size_t kHeaderBytes = HeaderBytes;

  int type() const final { return kType; }
  size_t SizeBytes() const final {
    FieldSizer sizer(kHeaderBytes);
    VisitFields(sizer);
    return sizer.bytes();
  }
  /// Runs a pass that only reads the fields (sizing, encoding): Fields()
  /// serves every pass, so it is non-const.
  template <class F>
  void VisitFields(F& f) const {
    const_cast<Derived&>(static_cast<const Derived&>(*this)).Fields(f);
  }
};

/// A frame of coalesced messages sent as one wire message: the egress
/// batcher (runtime/batcher.h) wraps everything buffered for one destination
/// in a single envelope per flush. Receivers unwrap and handle each item
/// as if it had arrived alone; the win is one network header and one
/// per-message CPU charge amortized over all items (the cost model charges
/// a smaller per-item rate for enveloped messages, see
/// ServerCostModel::per_batched_item). Each item costs its nested-payload
/// framing (type + length) on top of its own size.
struct BatchEnvelopeMsg final
    : WireMessage<BatchEnvelopeMsg, kBatchEnvelope, 8> {
  std::vector<MessagePtr> items;

  template <class F>
  void Fields(F& f) {
    uint32_t n = WireCount(items);
    f.Header(n);
    f(Counted{items, n});
  }
  void CollectSpans(std::vector<WanSpan>* out) const override {
    for (const auto& m : items) m->CollectSpans(out);
  }
};

/// Checked downcast: returns nullptr unless `msg`'s type tag matches T's.
/// T must be default-constructible (messages are plain DTOs) so the
/// expected tag can be read off a throwaway instance.
template <typename T>
const T* TryAs(const Message& msg) {
  static const int expected = T{}.type();
  return msg.type() == expected ? static_cast<const T*>(&msg) : nullptr;
}

}  // namespace carousel::sim

#endif  // CAROUSEL_SIM_MESSAGE_H_
