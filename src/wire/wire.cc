#include "wire/wire.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "carousel/messages.h"
#include "common/bytes.h"
#include "raft/messages.h"
#include "runtime/arena.h"
#include "tapir/messages.h"

namespace carousel::wire {
namespace {

void EncodeInto(const sim::Message& msg, std::vector<uint8_t>* out);
sim::MessagePtr DecodeFrom(int type, const uint8_t* data, size_t len);

// ---------------------------------------------------------------------------
// The encoding and decoding passes over a field list (common/fields.h;
// the sizing pass, FieldSizer, lives there too).
// ---------------------------------------------------------------------------

class FieldWriter : public FieldVisitor<FieldWriter> {
 public:
  static constexpr FieldPass kPass = FieldPass::kEncode;
  FieldWriter(std::vector<uint8_t>* out, size_t header_bytes)
      : w_(out), header_bytes_(header_bytes) {}

  template <class T>
  void Scalar(const T& v) {
    if constexpr (sizeof(T) == 1) {
      w_.U8(static_cast<uint8_t>(v));
    } else if constexpr (sizeof(T) == 2) {
      w_.U16(static_cast<uint16_t>(v));
    } else if constexpr (sizeof(T) == 4) {
      w_.U32(static_cast<uint32_t>(v));
    } else {
      w_.U64(static_cast<uint64_t>(v));
    }
  }
  void Bytes(const std::string& s, size_t) { w_.Str(s); }
  template <class C, class Fn>
  void Each(C& items, size_t, Fn&& fn) {
    for (auto& e : items) fn(e);
  }
  /// Type, then a length patched in once the payload is encoded in place.
  void Payload(const sim::MessagePtr& payload, bool) {
    w_.U32(payload == nullptr ? 0 : static_cast<uint32_t>(payload->type()));
    const size_t at = w_.written();
    w_.U32(0);
    if (payload == nullptr) return;
    EncodeInto(*payload, w_.out());
    w_.PatchU32(at, static_cast<uint32_t>(w_.written() - at - 4));
  }
  void EndHeader() {
    CheckHeaderBudget(w_.written(), header_bytes_);
    w_.PadTo(header_bytes_);
  }

 private:
  ByteWriter w_;
  size_t header_bytes_;
};

/// The decoder sits on the network boundary: every count is bounded by
/// the bytes left, and any underflow latches ok() = false.
class FieldReader : public FieldVisitor<FieldReader> {
 public:
  static constexpr FieldPass kPass = FieldPass::kDecode;
  FieldReader(const uint8_t* data, size_t len, size_t header_bytes)
      : r_(data, len), header_bytes_(header_bytes) {}

  template <class T>
  void Scalar(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = r_.U8() != 0;
    } else if constexpr (sizeof(T) == 1) {
      v = static_cast<T>(r_.U8());
    } else if constexpr (sizeof(T) == 2) {
      v = static_cast<T>(r_.U16());
    } else if constexpr (sizeof(T) == 4) {
      v = static_cast<T>(r_.U32());
    } else {
      v = static_cast<T>(r_.U64());
    }
  }
  void Bytes(std::string& s, size_t n) { s = r_.Str(n); }
  /// Every element takes at least one byte, so a count beyond the bytes
  /// left is malformed; nothing is sized from the count itself.
  template <class C, class Fn>
  void Each(C& items, size_t n, Fn&& fn) {
    if (n > r_.remaining()) r_.Fail();
    for (size_t i = 0; i < n && r_.ok(); ++i) {
      if constexpr (requires { typename C::mapped_type; }) {
        std::pair<typename C::key_type, typename C::mapped_type> e;
        fn(e);
        items.insert_or_assign(std::move(e.first), std::move(e.second));
      } else {
        fn(items.emplace_back());
      }
    }
  }
  /// Type 0 is registered to nothing, so a payload that must be present
  /// and is not fails like any undecodable one.
  void Payload(sim::MessagePtr& payload, bool nullable) {
    const uint32_t type = r_.U32();
    const uint32_t len = r_.U32();
    if (len > r_.remaining()) r_.Fail();
    if (!r_.ok()) return;
    if (type != 0 || !nullable) {
      payload = DecodeFrom(static_cast<int>(type), r_.cursor(), len);
      if (payload == nullptr) r_.Fail();
    }
    r_.Skip(len);
  }
  void EndHeader() { r_.SkipTo(header_bytes_); }

  /// Whole input consumed, nothing truncated.
  bool complete() const { return r_.ok() && r_.remaining() == 0; }

 private:
  ByteReader r_;
  size_t header_bytes_;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Entry {
  void (*encode)(const sim::Message&, std::vector<uint8_t>*) = nullptr;
  sim::MessagePtr (*decode)(const uint8_t*, size_t) = nullptr;
};

/// Flattened: the field list inlines into one straight-line routine per
/// type, as a hand-written codec would be.
template <class T>
[[gnu::flatten]] void EncodeAs(const sim::Message& msg,
                               std::vector<uint8_t>* out) {
  FieldWriter w(out, T::kHeaderBytes);
  sim::As<T>(msg).VisitFields(w);
}

template <class T>
[[gnu::flatten]] sim::MessagePtr DecodeAs(const uint8_t* data,
                                          size_t len) {
  auto msg = runtime::MakeMessage<T>();
  FieldReader r(data, len, T::kHeaderBytes);
  msg->Fields(r);
  if (!r.complete()) return nullptr;
  return msg;
}

/// Indexed by type tag: an array lookup per frame on the hot path.
template <class... Ts>
std::vector<Entry> MakeRegistry() {
  std::vector<Entry> registry(std::max({Ts::kType...}) + 1);
  ((registry[Ts::kType] = Entry{EncodeAs<Ts>, DecodeAs<Ts>}), ...);
  return registry;
}

const std::vector<Entry>& Registry() {
  static const std::vector<Entry> registry = MakeRegistry<
      sim::BatchEnvelopeMsg,
      raft::RequestVoteMsg,
      raft::VoteResponseMsg,
      raft::AppendEntriesMsg,
      raft::AppendResponseMsg,
      core::ReadPrepareMsg,
      core::ReadResponseMsg,
      core::PrepareDecisionMsg,
      core::CoordPrepareMsg,
      core::CommitRequestMsg,
      core::AbortRequestMsg,
      core::CommitResponseMsg,
      core::WritebackMsg,
      core::WritebackAckMsg,
      core::HeartbeatMsg,
      core::QueryPrepareMsg,
      core::NotLeaderMsg,
      core::QueryDecisionMsg,
      core::LogTxnInfo,
      core::LogWriteData,
      core::LogDecision,
      core::LogPrepareResult,
      core::LogCommit,
      raft::NoopPayload,
      tapir::TapirReadMsg,
      tapir::TapirReadReplyMsg,
      tapir::TapirPrepareMsg,
      tapir::TapirPrepareReplyMsg,
      tapir::TapirFinalizeMsg,
      tapir::TapirFinalizeReplyMsg,
      tapir::TapirDecideMsg,
      tapir::TapirDecideAckMsg>();
  return registry;
}

const Entry* FindEntry(int type) {
  const std::vector<Entry>& registry = Registry();
  if (type < 0 || static_cast<size_t>(type) >= registry.size() ||
      registry[type].encode == nullptr) {
    return nullptr;
  }
  return &registry[type];
}

/// Unregistered types append nothing: the receiver's decode rejects the
/// empty payload.
void EncodeInto(const sim::Message& msg, std::vector<uint8_t>* out) {
  if (const Entry* e = FindEntry(msg.type())) e->encode(msg, out);
}

sim::MessagePtr DecodeFrom(int type, const uint8_t* data, size_t len) {
  const Entry* e = FindEntry(type);
  return e == nullptr ? nullptr : e->decode(data, len);
}

}  // namespace

std::vector<uint8_t> Encode(const sim::Message& msg) {
  std::vector<uint8_t> out;
  EncodeInto(msg, &out);
  return out;
}

sim::MessagePtr Decode(int type, const uint8_t* data, size_t len) {
  return DecodeFrom(type, data, len);
}

bool Encodable(int type) { return FindEntry(type) != nullptr; }

std::vector<int> RegisteredTypes() {
  std::vector<int> types;
  for (size_t t = 0; t < Registry().size(); ++t) {
    if (Registry()[t].encode != nullptr) types.push_back(static_cast<int>(t));
  }
  return types;
}

runtime::WireCodec Codec() {
  runtime::WireCodec codec;
  codec.encode = Encode;
  // The transport's hot path: append into its pooled frame buffer so the
  // encode allocates nothing once the pool is warm.
  codec.encode_append = EncodeInto;
  codec.decode = DecodeFrom;
  return codec;
}

}  // namespace carousel::wire
