#ifndef CAROUSEL_COMMON_FIELDS_H_
#define CAROUSEL_COMMON_FIELDS_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>

#include "common/types.h"

namespace carousel {

/// Field lists: every wire message (and every struct nested in one)
/// describes its layout once, as
///
///   template <class F> void Fields(F& f) {
///     f.Header(tid, partition, ...);  // fixed header, padded to budget
///     f(read_keys, write_keys);       // variable sections, in order
///   }
///
/// and three visitors derive the rest from that list: FieldSizer below
/// (SizeBytes, hence the simulator's bandwidth accounting), and the
/// encoder and decoder in wire/wire.cc. FieldVisitor maps each field kind
/// onto a handful of visitor primitives, so a kind's layout is written
/// here once for all three passes.
///
/// Field kinds, by C++ type:
///  - bool, enums (one byte), integers: little-endian, natural width;
///  - std::string: u32 length + bytes;
///  - vectors and maps: u32 count + elements; a map entry is its key then
///    its value, except two layouts that put both lengths first:
///    WriteSet entries (u32 klen, u32 vlen, key, value) and read maps
///    (u16 klen, u16 vlen, u64 version, key, value);
///  - a struct with its own Fields(): that list, with no header;
///  - a message pointer (nested payload): u32 type + u32 length + the
///    payload's own encoding. It must be present: a decoder rejects
///    type 0, the encoding of a null pointer, unless the field is Nullable.
/// Named kinds for the irregular shapes, below: Counted (a count that
/// lives in the fixed header), Narrow (a field stored narrower than its
/// C++ type), VersionsPerKey and Nullable.

/// Which pass a visitor implements (kinds that must read or assign a
/// field only on one pass test it).
enum class FieldPass { kSize, kEncode, kDecode };

/// The elements of `items` with no count prefix: their count `n` is a
/// separate field, usually in the fixed header. A Counted string is raw
/// bytes. Holds `n` by reference so a decoder sees the value it has just
/// read, even within one f(...) call.
template <class C, class N>
struct Counted {
  using Items = C;
  C& items;
  const N& n;
};
template <class C, class N>
Counted(C&, const N&) -> Counted<C, N>;

/// `field` stored on the wire as a W (e.g. a u64 term sent as u32).
template <class W, class T>
struct NarrowField {
  using Wire = W;
  T& field;
};
template <class W, class T>
NarrowField<W, T> Narrow(T& field) {
  return {field};
}

/// One u64 per key of `keys`, in order, looked up in `versions` (0 when
/// absent) — per key, not per map entry, since the map dedupes.
struct VersionsPerKey {
  const KeyList& keys;
  ReadVersionMap& versions;
};

/// A nested payload that may be absent (type 0, length 0 on the wire).
template <class P>
struct Nullable {
  P& payload;
};
template <class P>
Nullable(P&) -> Nullable<P>;

/// The wire width of a container's count.
template <class C>
uint32_t WireCount(const C& c) {
  return static_cast<uint32_t>(c.size());
}

namespace fields_internal {
template <class T>
struct IsCounted : std::false_type {};
template <class C, class N>
struct IsCounted<Counted<C, N>> : std::true_type {};
template <class T>
struct IsNarrow : std::false_type {};
template <class W, class T>
struct IsNarrow<NarrowField<W, T>> : std::true_type {};
template <class T>
struct IsNullable : std::false_type {};
template <class P>
struct IsNullable<Nullable<P>> : std::true_type {};
template <class T>
struct IsPair : std::false_type {};
template <class A, class B>
struct IsPair<std::pair<A, B>> : std::true_type {};
}  // namespace fields_internal

/// CRTP base of the three visitors. V provides the primitives:
///   Scalar(x)          one bool / enum / integer;
///   Bytes(s, n)        n raw bytes of string s;
///   Each(c, n, fn)     fn on every element (a decoder builds n of them);
///   Payload(p, null)   a nested message; `null`: it may be absent;
///   EndHeader()        pad / skip / count to the header budget;
/// and `static constexpr FieldPass kPass`.
template <class V>
class FieldVisitor {
 public:
  template <class... Ts>
  void operator()(Ts&&... fields) {
    (Visit(fields), ...);
  }
  /// The fixed header: `fields`, then padding to the message's budget.
  template <class... Ts>
  void Header(Ts&&... fields) {
    (Visit(fields), ...);
    self().EndHeader();
  }

 private:
  V& self() { return static_cast<V&>(*this); }

  template <class T>
  void Visit(T& x) {
    using U = std::remove_const_t<T>;
    V& v = self();
    if constexpr (std::is_arithmetic_v<U> || std::is_enum_v<U>) {
      v.Scalar(x);
    } else if constexpr (std::is_same_v<U, std::string>) {
      uint32_t n = WireCount(x);
      v.Scalar(n);
      v.Bytes(x, n);
    } else if constexpr (fields_internal::IsCounted<U>::value) {
      if constexpr (std::is_same_v<std::remove_const_t<typename U::Items>,
                                   std::string>) {
        v.Bytes(x.items, x.n);
      } else {
        v.Each(x.items, x.n, [this](auto& e) { Visit(e); });
      }
    } else if constexpr (fields_internal::IsNarrow<U>::value) {
      using W = typename U::Wire;
      W w = static_cast<W>(x.field);
      v.Scalar(w);
      if constexpr (V::kPass == FieldPass::kDecode) x.field = w;
    } else if constexpr (std::is_same_v<U, VersionsPerKey>) {
      for (const Key& k : x.keys) {
        uint64_t version = 0;
        if constexpr (V::kPass == FieldPass::kEncode) {
          auto it = x.versions.find(k);
          if (it != x.versions.end()) version = it->second;
        }
        v.Scalar(version);
        if constexpr (V::kPass == FieldPass::kDecode) x.versions[k] = version;
      }
    } else if constexpr (fields_internal::IsNullable<U>::value) {
      v.Payload(x.payload, true);
    } else if constexpr (requires { x.Fields(v); }) {
      x.Fields(v);
    } else if constexpr (fields_internal::IsPair<U>::value) {
      VisitEntry(x.first, x.second);
    } else if constexpr (requires { x.begin(); x.size(); }) {
      uint32_t n = WireCount(x);
      v.Scalar(n);
      v.Each(x, n, [this](auto& e) { Visit(e); });
    } else {
      v.Payload(x, false);
    }
  }

  /// A map entry: key then value, except the two lengths-first layouts.
  template <class K, class T>
  void VisitEntry(K& key, T& value) {
    using U = std::remove_const_t<T>;
    V& v = self();
    if constexpr (std::is_same_v<U, std::string>) {  // WriteSet
      uint32_t klen = WireCount(key), vlen = WireCount(value);
      v(klen, vlen);
      v.Bytes(key, klen);
      v.Bytes(value, vlen);
    } else if constexpr (std::is_same_v<U, VersionedValue>) {  // read map
      uint16_t klen = static_cast<uint16_t>(key.size());
      uint16_t vlen = static_cast<uint16_t>(value.value.size());
      v(klen, vlen, value.version);
      v.Bytes(key, klen);
      v.Bytes(value.value, vlen);
    } else {
      Visit(key);
      Visit(value);
    }
  }
};

/// A header wider than its budget would be cut short by the padding and
/// still match SizeBytes(), so it aborts in every build mode (an assert
/// would compile out under NDEBUG). The sizing pass runs on every message
/// sent, so a new field over budget fails its first test.
inline void CheckHeaderBudget(size_t header_bytes, size_t budget) {
  if (header_bytes <= budget) return;
  std::fprintf(stderr,
               "carousel: wire header of %zu bytes exceeds its %zu-byte "
               "budget; aborting\n",
               header_bytes, budget);
  std::abort();
}

/// The sizing pass: SizeBytes() of every field-list message. The header
/// counts as its whole budget; a nested payload as its framing plus its
/// memoized WireSize(), so a log payload carried by every AppendEntries
/// retransmission is never re-walked.
class FieldSizer : public FieldVisitor<FieldSizer> {
 public:
  static constexpr FieldPass kPass = FieldPass::kSize;
  explicit FieldSizer(size_t header_bytes) : header_bytes_(header_bytes) {}

  template <class T>
  void Scalar(const T&) {
    bytes_ += sizeof(T);
  }
  void Bytes(const std::string&, size_t n) { bytes_ += n; }
  template <class C, class Fn>
  void Each(C& items, size_t, Fn&& fn) {
    for (auto& e : items) fn(e);
  }
  template <class P>
  void Payload(const P& payload, bool) {
    bytes_ += 8 + (payload ? payload->WireSize() : 0);
  }
  void EndHeader() {
    CheckHeaderBudget(bytes_, header_bytes_);
    bytes_ = header_bytes_;
  }

  size_t bytes() const { return bytes_; }

 private:
  size_t header_bytes_;
  size_t bytes_ = 0;
};

}  // namespace carousel

#endif  // CAROUSEL_COMMON_FIELDS_H_
