#ifndef CAROUSEL_COMMON_BYTES_H_
#define CAROUSEL_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace carousel {

/// Little-endian byte codec shared by every binary format in the system:
/// the wire codec (wire/wire.cc), the WAL and snapshot records
/// (runtime/storage.cc) and the prepare-pin blob (kv/pending_list.cc).

namespace bytes_internal {
template <typename T>
T ToLe(T v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  T le = 0;
  for (size_t i = 0; i < sizeof(T); ++i)
    le |= static_cast<T>(static_cast<uint8_t>(v >> (8 * i)))
          << (8 * (sizeof(T) - 1 - i));
  return le;
#else
  return v;
#endif
}
}  // namespace bytes_internal

/// Appends to a caller-owned vector. Offsets (PadTo) are relative to the
/// writer's construction point, so a nested writer frames a sub-record in
/// the same buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out)
      : out_(out), start_(out->size()) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v) { Le(v); }
  void U32(uint32_t v) { Le(v); }
  void U64(uint64_t v) { Le(v); }
  /// resize + memcpy rather than insert: GCC 12's -Wstringop-overflow
  /// misfires on range inserts into a fresh vector in Release builds.
  void Bytes(const void* data, size_t n) {
    if (n == 0) return;
    const size_t at = out_->size();
    out_->resize(at + n);
    std::memcpy(out_->data() + at, data, n);
  }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }

  /// Zero-pads to exactly `n` bytes written; what is already written must
  /// fit.
  void PadTo(size_t n) { out_->resize(start_ + n, 0); }
  /// Overwrites the u32 at writer offset `at` (a length known only after
  /// the bytes it covers were written).
  void PatchU32(size_t at, uint32_t v) {
    v = bytes_internal::ToLe(v);
    std::memcpy(out_->data() + start_ + at, &v, sizeof(v));
  }

  size_t written() const { return out_->size() - start_; }
  std::vector<uint8_t>* out() const { return out_; }

 private:
  /// One growth check and one memcpy per field instead of a bounds-checked
  /// push_back per byte.
  template <typename T>
  void Le(T v) {
    v = bytes_internal::ToLe(v);
    Bytes(&v, sizeof(T));
  }

  std::vector<uint8_t>* out_;
  size_t start_;
};

/// Bounds-checked reader over a byte slice. Underflow latches ok() = false
/// and yields zeros and empty strings; callers check ok() once at the end.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  uint8_t U8() { return Take(1) ? data_[pos_ - 1] : 0; }
  uint16_t U16() { return Le<uint16_t>(); }
  uint32_t U32() { return Le<uint32_t>(); }
  uint64_t U64() { return Le<uint64_t>(); }
  std::string Str(size_t n) {
    if (!Take(n)) return {};
    return std::string(reinterpret_cast<const char*>(data_ + pos_ - n), n);
  }
  std::vector<uint8_t> Bytes(size_t n) {
    if (!Take(n)) return {};
    return std::vector<uint8_t>(data_ + pos_ - n, data_ + pos_);
  }
  void Skip(size_t n) { Take(n); }
  /// Skips forward to absolute offset `n` (the padded rest of a header).
  void SkipTo(size_t n) {
    if (n < pos_) Fail();
    Take(n - pos_);
  }
  void Fail() { ok_ = false; }

  const uint8_t* cursor() const { return data_ + pos_; }
  size_t remaining() const { return len_ - pos_; }
  bool ok() const { return ok_; }

 private:
  bool Take(size_t n) {
    if (!ok_ || len_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  /// One bounds check and one unaligned load per field.
  template <typename T>
  T Le() {
    if (!Take(sizeof(T))) return 0;
    T v;
    std::memcpy(&v, data_ + pos_ - sizeof(T), sizeof(T));
    return bytes_internal::ToLe(v);
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace carousel

#endif  // CAROUSEL_COMMON_BYTES_H_
