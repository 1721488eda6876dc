#include "runtime/storage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/bytes.h"

namespace carousel::runtime {
namespace {

// WAL record framing: [u32 body_len][u32 crc32(body)][body]. A record is
// valid only if the full body is present and the CRC matches; the first
// invalid record marks the torn tail and everything from there is
// discarded. Body[0] is the record kind.
constexpr uint8_t kRecHardState = 1;
constexpr uint8_t kRecCommitIndex = 2;
constexpr uint8_t kRecLogEntry = 3;
constexpr uint8_t kRecPendingAdd = 4;
constexpr uint8_t kRecPendingErase = 5;

constexpr uint32_t kSnapshotMagic = 0x6e535743;  // "CWSn"
constexpr uint32_t kSnapshotVersion = 1;

uint32_t Crc32(const uint8_t* data, size_t len) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (~(c & 1) + 1));
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

bool WriteAll(int fd, const uint8_t* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += static_cast<size_t>(n);
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  out->clear();
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out->insert(out->end(), buf, buf + n);
  }
  ::close(fd);
  return true;
}

void MkDirs(const std::string& path) {
  std::string prefix;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!prefix.empty() && prefix != "/") ::mkdir(prefix.c_str(), 0755);
    }
    if (i < path.size()) prefix.push_back(path[i]);
  }
}

void FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

WalStorage::WalStorage(std::string dir, WireCodec codec,
                       WalStorageOptions options)
    : dir_(std::move(dir)), codec_(std::move(codec)), options_(options) {
  MkDirs(dir_);
  LoadFromDisk();
  wal_fd_ = ::open((dir_ + "/wal.log").c_str(),
                   O_WRONLY | O_CREAT | O_APPEND, 0644);
}

WalStorage::~WalStorage() {
  if (wal_fd_ >= 0) ::close(wal_fd_);
}

void WalStorage::AppendRecord(const std::vector<uint8_t>& body) {
  std::vector<uint8_t> rec;
  rec.reserve(8 + body.size());
  ByteWriter w(&rec);
  w.U32(static_cast<uint32_t>(body.size()));
  w.U32(Crc32(body.data(), body.size()));
  w.Bytes(body.data(), body.size());
  if (wal_fd_ >= 0 && WriteAll(wal_fd_, rec.data(), rec.size())) {
    wal_bytes_ += rec.size();
    if (options_.fsync) ::fsync(wal_fd_);
  }
  MaybeAutoCompact();
}

void WalStorage::PersistHardState(uint64_t term, NodeId voted_for) {
  state_.term = term;
  state_.voted_for = voted_for;
  std::vector<uint8_t> body;
  ByteWriter w(&body);
  w.U8(kRecHardState);
  w.U64(term);
  w.U32(static_cast<uint32_t>(voted_for));
  AppendRecord(body);
}

void WalStorage::PersistCommitIndex(uint64_t commit_index) {
  state_.commit_index = commit_index;
  std::vector<uint8_t> body;
  ByteWriter w(&body);
  w.U8(kRecCommitIndex);
  w.U64(commit_index);
  AppendRecord(body);
}

void WalStorage::PersistLogEntry(uint64_t index, uint64_t term,
                                 const MessagePtr& payload) {
  DurableNodeState::LogEntry entry;
  entry.term = term;
  entry.payload = payload;
  entry.payload_type = payload == nullptr ? -1 : payload->type();
  std::vector<uint8_t> encoded;
  if (payload != nullptr && codec_.encode) encoded = codec_.encode(*payload);
  // Implicit suffix truncation: appending at `index` invalidates anything
  // previously persisted at or beyond it, exactly like the in-memory
  // log_.resize() in Raft's conflict handling.
  if (index >= 1 && index <= state_.log.size()) {
    state_.log.resize(index - 1);
  }
  if (index == state_.log.size() + 1) {
    state_.log.push_back(std::move(entry));
  }
  if (state_.commit_index > state_.log.size()) {
    state_.commit_index = state_.log.size();
  }

  std::vector<uint8_t> body;
  ByteWriter w(&body);
  w.U8(kRecLogEntry);
  w.U64(index);
  w.U64(term);
  w.U32(static_cast<uint32_t>(payload == nullptr ? -1 : payload->type()));
  w.Bytes(encoded.data(), encoded.size());
  AppendRecord(body);
}

void WalStorage::PersistPendingAdd(const std::string& key,
                                   std::vector<uint8_t> blob) {
  std::vector<uint8_t> body;
  ByteWriter w(&body);
  w.U8(kRecPendingAdd);
  w.U32(static_cast<uint32_t>(key.size()));
  w.Str(key);
  w.Bytes(blob.data(), blob.size());
  state_.pending[key] = std::move(blob);
  AppendRecord(body);
}

void WalStorage::PersistPendingErase(const std::string& key) {
  if (state_.pending.erase(key) == 0) return;  // Nothing durable to undo.
  std::vector<uint8_t> body;
  ByteWriter w(&body);
  w.U8(kRecPendingErase);
  w.U32(static_cast<uint32_t>(key.size()));
  w.Str(key);
  AppendRecord(body);
}

bool WalStorage::Load(DurableNodeState* out) {
  *out = state_;
  return recovered_any_;
}

void WalStorage::LoadFromDisk() {
  state_ = DurableNodeState{};
  const bool had_snapshot = LoadSnapshot();
  ReplayWal();
  if (state_.commit_index > state_.log.size()) {
    state_.commit_index = state_.log.size();
  }
  recovered_any_ = had_snapshot || !state_.empty();
}

bool WalStorage::LoadSnapshot() {
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(dir_ + "/snapshot.bin", &bytes)) return false;
  ByteReader header(bytes.data(), bytes.size());
  if (header.U32() != kSnapshotMagic || header.U32() != kSnapshotVersion) {
    return false;
  }
  const uint32_t body_len = header.U32();
  const uint32_t crc = header.U32();
  if (!header.ok() || header.remaining() < body_len) return false;
  const uint8_t* body = header.cursor();
  if (Crc32(body, body_len) != crc) return false;

  ByteReader r(body, body_len);
  state_.term = r.U64();
  state_.voted_for = static_cast<NodeId>(static_cast<int32_t>(r.U32()));
  state_.commit_index = r.U64();
  const uint64_t nlog = r.U64();
  for (uint64_t i = 0; i < nlog && r.ok(); ++i) {
    DurableNodeState::LogEntry entry;
    entry.term = r.U64();
    entry.payload_type = static_cast<int32_t>(r.U32());
    const uint32_t plen = r.U32();
    const std::vector<uint8_t> payload = r.Bytes(plen);
    if (!r.ok()) break;
    if (entry.payload_type >= 0 && codec_.decode) {
      entry.payload =
          codec_.decode(entry.payload_type, payload.data(), payload.size());
    }
    state_.log.push_back(std::move(entry));
  }
  const uint64_t npending = r.U64();
  for (uint64_t i = 0; i < npending && r.ok(); ++i) {
    const uint32_t klen = r.U32();
    const std::string key = r.Str(klen);
    const uint32_t blen = r.U32();
    std::vector<uint8_t> blob = r.Bytes(blen);
    if (!r.ok()) break;
    state_.pending[key] = std::move(blob);
  }
  if (!r.ok()) {
    // A snapshot is written atomically (tmp + rename), so a parse failure
    // means external corruption; start over rather than trust half of it.
    state_ = DurableNodeState{};
    return false;
  }
  return true;
}

void WalStorage::ReplayWal() {
  const std::string path = dir_ + "/wal.log";
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes)) return;
  size_t pos = 0;
  while (pos + 8 <= bytes.size()) {
    ByteReader header(bytes.data() + pos, 8);
    const uint32_t body_len = header.U32();
    const uint32_t crc = header.U32();
    if (pos + 8 + body_len > bytes.size() || body_len == 0) break;  // Torn.
    const uint8_t* body = bytes.data() + pos + 8;
    if (Crc32(body, body_len) != crc) break;  // Torn / corrupt tail.

    ByteReader r(body, body_len);
    switch (r.U8()) {
      case kRecHardState: {
        state_.term = r.U64();
        state_.voted_for = static_cast<NodeId>(static_cast<int32_t>(r.U32()));
        break;
      }
      case kRecCommitIndex: {
        state_.commit_index = r.U64();
        break;
      }
      case kRecLogEntry: {
        const uint64_t index = r.U64();
        DurableNodeState::LogEntry entry;
        entry.term = r.U64();
        entry.payload_type = static_cast<int32_t>(r.U32());
        std::vector<uint8_t> payload = r.Bytes(r.remaining());
        if (!r.ok()) break;
        if (entry.payload_type >= 0 && codec_.decode) {
          entry.payload = codec_.decode(entry.payload_type, payload.data(),
                                        payload.size());
        }
        if (index >= 1 && index <= state_.log.size()) {
          state_.log.resize(index - 1);
        }
        if (index == state_.log.size() + 1) {
          state_.log.push_back(std::move(entry));
        }
        break;
      }
      case kRecPendingAdd: {
        const uint32_t klen = r.U32();
        const std::string key = r.Str(klen);
        std::vector<uint8_t> blob = r.Bytes(r.remaining());
        if (r.ok()) state_.pending[key] = std::move(blob);
        break;
      }
      case kRecPendingErase: {
        const uint32_t klen = r.U32();
        const std::string key = r.Str(klen);
        if (r.ok()) state_.pending.erase(key);
        break;
      }
      default:
        break;  // Unknown kind from a future version: skip the record.
    }
    pos += 8 + body_len;
  }
  wal_bytes_ = pos;
  if (pos < bytes.size()) {
    // Torn tail: drop the partial/corrupt suffix so the next append starts
    // on a clean record boundary.
    torn_records_++;
    ::truncate(path.c_str(), static_cast<off_t>(pos));
  }
}

void WalStorage::Compact() {
  std::vector<uint8_t> body;
  ByteWriter w(&body);
  w.U64(state_.term);
  w.U32(static_cast<uint32_t>(state_.voted_for));
  w.U64(state_.commit_index);
  w.U64(state_.log.size());
  for (const DurableNodeState::LogEntry& entry : state_.log) {
    w.U64(entry.term);
    w.U32(static_cast<uint32_t>(entry.payload_type));
    std::vector<uint8_t> encoded;
    if (entry.payload != nullptr && codec_.encode) {
      encoded = codec_.encode(*entry.payload);
    }
    w.U32(static_cast<uint32_t>(encoded.size()));
    w.Bytes(encoded.data(), encoded.size());
  }
  w.U64(state_.pending.size());
  for (const auto& [key, blob] : state_.pending) {
    w.U32(static_cast<uint32_t>(key.size()));
    w.Str(key);
    w.U32(static_cast<uint32_t>(blob.size()));
    w.Bytes(blob.data(), blob.size());
  }

  std::vector<uint8_t> file;
  ByteWriter f(&file);
  f.U32(kSnapshotMagic);
  f.U32(kSnapshotVersion);
  f.U32(static_cast<uint32_t>(body.size()));
  f.U32(Crc32(body.data(), body.size()));
  f.Bytes(body.data(), body.size());

  const std::string tmp = dir_ + "/snapshot.tmp";
  const std::string final_path = dir_ + "/snapshot.bin";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  const bool written = WriteAll(fd, file.data(), file.size());
  if (options_.fsync) ::fsync(fd);
  ::close(fd);
  if (!written || ::rename(tmp.c_str(), final_path.c_str()) != 0) return;
  if (options_.fsync) FsyncDir(dir_);

  // The snapshot now carries everything; restart the WAL from empty.
  if (wal_fd_ >= 0) ::close(wal_fd_);
  wal_fd_ = ::open((dir_ + "/wal.log").c_str(),
                   O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  wal_bytes_ = 0;
}

void WalStorage::MaybeAutoCompact() {
  if (options_.compact_threshold_bytes == 0) return;
  if (wal_bytes_ < options_.compact_threshold_bytes) return;
  Compact();
}

}  // namespace carousel::runtime
