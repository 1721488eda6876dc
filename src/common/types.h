#ifndef CAROUSEL_COMMON_TYPES_H_
#define CAROUSEL_COMMON_TYPES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace carousel {

/// Keys and values are opaque byte strings, as in the paper's key-value
/// store interface.
using Key = std::string;
using Value = std::string;

/// Monotonically increasing per-key version number; version 0 means the key
/// has never been written (reads return an empty value).
using Version = uint64_t;

/// Simulated time in microseconds since the start of the run.
using SimTime = int64_t;
constexpr SimTime kMicrosPerMilli = 1000;
constexpr SimTime kMicrosPerSecond = 1000 * 1000;

/// Identifies a node (server or client) in the deployment. Dense, assigned
/// by the topology.
using NodeId = int32_t;
constexpr NodeId kInvalidNode = -1;

/// Identifies a datacenter (site).
using DcId = int32_t;

/// Identifies a data partition; each partition is managed by one consensus
/// group of 2f+1 replicas.
using PartitionId = int32_t;
constexpr PartitionId kInvalidPartition = -1;

/// Identifies a client (application server) instance.
using ClientId = int32_t;

/// Globally unique transaction ID: (client ID, per-client counter), as in
/// paper §3.3.
struct TxnId {
  ClientId client = -1;
  uint64_t counter = 0;

  bool valid() const { return client >= 0; }
  std::string ToString() const {
    return std::to_string(client) + "." + std::to_string(counter);
  }

  friend bool operator==(const TxnId& a, const TxnId& b) {
    return a.client == b.client && a.counter == b.counter;
  }

  /// Wire layout (common/fields.h): i32 client, u64 counter.
  template <class F>
  void Fields(F& f) {
    f(client, counter);
  }
  friend bool operator<(const TxnId& a, const TxnId& b) {
    if (a.client != b.client) return a.client < b.client;
    return a.counter < b.counter;
  }
};

struct TxnIdHash {
  size_t operator()(const TxnId& id) const {
    uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(id.client)) << 40) ^
                 id.counter;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

/// A read result: value plus the version it was read at.
struct VersionedValue {
  Value value;
  Version version = 0;

  friend bool operator==(const VersionedValue& a, const VersionedValue& b) {
    return a.version == b.version && a.value == b.value;
  }
};

/// Map from key to the version a transaction observed for it.
using ReadVersionMap = std::map<Key, Version>;

/// Buffered writes of a transaction.
using WriteSet = std::map<Key, Value>;

/// Ordered set of keys (std::map keys give deterministic iteration).
using KeyList = std::vector<Key>;

}  // namespace carousel

#endif  // CAROUSEL_COMMON_TYPES_H_
