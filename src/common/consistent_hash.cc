#include "common/consistent_hash.h"

#include <string>

namespace carousel {

uint64_t ConsistentHashRing::HashBytes(const Key& key) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  // Final avalanche so nearby keys spread out.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

ConsistentHashRing::ConsistentHashRing(int num_partitions, int virtual_nodes)
    : virtual_nodes_(virtual_nodes), num_partitions_(0) {
  for (PartitionId p = 0; p < num_partitions; ++p) AddPartition(p);
}

void ConsistentHashRing::AddPartition(PartitionId partition) {
  for (int v = 0; v < virtual_nodes_; ++v) {
    // Token "p<partition>#<v>", built by appends: `"p" + std::string&&`
    // trips GCC 12's -Werror=restrict false positive in Release builds.
    std::string token = "p";
    token += std::to_string(partition);
    token += '#';
    token += std::to_string(v);
    ring_[HashBytes(token)] = partition;
  }
  num_partitions_++;
}

void ConsistentHashRing::RemovePartition(PartitionId partition) {
  for (auto it = ring_.begin(); it != ring_.end();) {
    if (it->second == partition) {
      it = ring_.erase(it);
    } else {
      ++it;
    }
  }
  num_partitions_--;
}

PartitionId ConsistentHashRing::PartitionFor(const Key& key) const {
  const uint64_t h = HashBytes(key);
  auto it = ring_.lower_bound(h);
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

}  // namespace carousel
