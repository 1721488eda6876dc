#ifndef CAROUSEL_TESTS_TEST_UTIL_H_
#define CAROUSEL_TESTS_TEST_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/topology.h"
#include "harness/cluster.h"
#include "harness/rt_cluster.h"

namespace carousel::test {

/// Polls `cond` until it holds or `timeout` elapses; returns its final
/// value. The condition-driven replacement for fixed sleeps and
/// hand-rolled deadline loops in real-time tests: the wait ends the
/// moment the condition holds, and a slow sanitizer run just polls
/// longer instead of flaking.
inline bool PollUntil(const std::function<bool()>& cond,
                      std::chrono::milliseconds timeout,
                      std::chrono::milliseconds interval =
                          std::chrono::milliseconds(5)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!cond()) {
    if (std::chrono::steady_clock::now() >= deadline) return cond();
    std::this_thread::sleep_for(interval);
  }
  return true;
}

/// Settle phase for a real-time cluster before Stop(): probes every live
/// server on its own loop thread until none holds a pending prepare. Every
/// prepared transaction pins its keys on each participant leader (and on
/// each replica that voted or applied the prepare) until its commit or
/// abort is applied there, so an empty pending list everywhere means every
/// decided transaction's writebacks have landed. Coordinator records are
/// no signal: followers keep the ones they apply from the log. Returns
/// false if the cluster does not settle within `timeout`. Not for use
/// while a concurrent KillServer or RestartServer may stop a probed loop.
inline bool WaitUntilSettled(harness::RtCluster& cluster,
                             std::chrono::milliseconds timeout) {
  struct Probe {
    std::atomic<size_t> answered{0};
    std::atomic<size_t> busy{0};
  };
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    std::vector<core::CarouselServer*> live;
    for (const NodeInfo& info : cluster.topology().nodes()) {
      if (!info.is_client && cluster.server_alive(info.id)) {
        live.push_back(cluster.server(info.id));
      }
    }
    auto probe = std::make_shared<Probe>();
    for (core::CarouselServer* s : live) {
      cluster.RunOnServer(s->id(), [s, probe]() {
        if (s->pending().size() > 0) probe->busy.fetch_add(1);
        probe->answered.fetch_add(1);
      });
    }
    if (!PollUntil([&] { return probe->answered.load() == live.size(); },
                   std::chrono::duration_cast<std::chrono::milliseconds>(
                       deadline - std::chrono::steady_clock::now()),
                   std::chrono::milliseconds(1))) {
      return false;
    }
    if (probe->busy.load() == 0) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// A small deployment: `num_dcs` DCs at a uniform RTT, `partitions`
/// partitions with `replication` replicas, and `clients_per_dc` clients in
/// every DC. Raft timers are shrunk so failover tests run quickly.
inline core::CarouselOptions FastRaftOptions() {
  core::CarouselOptions options;
  options.raft.election_timeout_min = 300'000;
  options.raft.election_timeout_max = 600'000;
  options.raft.heartbeat_interval = 60'000;
  options.heartbeat_interval = 200'000;
  options.client_retry_timeout = 1'500'000;
  options.coordinator_retry_interval = 1'500'000;
  options.pending_gc_interval = 5'000'000;
  return options;
}

/// FastRaftOptions plus the Carousel Fast features (CPC fast path and
/// local-replica reads) that most failure/CPC tests exercise.
inline core::CarouselOptions FastCpcOptions() {
  core::CarouselOptions options = FastRaftOptions();
  options.fast_path = true;
  options.local_reads = true;
  return options;
}

inline Topology SmallTopology(int num_dcs = 3, int partitions = 3,
                              int replication = 3, int clients_per_dc = 2,
                              double rtt_ms = 20) {
  Topology topo = Topology::Uniform(num_dcs, rtt_ms);
  topo.PlacePartitions(partitions, replication);
  for (DcId dc = 0; dc < num_dcs; ++dc) {
    for (int i = 0; i < clients_per_dc; ++i) topo.AddClient(dc);
  }
  return topo;
}

/// A started cluster over SmallTopology() — the common fixture for
/// cluster-level tests.
inline std::unique_ptr<core::Cluster> MakeSmallCluster(
    core::CarouselOptions options, uint64_t seed = 21, int num_dcs = 3,
    int partitions = 3) {
  auto cluster = std::make_unique<core::Cluster>(
      SmallTopology(num_dcs, partitions), options, sim::NetworkOptions{},
      seed);
  cluster->Start();
  return cluster;
}

/// A started cluster over the paper's EC2 deployment (5 DCs, 5 partitions,
/// replication 3) with one client in `client_dc`.
inline std::unique_ptr<core::Cluster> Ec2Cluster(core::CarouselOptions options,
                                                 DcId client_dc,
                                                 uint64_t seed = 11) {
  Topology topo = Topology::PaperEc2();
  topo.PlacePartitions(5, 3);
  topo.AddClient(client_dc);
  auto cluster = std::make_unique<core::Cluster>(
      std::move(topo), options, sim::NetworkOptions{}, seed);
  cluster->Start();
  return cluster;
}

/// A key owned by `partition`, found by probing `tag`-prefixed names.
inline Key KeyInPartition(const core::Cluster& cluster, PartitionId p,
                          const std::string& tag) {
  for (int i = 0; i < 100000; ++i) {
    Key k = tag + std::to_string(i);
    if (cluster.directory().PartitionFor(k) == p) return k;
  }
  return "";
}

/// Synchronous-looking transaction execution for tests: issues the
/// transaction and pumps the simulator until it completes (or `timeout`
/// sim-time passes).
struct TxnOutcome {
  bool read_done = false;
  bool commit_done = false;
  Status read_status;
  Status commit_status;
  core::CarouselClient::ReadResults reads;
};

inline TxnOutcome RunTxn(core::Cluster& cluster, int client_index,
                         const KeyList& reads, const WriteSet& writes,
                         SimTime timeout = 60 * kMicrosPerSecond) {
  auto outcome = std::make_shared<TxnOutcome>();
  core::CarouselClient* client = cluster.client(client_index);
  const TxnId tid = client->Begin();
  KeyList write_keys;
  for (const auto& [k, v] : writes) write_keys.push_back(k);

  client->ReadAndPrepare(
      tid, reads, write_keys,
      [&cluster, client, tid, writes, outcome](
          Status status, const core::CarouselClient::ReadResults& results) {
        outcome->read_done = true;
        outcome->read_status = status;
        outcome->reads = results;
        if (writes.empty()) {
          // Read-only transactions complete at the read round.
          outcome->commit_done = true;
          outcome->commit_status = status;
          return;
        }
        if (!status.ok()) {
          outcome->commit_done = true;
          outcome->commit_status = status;
          return;
        }
        for (const auto& [k, v] : writes) client->Write(tid, k, v);
        client->Commit(tid, [outcome](Status commit_status) {
          outcome->commit_done = true;
          outcome->commit_status = commit_status;
        });
      });

  const SimTime deadline = cluster.sim().now() + timeout;
  while (!outcome->commit_done && cluster.sim().now() < deadline) {
    cluster.sim().RunFor(kMicrosPerMilli);
  }
  return *outcome;
}

/// The committed value of `key` as seen by the current leader of its
/// partition.
inline VersionedValue LeaderValue(core::Cluster& cluster, const Key& key) {
  const PartitionId p = cluster.directory().PartitionFor(key);
  core::CarouselServer* leader = cluster.LeaderOf(p);
  return leader == nullptr ? VersionedValue{} : leader->store().Get(key);
}

}  // namespace carousel::test

#endif  // CAROUSEL_TESTS_TEST_UTIL_H_
