// Loopback smoke tests for the threaded runtime (backend #2 of the
// runtime seam): a full Carousel deployment on real threads — and, in the
// TCP variant, real sockets with every message round-tripped through the
// wire codec — driven closed-loop until well over a thousand
// multi-partition transactions commit, then certified with the same
// serializability checker the simulator's chaos harness uses.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "carousel/client.h"
#include "carousel/server.h"
#include "check/history.h"
#include "check/serializability.h"
#include "common/rng.h"
#include "common/topology.h"
#include "harness/rt_cluster.h"
#include "test_util.h"

namespace carousel::test {
namespace {

constexpr int kPartitions = 3;
constexpr int kKeysPerPartition = 8;
constexpr int kTargetCommits = 1100;

bool IsPrefix(const std::vector<TxnId>& prefix, const std::vector<TxnId>& of) {
  if (prefix.size() > of.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (!(prefix[i] == of[i])) return false;
  }
  return true;
}

// Shared across client drivers; everything here is touched from several
// loop threads.
struct Scoreboard {
  std::atomic<int> committed{0};
  std::atomic<int> aborted{0};
  std::atomic<int> done_clients{0};
};

// One closed-loop transaction driver pinned to a client's loop thread.
// Every transaction reads one key and writes one key in each of two
// distinct partitions, so the whole workload is multi-partition. All
// methods (after the kickoff Post) run on the client's own loop thread;
// only the Scoreboard crosses threads.
struct Driver : std::enable_shared_from_this<Driver> {
  Driver(harness::RtCluster* cluster, int index,
         std::shared_ptr<Scoreboard> board,
         const std::vector<std::vector<Key>>* pool, uint64_t seed,
         int target = kTargetCommits)
      : cluster(cluster),
        index(index),
        board(std::move(board)),
        pool(pool),
        rng(seed),
        target(target) {}

  harness::RtCluster* cluster;
  int index;
  std::shared_ptr<Scoreboard> board;
  const std::vector<std::vector<Key>>* pool;
  Rng rng;
  int target;
  uint64_t seq = 0;

  void Next() {
    if (board->committed.load() >= target) {
      board->done_clients.fetch_add(1);
      return;
    }
    core::CarouselClient* client = cluster->client(index);
    const int p1 = static_cast<int>(rng.UniformInt(0, kPartitions - 1));
    const int p2 =
        (p1 + 1 + static_cast<int>(rng.UniformInt(0, kPartitions - 2))) %
        kPartitions;
    const Key read1 = Pick(p1), read2 = Pick(p2);
    const Key write1 = Pick(p1), write2 = Pick(p2);
    const Value value = "c" + std::to_string(index) + "-" +
                        std::to_string(seq++);

    const TxnId tid = client->Begin();
    auto self = shared_from_this();
    client->ReadAndPrepare(
        tid, {read1, read2}, {write1, write2},
        [self, client, tid, write1, write2, value](
            Status status, const core::CarouselClient::ReadResults&) {
          if (!status.ok()) {
            self->board->aborted.fetch_add(1);
            self->Next();
            return;
          }
          client->Write(tid, write1, value);
          client->Write(tid, write2, value);
          client->Commit(tid, [self](Status commit_status) {
            if (commit_status.ok()) {
              self->board->committed.fetch_add(1);
            } else {
              self->board->aborted.fetch_add(1);
            }
            self->Next();
          });
        });
  }

 private:
  Key Pick(int partition) {
    const auto& keys = (*pool)[partition];
    return keys[rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1)];
  }
};

// Buckets probe keys by partition until every partition has a small pool;
// consistent hashing is pure, so this is safe off the loop threads.
std::vector<std::vector<Key>> BuildKeyPools(const core::Directory& directory) {
  std::vector<std::vector<Key>> pool(kPartitions);
  int filled = 0;
  for (int i = 0; filled < kPartitions && i < 100000; ++i) {
    const Key key = "rtk" + std::to_string(i);
    auto& bucket = pool[directory.PartitionFor(key)];
    if (bucket.size() < kKeysPerPartition) {
      bucket.push_back(key);
      if (bucket.size() == kKeysPerPartition) ++filled;
    }
  }
  return pool;
}

// Certifies a stopped, fault-free cluster: every replica holds a prefix of
// each key's longest writer chain (same extraction as the chaos harness),
// and the history over those chains passes the DSG checker with at least
// `min_committed` commits.
void CertifyStopped(harness::RtCluster& cluster,
                    const check::HistoryRecorder& history,
                    size_t min_committed) {
  check::WriterChains chains;
  for (PartitionId p = 0; p < kPartitions; ++p) {
    std::map<Key, std::vector<const std::vector<TxnId>*>> per_key;
    for (NodeId id : cluster.topology().Replicas(p)) {
      core::CarouselServer* server = cluster.server(id);
      ASSERT_NE(server, nullptr);
      for (const auto& [key, chain] : server->store().writer_log()) {
        per_key[key].push_back(&chain);
      }
    }
    for (auto& [key, candidates] : per_key) {
      const std::vector<TxnId>* longest = candidates.front();
      for (const auto* chain : candidates) {
        if (chain->size() > longest->size()) longest = chain;
      }
      for (const auto* chain : candidates) {
        EXPECT_TRUE(IsPrefix(*chain, *longest))
            << "replicas of partition " << p
            << " disagree on the write order of '" << key << "'";
      }
      chains[key] = *longest;
    }
  }

  const check::CheckResult result = check::CheckSerializability(history, chains);
  EXPECT_TRUE(result.ok()) << result.violations.size() << " violations; first: "
                           << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().description);
  EXPECT_GE(result.committed, min_committed);
}

void RunSmoke(bool use_tcp) {
  Topology topo = Topology::Uniform(/*num_dcs=*/3, /*inter_dc_rtt_ms=*/1);
  topo.PlacePartitions(kPartitions, /*replication_factor=*/3);
  for (DcId dc = 0; dc < 3; ++dc) topo.AddClient(dc);

  harness::RtClusterOptions rt_options;
  rt_options.use_tcp = use_tcp;
  rt_options.seed = use_tcp ? 7 : 3;
  // FastRaftOptions timer values are microseconds; on the threaded
  // backend's monotonic clock they are *real* microseconds, which is why
  // the shrunk test timers (60ms heartbeats, 300–600ms elections) suit a
  // wall-clock run.
  harness::RtCluster cluster(std::move(topo), FastRaftOptions(), rt_options);

  check::HistoryRecorder history;
  cluster.AttachHistory(&history);

  if (!cluster.Start(/*timeout_ms=*/20000)) {
    if (use_tcp) GTEST_SKIP() << "TCP transport unavailable in this sandbox";
    FAIL() << "in-process threaded cluster failed to start";
  }

  const std::vector<std::vector<Key>> pool =
      BuildKeyPools(cluster.directory());
  for (const auto& bucket : pool) ASSERT_EQ(bucket.size(), kKeysPerPartition);

  auto board = std::make_shared<Scoreboard>();
  const int num_clients = static_cast<int>(cluster.num_clients());
  std::vector<std::shared_ptr<Driver>> drivers;
  for (int i = 0; i < num_clients; ++i) {
    drivers.push_back(std::make_shared<Driver>(
        &cluster, i, board, &pool, /*seed=*/1000 + 31 * i + (use_tcp ? 7 : 0)));
  }
  for (int i = 0; i < num_clients; ++i) {
    auto driver = drivers[i];
    cluster.RunOnClient(i, [driver]() { driver->Next(); });
  }

  // Closed loop: each driver stops once the shared commit target is met.
  // The timeout is generous because TSan slows the run by an order of
  // magnitude.
  PollUntil(
      [&] { return board->done_clients.load() >= num_clients; },
      std::chrono::seconds(300));
  ASSERT_EQ(board->done_clients.load(), num_clients)
      << "drivers stalled: committed=" << board->committed.load()
      << " aborted=" << board->aborted.load()
      << " dropped=" << cluster.dropped_messages();

  // Let in-flight writebacks and coordinator decisions land on every
  // replica, then join every thread — after Stop() the server state is
  // plain memory.
  ASSERT_TRUE(WaitUntilSettled(cluster, std::chrono::seconds(60)));
  cluster.Stop();

  EXPECT_GE(board->committed.load(), 1000);
  CertifyStopped(cluster, history, /*min_committed=*/1000);
}

TEST(ThreadedRuntimeSmoke, InProcessClusterCommitsAndSerializes) {
  RunSmoke(/*use_tcp=*/false);
}

TEST(ThreadedRuntimeSmoke, TcpClusterCommitsAndSerializes) {
  RunSmoke(/*use_tcp=*/true);
}

// A fresh cluster serves the moment Start() returns: bootstrap leadership
// runs no failover recovery, so no serving gate waits for the term-1
// no-ops. A 50 ms one-way delay on every cross-DC link keeps those no-ops
// uncommitted for at least 100 ms while the test looks, and transactions
// issued at once run inside that window.
TEST(ThreadedRuntimeSmoke, FreshClusterServesBeforeBootstrapNoopsCommit) {
  constexpr int kWindowTarget = 15;
  Topology topo = Topology::Uniform(/*num_dcs=*/3, /*inter_dc_rtt_ms=*/1);
  topo.PlacePartitions(kPartitions, /*replication_factor=*/3);
  for (DcId dc = 0; dc < 3; ++dc) topo.AddClient(dc);
  harness::RtClusterOptions rt_options;
  rt_options.seed = 11;
  harness::RtCluster cluster(std::move(topo), FastRaftOptions(), rt_options);
  runtime::ThreadedRuntime::LinkFault wan;
  wan.delay = 50'000;
  const auto& nodes = cluster.topology().nodes();
  for (size_t a = 0; a < nodes.size(); ++a) {
    for (size_t b = a + 1; b < nodes.size(); ++b) {
      if (nodes[a].dc != nodes[b].dc) {
        cluster.rt().SetLinkFault(nodes[a].id, nodes[b].id, wan);
      }
    }
  }
  check::HistoryRecorder history;
  cluster.AttachHistory(&history);
  ASSERT_TRUE(cluster.Start(/*timeout_ms=*/20000));

  struct Probe {
    std::atomic<size_t> answered{0};
    std::atomic<size_t> serving{0};
    std::atomic<size_t> leaders{0};
    std::atomic<size_t> uncommitted_leaders{0};
  };
  auto probe = std::make_shared<Probe>();
  size_t num_servers = 0;
  for (const NodeInfo& info : nodes) {
    if (info.is_client) continue;
    num_servers++;
    core::CarouselServer* s = cluster.server(info.id);
    cluster.RunOnServer(info.id, [s, probe]() {
      if (s->serving()) probe->serving.fetch_add(1);
      if (s->raft()->is_leader()) {
        probe->leaders.fetch_add(1);
        if (s->raft()->commit_index() == 0) {
          probe->uncommitted_leaders.fetch_add(1);
        }
      }
      probe->answered.fetch_add(1);
    });
  }
  ASSERT_TRUE(PollUntil([&] { return probe->answered.load() == num_servers; },
                        std::chrono::seconds(30)));
  EXPECT_EQ(probe->serving.load(), num_servers);
  EXPECT_EQ(probe->leaders.load(), static_cast<size_t>(kPartitions));
  EXPECT_EQ(probe->uncommitted_leaders.load(),
            static_cast<size_t>(kPartitions))
      << "a bootstrap no-op committed before the probe; the window is gone";

  const std::vector<std::vector<Key>> pool =
      BuildKeyPools(cluster.directory());
  auto board = std::make_shared<Scoreboard>();
  const int num_clients = static_cast<int>(cluster.num_clients());
  std::vector<std::shared_ptr<Driver>> drivers;
  for (int i = 0; i < num_clients; ++i) {
    drivers.push_back(std::make_shared<Driver>(
        &cluster, i, board, &pool, /*seed=*/2000 + 17 * i, kWindowTarget));
  }
  for (int i = 0; i < num_clients; ++i) {
    auto driver = drivers[i];
    cluster.RunOnClient(i, [driver]() { driver->Next(); });
  }
  ASSERT_TRUE(PollUntil(
      [&] { return board->done_clients.load() >= num_clients; },
      std::chrono::seconds(120)))
      << "drivers stalled: committed=" << board->committed.load()
      << " aborted=" << board->aborted.load();
  ASSERT_TRUE(WaitUntilSettled(cluster, std::chrono::seconds(60)));
  cluster.Stop();
  CertifyStopped(cluster, history, kWindowTarget);
}

// Regression for the TCP listener port plan: every node binds port 0 and
// lets the OS pick, and peers learn the real ports through the runtime's
// address exchange — there is no fixed port range to collide on. Two full
// TCP clusters must therefore coexist in one process. (A fixed-base port
// scheme fails exactly this test: the second cluster's binds collide with
// the first's.)
TEST(ThreadedRuntimeSmoke, TwoTcpClustersCoexistOnOsAssignedPorts) {
  constexpr int kSmallTarget = 60;
  struct Deployment {
    std::unique_ptr<harness::RtCluster> cluster;
    std::shared_ptr<Scoreboard> board = std::make_shared<Scoreboard>();
    std::vector<std::vector<Key>> pool;
    std::vector<std::shared_ptr<Driver>> drivers;
  };
  Deployment deployments[2];

  for (int d = 0; d < 2; ++d) {
    Topology topo = Topology::Uniform(/*num_dcs=*/3, /*inter_dc_rtt_ms=*/1);
    topo.PlacePartitions(kPartitions, /*replication_factor=*/3);
    topo.AddClient(/*dc=*/0);
    harness::RtClusterOptions rt_options;
    rt_options.use_tcp = true;
    rt_options.seed = 40 + d;
    deployments[d].cluster = std::make_unique<harness::RtCluster>(
        std::move(topo), FastRaftOptions(), rt_options);
    // Both sets of listeners are bound and running before any workload:
    // with a fixed port plan the second Start() would fail right here.
    if (!deployments[d].cluster->Start(/*timeout_ms=*/20000)) {
      GTEST_SKIP() << "TCP transport unavailable in this sandbox";
    }
  }

  for (int d = 0; d < 2; ++d) {
    Deployment& dep = deployments[d];
    dep.pool = BuildKeyPools(dep.cluster->directory());
    const int num_clients = static_cast<int>(dep.cluster->num_clients());
    for (int i = 0; i < num_clients; ++i) {
      dep.drivers.push_back(std::make_shared<Driver>(
          dep.cluster.get(), i, dep.board, &dep.pool, /*seed=*/500 + 13 * d + i,
          kSmallTarget));
    }
    for (int i = 0; i < num_clients; ++i) {
      auto driver = dep.drivers[i];
      dep.cluster->RunOnClient(i, [driver]() { driver->Next(); });
    }
  }

  for (int d = 0; d < 2; ++d) {
    Deployment& dep = deployments[d];
    const int num_clients = static_cast<int>(dep.cluster->num_clients());
    PollUntil(
        [&] { return dep.board->done_clients.load() >= num_clients; },
        std::chrono::seconds(120));
    EXPECT_EQ(dep.board->done_clients.load(), num_clients)
        << "cluster " << d << " stalled: committed="
        << dep.board->committed.load();
    EXPECT_GE(dep.board->committed.load(), kSmallTarget);
  }
  for (int d = 0; d < 2; ++d) deployments[d].cluster->Stop();
}

}  // namespace
}  // namespace carousel::test
