// Real-time chaos on the threaded backend: every fault class the RtNemesis
// can inject (SIGKILL-style node kill + WAL restart, DC partition,
// per-link delay/drop, coordinator crash) is driven against a live
// cluster and certified with the serializability checker. Each class
// test asserts its faults actually *fired* — a schedule that never killed
// anything is not evidence. Seeds fix only the schedule; interleavings
// are real, so these tests must hold for any execution.

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
#include "check/chaos_rt.h"
#include "check/history.h"
#include "check/serializability.h"
#include "common/rng.h"
#include "common/topology.h"
#include "harness/rt_cluster.h"
#include "test_util.h"

namespace carousel::test {
namespace {

std::string FreshStorageRoot(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "carousel-rt-chaos-" + tag +
                          "-" + std::to_string(::getpid());
  (void)::system(("rm -rf " + dir).c_str());
  return dir;
}

check::RtChaosResult RunSeed(uint64_t seed, const std::string& tag,
                             bool use_tcp = false) {
  check::RtChaosConfig config;
  config.seed = seed;
  config.txns = 150;
  config.use_tcp = use_tcp;
  config.storage_root = FreshStorageRoot(tag);
  return check::RunRtChaosSeed(config);
}

// Schedule classes are keyed by seed % 4 (see chaos_rt.cc): 0 = kill-heavy,
// 1 = partition-heavy, 2 = partition + server kill (the
// coordinator-crash-during-CPC window), 3 = link delay/drop.

TEST(RtChaosTest, KillRestartScheduleFiresAndCertifies) {
  const check::RtChaosResult result = RunSeed(4, "kill");
  ASSERT_FALSE(result.start_failed);
  EXPECT_GE(result.kills_fired, 1u) << result.nemesis_schedule;
  EXPECT_GE(result.restarts_fired, 1u) << result.nemesis_schedule;
  // A restart that read nothing back did not exercise recovery.
  EXPECT_GT(result.recovered_log_entries, 0u);
  EXPECT_TRUE(result.ok()) << result.Report();
}

TEST(RtChaosTest, PartitionScheduleFiresAndCertifies) {
  const check::RtChaosResult result = RunSeed(5, "partition");
  ASSERT_FALSE(result.start_failed);
  EXPECT_GE(result.partitions_fired, 1u) << result.nemesis_schedule;
  // The cut must have actually blocked traffic.
  EXPECT_GT(result.fault_dropped_messages, 0u);
  EXPECT_TRUE(result.ok()) << result.Report();
}

TEST(RtChaosTest, CoordinatorCrashComboFiresAndCertifies) {
  const check::RtChaosResult result = RunSeed(6, "combo");
  ASSERT_FALSE(result.start_failed);
  EXPECT_GE(result.kills_fired, 1u) << result.nemesis_schedule;
  EXPECT_GE(result.partitions_fired, 1u) << result.nemesis_schedule;
  EXPECT_GE(result.restarts_fired, 1u) << result.nemesis_schedule;
  EXPECT_TRUE(result.ok()) << result.Report();
}

TEST(RtChaosTest, LinkFaultScheduleFiresAndCertifies) {
  const check::RtChaosResult result = RunSeed(7, "link");
  ASSERT_FALSE(result.start_failed);
  EXPECT_GE(result.link_faults_fired, 1u) << result.nemesis_schedule;
  EXPECT_TRUE(result.ok()) << result.Report();
}

// ---------------------------------------------------------------------------
// Directed durable-restart test, independent of schedule sampling: commit
// real transactions, SIGKILL a replica, restart it from its WAL, commit
// more, and require (a) the restart recovered journaled state, (b) the
// rejoined replica's write order stays a prefix of its peers', (c) the
// whole history serializes.

struct LoopDriver : std::enable_shared_from_this<LoopDriver> {
  LoopDriver(harness::RtCluster* cluster, std::vector<Key> keys, uint64_t seed,
             std::atomic<int>* committed, std::atomic<bool>* stop,
             std::atomic<bool>* done)
      : cluster(cluster),
        keys(std::move(keys)),
        rng(seed),
        committed(committed),
        stop(stop),
        done(done) {}

  harness::RtCluster* cluster;
  std::vector<Key> keys;
  Rng rng;
  std::atomic<int>* committed;
  std::atomic<bool>* stop;
  std::atomic<bool>* done;
  uint64_t seq = 0;

  void Next() {
    if (stop->load()) {
      done->store(true);
      return;
    }
    core::CarouselClient* client = cluster->client(0);
    const Key read = Pick();
    const Key write = Pick();
    const Value value = "restart-" + std::to_string(seq++);
    const TxnId tid = client->Begin();
    auto self = shared_from_this();
    client->ReadAndPrepare(
        tid, {read}, {write},
        [self, client, tid, write, value](
            Status status, const core::CarouselClient::ReadResults&) {
          if (!status.ok()) {
            self->Next();
            return;
          }
          client->Write(tid, write, value);
          client->Commit(tid, [self](Status commit_status) {
            if (commit_status.ok()) self->committed->fetch_add(1);
            self->Next();
          });
        });
  }

 private:
  Key Pick() {
    return keys[rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1)];
  }
};

bool WaitForCommits(const std::atomic<int>& committed, int target,
                    int timeout_s) {
  return PollUntil([&] { return committed.load() >= target; },
                   std::chrono::seconds(timeout_s));
}

bool IsPrefix(const std::vector<TxnId>& prefix, const std::vector<TxnId>& of) {
  if (prefix.size() > of.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (!(prefix[i] == of[i])) return false;
  }
  return true;
}

TEST(RtChaosTest, KilledReplicaRecoversFromWalAndRejoins) {
  Topology topo = Topology::Uniform(/*num_dcs=*/3, /*inter_dc_rtt_ms=*/1);
  topo.PlacePartitions(/*partitions=*/1, /*replication_factor=*/3);
  topo.AddClient(/*dc=*/0);

  harness::RtClusterOptions rt_options;
  rt_options.seed = 11;
  rt_options.storage_dir = FreshStorageRoot("directed");
  harness::RtCluster cluster(std::move(topo), FastCpcOptions(), rt_options);

  check::HistoryRecorder history;
  cluster.AttachHistory(&history);
  ASSERT_TRUE(cluster.Start(/*timeout_ms=*/20000));

  std::atomic<int> committed{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  auto driver = std::make_shared<LoopDriver>(
      &cluster, std::vector<Key>{"wa", "wb", "wc", "wd"}, /*seed=*/5,
      &committed, &stop, &done);
  cluster.RunOnClient(0, [driver]() { driver->Next(); });

  // Phase 1: a real log builds up. (Timeouts are generous for TSan.)
  ASSERT_TRUE(WaitForCommits(committed, 40, 120));

  // SIGKILL a follower mid-load: its volatile state (queues, in-memory
  // pending list, applied KV) dies with the server object.
  const std::vector<NodeId>& replicas = cluster.topology().Replicas(0);
  NodeId victim = kInvalidNode;
  for (NodeId id : replicas) {
    if (cluster.topology().node(id).replica_index == 1) victim = id;
  }
  ASSERT_NE(victim, kInvalidNode);
  ASSERT_TRUE(cluster.KillServer(victim));
  EXPECT_FALSE(cluster.server_alive(victim));
  EXPECT_FALSE(cluster.KillServer(victim));  // Already dead.

  // Phase 2: the two surviving replicas keep committing (quorum holds).
  const int before_restart = committed.load();
  ASSERT_TRUE(WaitForCommits(committed, before_restart + 40, 120));

  // Restart from the WAL and let it rejoin.
  ASSERT_TRUE(cluster.RestartServer(victim));
  EXPECT_FALSE(cluster.RestartServer(victim));  // Already alive.
  EXPECT_TRUE(cluster.server_alive(victim));
  EXPECT_EQ(cluster.restarts(), 1u);
  EXPECT_GT(cluster.recovered_log_entries(), 0u);
  ASSERT_TRUE(cluster.WaitUntilServing(/*timeout_ms=*/20000));

  // Phase 3: commits continue after the rejoin.
  const int after_restart = committed.load();
  ASSERT_TRUE(WaitForCommits(committed, after_restart + 20, 120));

  stop.store(true);
  ASSERT_TRUE(
      PollUntil([&] { return done.load(); }, std::chrono::seconds(120)));
  // Settle: in-flight writebacks land on every replica.
  ASSERT_TRUE(WaitUntilSettled(cluster, std::chrono::seconds(60)));
  cluster.Stop();

  // The restarted server really went through WAL recovery.
  core::CarouselServer* restarted = cluster.server(victim);
  ASSERT_NE(restarted, nullptr);
  EXPECT_TRUE(restarted->raft()->recovered());

  // Decision agreement across the restart: every replica's write order —
  // including the rejoined one's — is a prefix of the longest chain.
  check::WriterChains chains;
  std::map<Key, std::vector<const std::vector<TxnId>*>> per_key;
  for (NodeId id : replicas) {
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
          << "replicas disagree on the write order of '" << key
          << "' across the restart";
    }
    chains[key] = *longest;
  }

  const check::CheckResult result =
      check::CheckSerializability(history, chains);
  EXPECT_TRUE(result.ok())
      << result.violations.size() << " violations; first: "
      << (result.violations.empty() ? ""
                                    : result.violations.front().description);
  EXPECT_GE(result.committed, 100);
}

// Probes serving() on each live server's own loop thread and returns how
// many report it.
size_t ServingOnOwnLoops(harness::RtCluster& cluster) {
  std::vector<core::CarouselServer*> servers;
  for (const NodeInfo& info : cluster.topology().nodes()) {
    if (!info.is_client && cluster.server_alive(info.id)) {
      servers.push_back(cluster.server(info.id));
    }
  }
  auto done = std::make_shared<std::atomic<size_t>>(0);
  auto serving = std::make_shared<std::atomic<size_t>>(0);
  for (core::CarouselServer* s : servers) {
    cluster.RunOnServer(s->id(), [s, done, serving]() {
      if (s->serving()) serving->fetch_add(1);
      done->fetch_add(1);
    });
  }
  EXPECT_TRUE(PollUntil([&] { return done->load() == servers.size(); },
                        std::chrono::seconds(30)));
  return serving->load();
}

TEST(RtChaosTest, EveryServerServesOnItsLoopOnceStartOrRestartIsReady) {
  Topology topo = Topology::Uniform(/*num_dcs=*/3, /*inter_dc_rtt_ms=*/1);
  topo.PlacePartitions(/*partitions=*/2, /*replication_factor=*/3);
  topo.AddClient(/*dc=*/0);
  harness::RtClusterOptions rt_options;
  rt_options.seed = 3;
  rt_options.storage_dir = FreshStorageRoot("ready");
  harness::RtCluster cluster(std::move(topo), FastCpcOptions(), rt_options);
  const size_t num_servers = cluster.topology().nodes().size() - 1;

  // Start returns on the last serving-gate notification, not after a
  // polling interval; at that point every gate is open on its own loop.
  ASSERT_TRUE(cluster.Start(/*timeout_ms=*/20000));
  EXPECT_EQ(ServingOnOwnLoops(cluster), num_servers);

  // The same after a kill and a WAL restart: the restart is a readiness
  // event, so the wait re-probes the rebuilt server instead of sleeping.
  NodeId victim = kInvalidNode;
  for (NodeId id : cluster.topology().Replicas(1)) {
    if (cluster.topology().node(id).replica_index == 1) victim = id;
  }
  ASSERT_TRUE(cluster.KillServer(victim));
  ASSERT_TRUE(cluster.RestartServer(victim));
  ASSERT_TRUE(cluster.WaitUntilServing(/*timeout_ms=*/20000));
  EXPECT_EQ(ServingOnOwnLoops(cluster), num_servers);
  cluster.Stop();
}

// A WAL restart of replica 0 — the bootstrap leader — comes back through
// recovery as a follower, never through bootstrap: Start() persisted term
// 1 before any server reported serving, so the rebuilt node finds durable
// state and ignores bootstrap_as_leader. Its group moves on under a leader
// of a later term.
TEST(RtChaosTest, RestartedReplicaZeroRejoinsAsFollowerNotBootstrapLeader) {
  Topology topo = Topology::Uniform(/*num_dcs=*/3, /*inter_dc_rtt_ms=*/1);
  topo.PlacePartitions(/*partitions=*/1, /*replication_factor=*/3);
  topo.AddClient(/*dc=*/0);
  harness::RtClusterOptions rt_options;
  rt_options.seed = 13;
  rt_options.storage_dir = FreshStorageRoot("replica0");
  harness::RtCluster cluster(std::move(topo), FastRaftOptions(), rt_options);
  ASSERT_TRUE(cluster.Start(/*timeout_ms=*/20000));

  const NodeId replica0 = cluster.topology().InitialLeader(0);
  ASSERT_TRUE(cluster.KillServer(replica0));
  ASSERT_TRUE(cluster.RestartServer(replica0));
  // The probe queues behind Start on the rebuilt node's loop, long before
  // any election timer could fire.
  struct Probe {
    std::atomic<bool> answered{false};
    std::atomic<bool> recovered{false};
    std::atomic<bool> leader{false};
    std::atomic<uint64_t> elections_won{0};
  };
  auto probe = std::make_shared<Probe>();
  core::CarouselServer* restarted = cluster.server(replica0);
  cluster.RunOnServer(replica0, [restarted, probe]() {
    probe->recovered.store(restarted->raft()->recovered());
    probe->leader.store(restarted->raft()->is_leader());
    probe->elections_won.store(restarted->raft()->elections_won());
    probe->answered.store(true);
  });
  ASSERT_TRUE(PollUntil([&] { return probe->answered.load(); },
                        std::chrono::seconds(30)));
  EXPECT_TRUE(probe->recovered.load());
  EXPECT_FALSE(probe->leader.load());
  EXPECT_EQ(probe->elections_won.load(), 0u);

  // The group commits again, under a leader elected in term >= 2.
  std::atomic<int> committed{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  auto driver = std::make_shared<LoopDriver>(
      &cluster, std::vector<Key>{"za", "zb"}, /*seed=*/7, &committed, &stop,
      &done);
  cluster.RunOnClient(0, [driver]() { driver->Next(); });
  ASSERT_TRUE(WaitForCommits(committed, 5, 120));
  stop.store(true);
  ASSERT_TRUE(
      PollUntil([&] { return done.load(); }, std::chrono::seconds(120)));
  cluster.Stop();
  int leaders = 0;
  for (NodeId id : cluster.topology().Replicas(0)) {
    const raft::RaftNode* raft = cluster.server(id)->raft();
    if (!raft->is_leader()) continue;
    leaders++;
    EXPECT_GE(raft->term(), 2u);
  }
  EXPECT_EQ(leaders, 1);
}

TEST(RtChaosTest, KillRequiresConfiguredStorage) {
  Topology topo = Topology::Uniform(/*num_dcs=*/3, /*inter_dc_rtt_ms=*/1);
  topo.PlacePartitions(/*partitions=*/1, /*replication_factor=*/3);
  topo.AddClient(/*dc=*/0);
  // No storage_dir: a restarted node would re-bootstrap and fork history,
  // so the kill API must refuse outright.
  harness::RtCluster cluster(std::move(topo), FastRaftOptions(), {});
  ASSERT_TRUE(cluster.Start(/*timeout_ms=*/20000));
  const NodeId replica = cluster.topology().Replicas(0).front();
  EXPECT_FALSE(cluster.KillServer(replica));
  EXPECT_TRUE(cluster.server_alive(replica));
  cluster.Stop();
}

}  // namespace
}  // namespace carousel::test
