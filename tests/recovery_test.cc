// Tests for the recovery role (src/carousel/recovery.cc): the CPC
// failure-handling protocol (§4.3.3), the serving gate, and coordinator
// failover reconciliation — a new coordinator-group leader must reach a
// decision consistent with everything already externalized.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/explore.h"
#include "check/history.h"
#include "check/serializability.h"
#include "common/rng.h"
#include "harness/cluster.h"
#include "test_util.h"

namespace carousel::test {
namespace {

using core::CarouselOptions;
using core::Cluster;

/// Cluster::Start without its settle: sim time stays at 0 and every
/// bootstrap leader's term-1 no-op is still in flight.
void StartServersWithoutSettling(Cluster& cluster) {
  for (const NodeInfo& info : cluster.topology().nodes()) {
    if (!info.is_client) cluster.server(info.id)->Start();
  }
}

uint64_t LeadershipRecoveries(Cluster& cluster, NodeId id) {
  return cluster.metrics()
      .GetCounter("server." + std::to_string(id) +
                  ".recovery.leadership_recoveries")
      .value();
}

/// Bootstrap leadership is not a failover: replica 0 of a fresh group
/// serves from sim time 0, while its term-1 no-op is still in flight, and
/// never runs CPC recovery.
TEST(RecoveryTest, BootstrapLeaderServesAtOnceWithoutRecovery) {
  CarouselOptions options = FastCpcOptions();
  options.metrics.enabled = true;
  Cluster cluster(SmallTopology(), options, sim::NetworkOptions{},
                  /*seed=*/75);
  StartServersWithoutSettling(cluster);
  ASSERT_EQ(cluster.sim().now(), 0);
  for (PartitionId p = 0; p < cluster.topology().num_partitions(); ++p) {
    core::CarouselServer* leader =
        cluster.server(cluster.topology().InitialLeader(p));
    EXPECT_TRUE(leader->raft()->is_leader());
    EXPECT_EQ(leader->raft()->commit_index(), 0u);
  }
  for (const NodeInfo& info : cluster.topology().nodes()) {
    if (info.is_client) continue;
    EXPECT_TRUE(cluster.server(info.id)->serving()) << "node " << info.id;
  }

  cluster.sim().RunFor(kMicrosPerSecond);
  for (const NodeInfo& info : cluster.topology().nodes()) {
    if (info.is_client) continue;
    core::CarouselServer* server = cluster.server(info.id);
    EXPECT_GE(server->raft()->commit_index(), 1u) << "node " << info.id;
    EXPECT_EQ(LeadershipRecoveries(cluster, info.id), 0u)
        << "node " << info.id;
  }
}

/// A leader elected after a failover still runs §4.3.3: its gate closes at
/// election, client requests buffer until its no-op commits and CPC
/// recovery completes, and the recovery is counted.
TEST(RecoveryTest, FailoverLeaderBuffersUntilCpcRecoveryCompletes) {
  CarouselOptions options = FastCpcOptions();
  options.metrics.enabled = true;
  Cluster cluster(SmallTopology(), options, sim::NetworkOptions{},
                  /*seed=*/77);
  cluster.Start();
  const NodeId old_leader = cluster.topology().InitialLeader(1);
  cluster.Crash(old_leader);

  core::CarouselServer* new_leader = nullptr;
  for (int ms = 0; ms < 10'000 && new_leader == nullptr; ++ms) {
    cluster.sim().RunFor(kMicrosPerMilli);
    new_leader = cluster.LeaderOf(1);
  }
  ASSERT_NE(new_leader, nullptr);
  ASSERT_NE(new_leader->id(), old_leader);
  EXPECT_FALSE(new_leader->serving()) << "elected leader serves before §4.3.3";
  EXPECT_EQ(LeadershipRecoveries(cluster, new_leader->id()), 0u);

  // A client in the new leader's DC prepares on partition 1 at once; the
  // prepare reaches the leader well inside the no-op's WAN round trip.
  const DcId dc = cluster.topology().DcOf(new_leader->id());
  int client_index = -1;
  for (int i = 0; i < static_cast<int>(cluster.clients().size()); ++i) {
    if (cluster.topology().DcOf(cluster.client(i)->id()) == dc) {
      client_index = i;
    }
  }
  ASSERT_GE(client_index, 0);
  const Key k = KeyInPartition(cluster, 1, "fo");
  core::CarouselClient* client = cluster.client(client_index);
  const TxnId tid = client->Begin();
  bool read_ok = false;
  client->ReadAndPrepare(
      tid, {k}, {k},
      [&](Status status, const core::CarouselClient::ReadResults&) {
        read_ok = status.ok();
      });
  cluster.sim().RunFor(2 * kMicrosPerMilli);
  EXPECT_FALSE(new_leader->serving());
  EXPECT_GT(new_leader->recovery().buffered_count(), 0u);

  for (int ms = 0; ms < 10'000 && !new_leader->serving(); ++ms) {
    cluster.sim().RunFor(kMicrosPerMilli);
  }
  ASSERT_TRUE(new_leader->serving()) << "serving gate stuck closed";
  EXPECT_EQ(new_leader->recovery().buffered_count(), 0u);
  EXPECT_EQ(LeadershipRecoveries(cluster, new_leader->id()), 1u);

  // The buffered prepare is served once the gate opens.
  cluster.sim().RunFor(5 * kMicrosPerSecond);
  EXPECT_TRUE(read_ok);
}

/// Read-modify-writes `keys` from one client, retrying an aborted attempt
/// after a random backoff of up to 1 s, up to eight attempts.
struct HotKeyWriter : std::enable_shared_from_this<HotKeyWriter> {
  HotKeyWriter(Cluster* cluster, int index, KeyList keys, uint64_t seed)
      : cluster(cluster),
        client(cluster->client(index)),
        keys(std::move(keys)),
        tag("s" + std::to_string(seed) + "c" + std::to_string(index)),
        rng(seed * 31 + static_cast<uint64_t>(index)) {}

  void Issue() {
    if (attempts_left == 0) return;
    attempts_left--;
    const TxnId tid = client->Begin();
    const Value value = tag + "a" + std::to_string(attempts_left);
    auto self = shared_from_this();
    client->ReadAndPrepare(
        tid, keys, keys,
        [self, tid, value](Status status,
                           const core::CarouselClient::ReadResults&) {
          if (!status.ok()) {
            self->Retry();
            return;
          }
          for (const Key& key : self->keys) {
            self->client->Write(tid, key, value);
          }
          self->client->Commit(tid, [self](Status commit_status) {
            if (!commit_status.ok()) self->Retry();
          });
        });
  }

  void Retry() {
    auto self = shared_from_this();
    cluster->sim().ScheduleAt(
        cluster->sim().now() + rng.UniformInt(0, kMicrosPerSecond),
        [self]() { self->Issue(); });
  }

  Cluster* cluster;
  core::CarouselClient* client;
  KeyList keys;
  std::string tag;
  Rng rng;
  int attempts_left = 8;
};

/// Conflicting transactions issued at sim time 0 on a cluster that was not
/// settled — every bootstrap leader serves while its no-op crosses the WAN —
/// stay serializable (DSG-certified) across seeds, with and without the
/// CPC fast path.
TEST(RecoveryTest, UnsettledEc2ClusterSerializesConflictsFromTimeZero) {
  const std::vector<Key> hot = {"hot-a", "hot-b", "hot-c"};
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Topology topo = Topology::PaperEc2();
    topo.PlacePartitions(5, 3);
    for (DcId dc = 0; dc < topo.num_dcs(); ++dc) topo.AddClient(dc);
    CarouselOptions options;
    options.fast_path = seed % 2 == 1;
    options.local_reads = options.fast_path;
    Cluster cluster(std::move(topo), options, sim::NetworkOptions{}, seed);
    check::HistoryRecorder history;
    cluster.AttachHistory(&history);
    StartServersWithoutSettling(cluster);

    // Every client read-modify-writes one or two of three hot keys, all
    // first attempts at t=0.
    Rng rng(seed);
    for (int i = 0; i < static_cast<int>(cluster.clients().size()); ++i) {
      const size_t first = static_cast<size_t>(rng.UniformInt(0, 2));
      KeyList keys = {hot[first]};
      if (rng.Bernoulli(0.5)) keys.push_back(hot[(first + 1) % hot.size()]);
      std::make_shared<HotKeyWriter>(&cluster, i, std::move(keys), seed)
          ->Issue();
    }
    cluster.sim().RunFor(30 * kMicrosPerSecond);

    std::vector<check::Violation> violations;
    const check::WriterChains chains =
        check::ExtractWriterChains(&cluster, &violations);
    const check::CheckResult result =
        check::CheckSerializability(history, chains);
    EXPECT_TRUE(violations.empty()) << "seed " << seed;
    EXPECT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.Report(history);
    EXPECT_GE(result.committed, 1u) << "seed " << seed;
    EXPECT_EQ(result.indeterminate, 0u) << "seed " << seed;
  }
}

/// After a participant-leader crash, every alive node eventually serves
/// again: the new leader finishes §4.3.3 and opens its gate; the restarted
/// node rejoins as a follower and serves immediately (OnHostRecover).
TEST(RecoveryTest, ServingGateReopensAfterFailover) {
  auto cluster = MakeSmallCluster(FastCpcOptions(), /*seed=*/71);
  const Key k = KeyInPartition(*cluster, 1, "sg");
  const NodeId old_leader = cluster->topology().InitialLeader(1);

  // Leave a fast-path prepare in flight so recovery has work to do.
  core::CarouselClient* client = cluster->client(0);
  const TxnId tid = client->Begin();
  client->ReadAndPrepare(
      tid, {k}, {k},
      [](Status, const core::CarouselClient::ReadResults&) {});
  cluster->sim().RunFor(45 * kMicrosPerMilli);
  cluster->Crash(old_leader);
  cluster->sim().RunFor(5 * kMicrosPerSecond);

  core::CarouselServer* new_leader = cluster->LeaderOf(1);
  ASSERT_NE(new_leader, nullptr);
  EXPECT_NE(new_leader->id(), old_leader);
  EXPECT_TRUE(new_leader->serving()) << "serving gate stuck closed";

  cluster->Recover(old_leader);
  cluster->sim().RunFor(5 * kMicrosPerSecond);
  for (NodeId replica : cluster->topology().Replicas(1)) {
    EXPECT_TRUE(cluster->server(replica)->serving()) << "node " << replica;
  }

  // The partition still takes transactions (a fresh key — the abandoned
  // transaction's client is alive and heartbeating, so k stays pinned).
  const Key k2 = KeyInPartition(*cluster, 1, "sg2-");
  TxnOutcome out = RunTxn(*cluster, 1, {k2}, {{k2, "after"}});
  ASSERT_TRUE(out.commit_done);
  EXPECT_TRUE(out.commit_status.ok()) << out.commit_status;

  // And once the abandoned transaction aborts, k frees up too.
  client->Abort(tid);
  cluster->sim().RunFor(5 * kMicrosPerSecond);
  TxnOutcome freed = RunTxn(*cluster, 1, {k}, {{k, "after"}});
  ASSERT_TRUE(freed.commit_done);
  EXPECT_TRUE(freed.commit_status.ok()) << freed.commit_status;
}

/// Coordinator failover with a dead client: the original leader's
/// heartbeat abort (§4.3.1) must reconcile with the new leader — no
/// replica may apply the write, no pending entry may survive.
TEST(RecoveryTest, CoordinatorFailoverReconcilesHeartbeatAbort) {
  auto cluster = MakeSmallCluster(FastCpcOptions(), /*seed=*/73);
  const Key k = KeyInPartition(*cluster, 1, "hba");
  core::CarouselClient* client = cluster->client(0);
  const TxnId tid = client->Begin();
  client->ReadAndPrepare(tid, {k}, {k},
                         [&](Status, const core::CarouselClient::ReadResults&) {
                           // The client dies instead of committing.
                           cluster->Crash(client->id());
                         });
  cluster->sim().RunFor(2 * kMicrosPerSecond);

  // Crash the coordinator right around its heartbeat-abort deadline, so
  // the decision may or may not have been externalized; either way the
  // new leader must reach the same verdict.
  cluster->Crash(cluster->topology().InitialLeader(0));
  cluster->sim().RunFor(40 * kMicrosPerSecond);

  EXPECT_EQ(LeaderValue(*cluster, k).version, 0u)
      << "write of a transaction whose client never committed was applied";
  for (NodeId replica : cluster->topology().Replicas(1)) {
    if (!cluster->network().IsAlive(replica)) continue;
    EXPECT_EQ(cluster->server(replica)->pending().size(), 0u)
        << "pending entry leaked on replica " << replica;
  }
}

/// Coordinator failover after the commit was externalized: the client's
/// acknowledged write must survive the crash (decision re-derivation,
/// §4.3.3), including when the crash lands mid-writeback.
TEST(RecoveryTest, CoordinatorFailoverPreservesAcknowledgedCommit) {
  for (const SimTime crash_delay_ms : {0, 5, 50}) {
    auto cluster = MakeSmallCluster(FastCpcOptions(), /*seed=*/79);
    const Key k = KeyInPartition(*cluster, 1, "ack");
    TxnOutcome out = RunTxn(*cluster, 0, {k}, {{k, "must-survive"}});
    ASSERT_TRUE(out.commit_status.ok()) << out.commit_status;

    cluster->sim().RunFor(crash_delay_ms * kMicrosPerMilli);
    cluster->Crash(cluster->topology().InitialLeader(0));
    cluster->sim().RunFor(30 * kMicrosPerSecond);

    EXPECT_EQ(LeaderValue(*cluster, k).value, "must-survive")
        << "acknowledged commit lost (crash_delay=" << crash_delay_ms
        << "ms)";
    for (NodeId replica : cluster->topology().Replicas(1)) {
      if (!cluster->network().IsAlive(replica)) continue;
      EXPECT_EQ(cluster->server(replica)->pending().size(), 0u);
    }
  }
}

/// A voluntarily aborted transaction stays aborted across coordinator
/// failover: the abort releases the pending entries and no later leader
/// may resurrect the write.
TEST(RecoveryTest, CoordinatorFailoverKeepsVoluntaryAbort) {
  auto cluster = MakeSmallCluster(FastCpcOptions(), /*seed=*/83);
  const Key k = KeyInPartition(*cluster, 1, "va");
  core::CarouselClient* client = cluster->client(0);
  const TxnId tid = client->Begin();
  bool aborted = false;
  client->ReadAndPrepare(tid, {k}, {k},
                         [&](Status, const core::CarouselClient::ReadResults&) {
                           client->Abort(tid);
                           aborted = true;
                         });
  cluster->sim().RunFor(2 * kMicrosPerSecond);
  ASSERT_TRUE(aborted);

  cluster->Crash(cluster->topology().InitialLeader(0));
  cluster->sim().RunFor(30 * kMicrosPerSecond);

  EXPECT_EQ(LeaderValue(*cluster, k).version, 0u) << "aborted write applied";
  for (NodeId replica : cluster->topology().Replicas(1)) {
    if (!cluster->network().IsAlive(replica)) continue;
    EXPECT_EQ(cluster->server(replica)->pending().size(), 0u);
  }
  // The key is free for the next transaction.
  TxnOutcome out = RunTxn(*cluster, 1, {k}, {{k, "next"}});
  EXPECT_TRUE(out.commit_status.ok()) << out.commit_status;
}

/// Double failover: the coordinator group loses two leaders in a row
/// around one transaction; the surviving replica still terminates it
/// consistently (f = 1, so the second crash only lands after the first
/// node recovered).
TEST(RecoveryTest, BackToBackCoordinatorFailovers) {
  auto cluster = MakeSmallCluster(FastCpcOptions(), /*seed=*/89);
  const Key k = KeyInPartition(*cluster, 1, "bb");
  TxnOutcome out = RunTxn(*cluster, 0, {k}, {{k, "v1"}});
  ASSERT_TRUE(out.commit_status.ok());

  const NodeId first = cluster->topology().InitialLeader(0);
  cluster->Crash(first);
  cluster->sim().RunFor(5 * kMicrosPerSecond);
  cluster->Recover(first);
  cluster->sim().RunFor(5 * kMicrosPerSecond);
  core::CarouselServer* second = cluster->LeaderOf(0);
  ASSERT_NE(second, nullptr);
  cluster->Crash(second->id());
  cluster->sim().RunFor(10 * kMicrosPerSecond);

  EXPECT_EQ(LeaderValue(*cluster, k).value, "v1");
  TxnOutcome after = RunTxn(*cluster, 1, {k}, {{k, "v2"}});
  ASSERT_TRUE(after.commit_done);
  EXPECT_TRUE(after.commit_status.ok()) << after.commit_status;
  EXPECT_EQ(after.reads.at(k).value, "v1");
}

}  // namespace
}  // namespace carousel::test
