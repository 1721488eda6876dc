#include "check/chaos.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "check/explore.h"
#include "harness/cluster.h"
#include "common/rng.h"
#include "common/topology.h"
#include "sim/nemesis.h"

namespace carousel::check {
namespace {

/// One pre-sampled transaction invocation. Everything stochastic is drawn
/// up front so the rng stream does not depend on runtime interleavings.
struct PlannedTxn {
  SimTime at = 0;
  int client = 0;
  KeyList read_keys;
  WriteSet writes;  // key -> unique value
  bool voluntary_abort = false;
};

std::string KeyName(int i) { return "key" + std::to_string(i); }

/// Issues one planned transaction on its client, mirroring how an
/// application drives the 2FI API (read round -> buffered writes ->
/// commit), with an occasional voluntary abort after the read round.
void IssueTxn(core::Cluster* cluster, const PlannedTxn& plan) {
  core::CarouselClient* client = cluster->client(plan.client);
  if (!client->alive()) return;  // A crashed app server issues nothing.
  const TxnId tid = client->Begin();
  KeyList write_keys;
  for (const auto& [k, v] : plan.writes) write_keys.push_back(k);
  const WriteSet writes = plan.writes;
  const bool abort = plan.voluntary_abort;
  client->ReadAndPrepare(
      tid, plan.read_keys, write_keys,
      [client, tid, writes, abort](
          Status status, const core::CarouselClient::ReadResults&) {
        if (writes.empty() || !status.ok()) return;  // Done / already dead.
        if (abort) {
          client->Abort(tid);
          return;
        }
        for (const auto& [k, v] : writes) client->Write(tid, k, v);
        client->Commit(tid, [](Status) {});
      });
}

}  // namespace

ChaosResult RunChaosSeed(const ChaosConfig& config) {
  ChaosResult result;
  result.seed = config.seed;
  Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 0xc0ffee);

  // ---- Sample the deployment ----
  const int dc_choices[] = {2, 3, 3, 3, 5};
  const int num_dcs = dc_choices[rng.UniformInt(0, 4)];
  const int replication =
      (num_dcs == 5 && rng.Bernoulli(0.4)) ? 5 : 3;
  const int partitions = static_cast<int>(rng.UniformInt(2, 4));
  const int clients_per_dc = static_cast<int>(rng.UniformInt(1, 2));
  const double rtt_ms = static_cast<double>(rng.UniformInt(5, 60));
  Topology topo = Topology::Uniform(num_dcs, rtt_ms);
  topo.PlacePartitions(partitions, replication);
  for (DcId dc = 0; dc < num_dcs; ++dc) {
    for (int i = 0; i < clients_per_dc; ++i) topo.AddClient(dc);
  }

  core::CarouselOptions options;
  options.fast_path = rng.Bernoulli(0.75);
  options.local_reads = options.fast_path && rng.Bernoulli(0.6);
  options.closest_reads = options.local_reads && rng.Bernoulli(0.3);
  options.raft.election_timeout_min = 300'000;
  options.raft.election_timeout_max = 600'000;
  options.raft.heartbeat_interval = 60'000;
  options.heartbeat_interval = 200'000;
  options.client_retry_timeout = 1'500'000;
  options.coordinator_retry_interval = 1'500'000;
  options.pending_gc_interval = 5'000'000;
  options.bug_fast_path_skip_leader_check = config.inject_bug_fast_path;
  options.bug_skip_stale_read_check = config.inject_bug_stale_read;
  options.batching.enabled = config.batching;
  options.batching.coalesce_deliveries = config.batching;
  // Observability rides along on every chaos run: the delivery observer
  // runs in zero sim time, so results are bit-identical with it on, and
  // failing seeds get a metrics snapshot in their artifacts.
  options.metrics.enabled = true;

  sim::NetworkOptions net;
  net.loss_fraction =
      rng.Bernoulli(0.5) ? 0.0 : 0.01 * rng.UniformInt(1, 3);

  const int key_space = static_cast<int>(rng.UniformInt(6, 16));
  {
    std::ostringstream setup;
    setup << "dcs=" << num_dcs << " partitions=" << partitions
          << " replication=" << replication
          << " clients=" << clients_per_dc * num_dcs << " rtt=" << rtt_ms
          << "ms loss=" << net.loss_fraction << " keys=" << key_space
          << " fast_path=" << options.fast_path
          << " local_reads=" << options.local_reads
          << " closest_reads=" << options.closest_reads;
    if (config.batching) setup << " batching=1";
    if (config.inject_bug_fast_path) setup << " BUG=fast-path-quorum";
    if (config.inject_bug_stale_read) setup << " BUG=skip-stale-read";
    result.setup = setup.str();
  }

  core::Cluster cluster(std::move(topo), options, net, config.seed);
  HistoryRecorder* history = &result.history;
  cluster.AttachHistory(history);
  cluster.Start();

  const int num_clients = static_cast<int>(cluster.clients().size());
  const SimTime t0 = cluster.sim().now();
  const SimTime window = 20 * kMicrosPerSecond;

  // ---- Sample the workload ----
  std::vector<PlannedTxn> plan(static_cast<size_t>(std::max(config.txns, 1)));
  uint64_t value_counter = 0;
  // Unique written values "s<seed>t<n>", built by appends (GCC 12's
  // -Wrestrict misfires on literal + std::string in Release builds).
  const auto next_value = [&] {
    std::string v = "s";
    v += std::to_string(config.seed);
    v += 't';
    v += std::to_string(value_counter++);
    return v;
  };
  for (PlannedTxn& txn : plan) {
    txn.at = t0 + rng.UniformInt(0, window);
    txn.client = static_cast<int>(rng.UniformInt(0, num_clients - 1));
    // Distinct keys for this transaction.
    std::vector<int> keys;
    const int nkeys = static_cast<int>(rng.UniformInt(1, 3));
    while (static_cast<int>(keys.size()) < nkeys) {
      const int k = static_cast<int>(rng.UniformInt(0, key_space - 1));
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
      }
    }
    const double shape = rng.NextDouble();
    if (shape < 0.15) {
      // Read-only.
      for (int k : keys) txn.read_keys.push_back(KeyName(k));
    } else if (shape < 0.30) {
      // Blind writes.
      for (int k : keys) {
        txn.writes[KeyName(k)] = next_value();
      }
    } else {
      // Read-modify-write: read all, write a non-empty subset.
      for (int k : keys) txn.read_keys.push_back(KeyName(k));
      const size_t nwrites = 1 + rng.UniformInt(0, nkeys - 1);
      for (size_t i = 0; i < nwrites; ++i) {
        txn.writes[KeyName(keys[i])] = next_value();
      }
      txn.voluntary_abort = rng.Bernoulli(0.04);
    }
  }
  for (const PlannedTxn& txn : plan) {
    cluster.sim().ScheduleAt(txn.at,
                             [&cluster, txn] { IssueTxn(&cluster, txn); });
  }
  result.txns_invoked = plan.size();

  // ---- Sample the nemesis schedule ----
  sim::Nemesis nemesis(&cluster.network());
  struct Episode {
    PartitionId partition;
    SimTime start, end;
  };
  std::vector<Episode> episodes;
  const int crash_episodes = static_cast<int>(rng.UniformInt(0, 4));
  const int f = (replication - 1) / 2;
  for (int i = 0; i < crash_episodes; ++i) {
    const PartitionId p = static_cast<PartitionId>(
        rng.UniformInt(0, partitions - 1));
    const SimTime start = t0 + rng.UniformInt(kMicrosPerSecond, window);
    const SimTime dur = rng.UniformInt(500 * kMicrosPerMilli,
                                       8 * kMicrosPerSecond);
    // Mostly stay within the f-failure budget per group so the run keeps
    // making progress; occasionally exceed it (safety must still hold).
    int overlapping = 0;
    for (const Episode& e : episodes) {
      if (e.partition == p && e.start < start + dur && start < e.end) {
        overlapping++;
      }
    }
    if (overlapping >= f && !rng.Bernoulli(0.2)) continue;
    const auto& replicas = cluster.topology().Replicas(p);
    const NodeId node =
        replicas[rng.UniformInt(0, static_cast<int>(replicas.size()) - 1)];
    nemesis.CrashAt(start, node);
    nemesis.RecoverAt(start + dur, node);
    episodes.push_back(Episode{p, start, start + dur});
  }
  if (rng.Bernoulli(0.3) && num_clients > 0) {
    // Crash an app server mid-run: its in-flight transactions go
    // indeterminate and the coordinator heartbeat-abort path must clean up.
    const NodeId node = cluster.topology().clients()[rng.UniformInt(
        0, num_clients - 1)];
    const SimTime start = t0 + rng.UniformInt(kMicrosPerSecond, window);
    nemesis.CrashAt(start, node);
    nemesis.RecoverAt(start + rng.UniformInt(2, 10) * kMicrosPerSecond, node);
  }
  const int net_partitions = static_cast<int>(rng.UniformInt(0, 2));
  for (int i = 0; i < net_partitions && num_dcs >= 2; ++i) {
    const DcId a = static_cast<DcId>(rng.UniformInt(0, num_dcs - 1));
    DcId b = static_cast<DcId>(rng.UniformInt(0, num_dcs - 2));
    if (b >= a) b++;
    std::vector<NodeId> side_a, side_b;
    for (const NodeInfo& info : cluster.topology().nodes()) {
      if (info.dc == a) side_a.push_back(info.id);
      if (info.dc == b) side_b.push_back(info.id);
    }
    const SimTime start = t0 + rng.UniformInt(kMicrosPerSecond, window);
    const SimTime dur =
        rng.UniformInt(kMicrosPerSecond, 6 * kMicrosPerSecond);
    // The heal can land mid-2PC of any transaction started during the cut.
    nemesis.PartitionAt(start, side_a, side_b);
    nemesis.HealPartitionAt(start + dur, side_a, side_b);
  }
  nemesis.HealAllAt(t0 + window + 2 * kMicrosPerSecond);
  result.nemesis_schedule = nemesis.Describe();

  // ---- Run: workload + faults, then quiesce ----
  cluster.sim().RunUntil(t0 + window + 40 * kMicrosPerSecond);
  result.faults_injected = nemesis.faults_injected();

  // Make sure every group has a leader again before extracting state.
  for (int round = 0; round < 100; ++round) {
    bool all = true;
    for (PartitionId p = 0; p < partitions; ++p) {
      if (cluster.LeaderOf(p) == nullptr) all = false;
    }
    if (all) break;
    cluster.sim().RunFor(500 * kMicrosPerMilli);
  }

  // ---- Extract ground truth and cross-check replicas ----
  result.chains = ExtractWriterChains(&cluster, &result.check.violations);

  // ---- Certify ----
  CheckResult check = CheckSerializability(result.history, result.chains);
  for (Violation& v : check.violations) {
    result.check.violations.push_back(std::move(v));
  }
  result.check.committed = check.committed;
  result.check.aborted = check.aborted;
  result.check.indeterminate = check.indeterminate;
  result.check.edges = check.edges;
  result.wanrt = cluster.wanrt().stats();
  result.metrics_json = cluster.MetricsJson(2);
  return result;
}

std::string ChaosResult::Summary() const {
  std::ostringstream out;
  out << "seed " << seed << ": " << (ok() ? "OK" : "FAIL") << " ("
      << check.committed << " committed, " << check.aborted << " aborted, "
      << check.indeterminate << " indeterminate, " << faults_injected
      << " faults, " << check.edges << " edges, " << wanrt.fast_path_txns
      << " fast / " << wanrt.slow_path_txns << " slow / "
      << wanrt.degraded_txns << " degraded";
  if (!ok()) out << ", " << check.violations.size() << " VIOLATIONS";
  out << ")";
  return out.str();
}

std::string ChaosResult::Report() const {
  std::ostringstream out;
  out << "==== chaos seed " << seed << " ====\n"
      << "setup: " << setup << "\n"
      << "nemesis schedule:\n"
      << nemesis_schedule << Summary() << "\n"
      << check.Report(history);
  return out.str();
}

}  // namespace carousel::check
