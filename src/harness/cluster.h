#ifndef CAROUSEL_HARNESS_CLUSTER_H_
#define CAROUSEL_HARNESS_CLUSTER_H_

#include <memory>
#include <vector>

#include "carousel/client.h"
#include "carousel/directory.h"
#include "carousel/options.h"
#include "carousel/server.h"
#include "common/topology.h"
#include "common/trace.h"
#include "obs/metrics.h"
#include "obs/wanrt.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace carousel::core {

/// Owns a complete simulated Carousel deployment: the simulator, network,
/// directory, one CarouselServer per partition replica, and one
/// CarouselClient per client slot in the topology. Tests, examples, and
/// benches build deployments exclusively through this class.
class Cluster {
 public:
  /// `topology` must already have partitions placed and clients added.
  Cluster(Topology topology, CarouselOptions options,
          sim::NetworkOptions net_options = {}, uint64_t seed = 1);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts every server (replica 0 of each partition bootstraps as
  /// leader and serves at once), then runs the simulator until every
  /// bootstrap leader has committed its term-1 no-op, so measurements
  /// start from a steady state.
  void Start();

  sim::Simulator& sim() { return sim_; }
  sim::Network& network() { return *network_; }
  const Directory& directory() const { return *directory_; }
  const Topology& topology() const { return topology_; }

  CarouselServer* server(NodeId id) { return servers_.at(id).get(); }
  const std::vector<CarouselClient*>& clients() { return client_ptrs_; }
  CarouselClient* client(int index) { return client_ptrs_.at(index); }

  /// The current leader of a partition (by asking the replicas), or
  /// nullptr during an election.
  CarouselServer* LeaderOf(PartitionId p);

  /// Crashes / recovers a node by id (failure injection passthrough).
  void Crash(NodeId id) { network_->Crash(id); }
  void Recover(NodeId id) { network_->Recover(id); }

  /// The deployment-wide per-transaction phase recorder. Clients open
  /// traces, coordinators and participants stamp protocol phases, and the
  /// benches read the folded stats here.
  TraceCollector& traces() { return traces_; }
  const TraceCollector& traces() const { return traces_; }

  /// Attaches a verification history recorder to every client and server
  /// and enables the per-version writer log on every store. Call before
  /// running a workload; passing null detaches the recorder (the writer
  /// logs stay on).
  void AttachHistory(check::HistoryRecorder* history);

  /// The deployment-wide metrics registry (disabled — null handles — unless
  /// options.metrics.enabled).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// The WANRT accountant; attached to the network as a delivery observer
  /// only when options.metrics.enabled.
  obs::WanrtLedger& wanrt() { return wanrt_; }
  const obs::WanrtLedger& wanrt() const { return wanrt_; }
  /// Combined observability snapshot (registry + WANRT stats) as JSON.
  std::string MetricsJson(int indent = 0) const;

 private:
  Topology topology_;
  sim::Simulator sim_;
  TraceCollector traces_;
  obs::MetricsRegistry metrics_;
  obs::WanrtLedger wanrt_;
  std::unique_ptr<Directory> directory_;
  std::unique_ptr<sim::Network> network_;
  std::unordered_map<NodeId, std::unique_ptr<CarouselServer>> servers_;
  std::vector<std::unique_ptr<CarouselClient>> clients_;
  std::vector<CarouselClient*> client_ptrs_;
};

}  // namespace carousel::core

#endif  // CAROUSEL_HARNESS_CLUSTER_H_
