#include "harness/cluster.h"

namespace carousel::core {

Cluster::Cluster(Topology topology, CarouselOptions options,
                 sim::NetworkOptions net_options, uint64_t seed)
    : topology_(std::move(topology)),
      sim_(seed, net_options.controlled_scheduling),
      metrics_(options.metrics.enabled),
      wanrt_(&topology_, options.metrics.enabled) {
  directory_ = std::make_unique<Directory>(&topology_);
  // The batching config is the single switch benches flip; carry its
  // simulator-level half into the network options here.
  net_options.coalesce_deliveries |= options.batching.coalesce_deliveries;
  network_ = std::make_unique<sim::Network>(&sim_, &topology_, net_options);
  if (options.metrics.enabled) {
    wanrt_.set_retain_all(options.metrics.retain_per_txn);
    network_->set_delivery_observer(&wanrt_);
  }

  ClientId next_client_id = 0;
  for (const NodeInfo& info : topology_.nodes()) {
    if (info.is_client) {
      auto client = std::make_unique<CarouselClient>(
          info.id, info.dc, next_client_id++, directory_.get(), options,
          &traces_);
      client->set_metrics(&metrics_);
      if (options.metrics.enabled) client->set_wanrt(&wanrt_);
      network_->Register(client.get());
      client_ptrs_.push_back(client.get());
      clients_.push_back(std::move(client));
    } else {
      // The RNG fork order (network first, then servers in topology node
      // order) is part of the determinism contract: it must match the
      // pre-seam wiring bit for bit.
      auto server = std::make_unique<CarouselServer>(
          info, directory_.get(),
          runtime::NodeEnv{&sim_, &sim_, sim_.rng()->Fork()}, options,
          &traces_, &metrics_);
      network_->Register(server.get());
      servers_.emplace(info.id, std::move(server));
    }
  }
}

Cluster::~Cluster() = default;

void Cluster::Start() {
  for (auto& [id, server] : servers_) {
    // Timers armed directly from Start (heartbeats, election watchdogs)
    // must carry their owner's label for controlled scheduling.
    sim::Simulator::ScopedNode ctx(&sim_, id);
    server->Start();
  }
  // Settle until every bootstrap leader has committed its initial no-op
  // (log index 1, up to one WAN roundtrip).
  for (int rounds = 0; rounds < 1000; ++rounds) {
    bool settled = true;
    for (auto& [id, server] : servers_) {
      const raft::RaftNode* raft = server->raft();
      if (raft->is_leader() && raft->commit_index() == 0) settled = false;
    }
    if (settled && rounds > 0) break;
    sim_.RunFor(10 * kMicrosPerMilli);
  }
}

void Cluster::AttachHistory(check::HistoryRecorder* history) {
  for (CarouselClient* client : client_ptrs_) client->set_history(history);
  for (auto& [id, server] : servers_) {
    server->set_history(history);
    if (history != nullptr) server->mutable_store().EnableWriterLog();
  }
}

std::string Cluster::MetricsJson(int indent) const {
  std::string out = "{\n";
  out += "\"metrics\": " + metrics_.Snapshot(sim_.now()).ToJson(indent) + ",\n";
  out += "\"wanrt\": " + wanrt_.SnapshotJson(indent) + "\n";
  out += "}";
  return out;
}

CarouselServer* Cluster::LeaderOf(PartitionId p) {
  for (NodeId id : topology_.Replicas(p)) {
    CarouselServer* server = servers_.at(id).get();
    if (server->alive() && server->raft()->is_leader()) return server;
  }
  return nullptr;
}

}  // namespace carousel::core
