#include "harness/rt_cluster.h"

#include <chrono>
#include <utility>

#include "wire/wire.h"

namespace carousel::harness {

RtCluster::RtCluster(Topology topology, core::CarouselOptions options,
                     RtClusterOptions rt_options)
    : topology_(std::move(topology)),
      options_(options),
      rt_options_(std::move(rt_options)),
      metrics_(/*enabled=*/false),
      rng_(rt_options_.seed) {
  directory_ = std::make_unique<core::Directory>(&topology_);

  runtime::ThreadedRuntimeOptions rt_opts;
  rt_opts.max_inbound_queue = rt_options_.max_inbound_queue;
  rt_opts.use_tcp = rt_options_.use_tcp;
  if (rt_options_.use_tcp) rt_opts.codec = wire::Codec();
  rt_ = std::make_unique<runtime::ThreadedRuntime>(topology_.nodes().size(),
                                                   std::move(rt_opts));

  ClientId next_client_id = 0;
  for (const NodeInfo& info : topology_.nodes()) {
    if (info.is_client) {
      auto client = std::make_unique<core::CarouselClient>(
          info.id, info.dc, next_client_id++, directory_.get(), options_);
      rt_->Register(client.get());
      client_ptrs_.push_back(client.get());
      clients_.push_back(std::move(client));
    } else {
      runtime::WalStorage* storage = nullptr;
      if (!rt_options_.storage_dir.empty()) {
        runtime::WalStorageOptions wal_opts;
        wal_opts.fsync = rt_options_.wal_fsync;
        auto owned = std::make_unique<runtime::WalStorage>(
            StorageDirFor(info.id), wire::Codec(), wal_opts);
        storage = owned.get();
        storage_.emplace(info.id, std::move(owned));
      }
      auto server = std::make_unique<core::CarouselServer>(
          info, directory_.get(), rt_->MakeEnv(info.id, rng_.Fork(), storage),
          options_, /*traces=*/nullptr, &metrics_);
      rt_->Register(server.get());
      server->set_on_serving([this]() { NotifyReadiness(); });
      servers_.emplace(info.id, std::move(server));
    }
  }
}

RtCluster::~RtCluster() { Stop(); }

bool RtCluster::Start(int timeout_ms) {
  if (!rt_->Start()) return false;
  started_ = true;
  for (auto& [id, server] : servers_) {
    core::CarouselServer* s = server.get();
    // Start (Raft bootstrap, timers) must run on the server's own loop.
    rt_->loop(id)->Post([s]() { s->Start(); });
  }
  return WaitUntilServing(timeout_ms);
}

void RtCluster::Stop() { rt_->Stop(); }

void RtCluster::RunOnClient(int index, runtime::EventFn fn) {
  rt_->loop(client_ptrs_.at(index)->id())->Post(std::move(fn));
}

void RtCluster::RunOnServer(NodeId id, runtime::EventFn fn) {
  rt_->loop(id)->Post(std::move(fn));
}

void RtCluster::AttachHistory(check::HistoryRecorder* history) {
  history_ = history;
  for (core::CarouselClient* client : client_ptrs_) {
    client->set_history(history);
  }
  for (auto& [id, server] : servers_) {
    server->set_history(history);
    if (history != nullptr) server->mutable_store().EnableWriterLog();
  }
}

std::string RtCluster::StorageDirFor(NodeId id) const {
  return rt_options_.storage_dir + "/node-" + std::to_string(id);
}

bool RtCluster::KillServer(NodeId id) {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (rt_options_.storage_dir.empty()) return false;
  auto it = servers_.find(id);
  if (it == servers_.end() || dead_.count(id) > 0) return false;
  // Joining the loop thread is the kill: whatever the node was doing at
  // this instant simply never finishes, and only what reached the WAL
  // before this moment survives. TCP sockets stay open — frames arriving
  // for the dead node drain into the drop counter, and the listener keeps
  // its port for the restart.
  rt_->StopNode(id);
  servers_.erase(it);      // Volatile state dies with the object.
  storage_.erase(id);      // Closes the WAL fd; files stay for recovery.
  dead_.insert(id);
  return true;
}

bool RtCluster::RestartServer(NodeId id) {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (dead_.count(id) == 0) return false;
  runtime::WalStorageOptions wal_opts;
  wal_opts.fsync = rt_options_.wal_fsync;
  auto storage = std::make_unique<runtime::WalStorage>(
      StorageDirFor(id), wire::Codec(), wal_opts);
  recovered_log_entries_ += storage->state().log.size();
  recovered_pending_ += storage->state().pending.size();

  const NodeInfo& info = topology_.node(id);
  auto server = std::make_unique<core::CarouselServer>(
      info, directory_.get(), rt_->MakeEnv(id, rng_.Fork(), storage.get()),
      options_, /*traces=*/nullptr, &metrics_);
  if (history_ != nullptr) {
    server->set_history(history_);
    server->mutable_store().EnableWriterLog();
  }
  server->set_on_serving([this]() { NotifyReadiness(); });
  core::CarouselServer* s = server.get();
  rt_->RestartNode(s);  // Relaunches the loop bound to the new object.
  rt_->loop(id)->Post([s]() { s->Start(); });  // Recovers, then serves.
  storage_[id] = std::move(storage);
  servers_[id] = std::move(server);
  dead_.erase(id);
  restarts_++;
  return true;
}

bool RtCluster::server_alive(NodeId id) const {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  return servers_.count(id) > 0 && dead_.count(id) == 0;
}

size_t RtCluster::restarts() const {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  return restarts_;
}

size_t RtCluster::recovered_log_entries() const {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  return recovered_log_entries_;
}

size_t RtCluster::recovered_pending() const {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  return recovered_pending_;
}

void RtCluster::NotifyReadiness() {
  std::lock_guard<std::mutex> lk(ready_mu_);
  readiness_events_++;
  ready_cv_.notify_all();
}

bool RtCluster::WaitUntilServing(int timeout_ms) {
  // Probe serving() on each server's own loop thread; the probe state is
  // shared_ptr-owned so a timed-out waiter can leave while late probes
  // still complete. A probe that finds a closed gate needs no retry
  // timer: the gate's opening is itself a readiness event, and the event
  // count is read before the probes go out, so none is missed.
  struct Probe {
    size_t done = 0;
    size_t serving = 0;
  };
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    uint64_t seen;
    {
      std::lock_guard<std::mutex> lk(ready_mu_);
      seen = readiness_events_;
    }
    std::vector<std::pair<NodeId, core::CarouselServer*>> live;
    {
      std::lock_guard<std::mutex> lk(lifecycle_mu_);
      for (auto& [id, server] : servers_) live.emplace_back(id, server.get());
    }
    auto probe = std::make_shared<Probe>();
    for (auto& [id, s] : live) {
      rt_->loop(id)->Post([this, probe, s]() {
        const bool serving = s->serving();
        std::lock_guard<std::mutex> lk(ready_mu_);
        probe->done++;
        if (serving) probe->serving++;
        ready_cv_.notify_all();
      });
    }
    const size_t n = live.size();
    std::unique_lock<std::mutex> lk(ready_mu_);
    const auto changed = [&]() { return readiness_events_ != seen; };
    if (!ready_cv_.wait_until(
            lk, deadline, [&]() { return probe->done == n || changed(); })) {
      return false;
    }
    if (probe->done == n && probe->serving == n) return true;
    if (!ready_cv_.wait_until(lk, deadline, changed)) return false;
  }
}

}  // namespace carousel::harness
