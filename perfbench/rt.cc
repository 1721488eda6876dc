// The three workloads on the threaded runtime: real threads, 5 ms one-way
// injected delay between DCs, open-loop arrivals at a fixed rate, and
// either in-process handoff, localhost TCP, or a WAL under every server.
//
// All three are open loop over injected WAN delay because that is what
// stays steady on a small shared VM: closed-loop CPU-saturating and
// fsync-bound shapes moved 2-3x with hypervisor steal and disk contention
// from run to run, while latency dominated by the injected round trips
// and throughput pinned by the offered rate stay within a few percent. CPU
// cost per commit carries the CPU-efficiency signal instead; like the
// latency tail it follows the host's steal phases, so both are reported
// but not among the gated end-to-end metrics.
//
// Untraced runs drive harness::RtCluster unchanged. The traced run builds
// the same nodes from the same public constructors RtCluster uses, with a
// TracedEndpoint registered in place of every server, a TracedStorage
// around every WalStorage, and a traced wire codec, so every layer is
// timed from outside through its public interface.

#include "rt.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <unistd.h>

#include "carousel/client.h"
#include "carousel/directory.h"
#include "carousel/server.h"
#include "check/history.h"
#include "check/serializability.h"
#include "common/rng.h"
#include "common/topology.h"
#include "harness/rt_cluster.h"
#include "obs/metrics.h"
#include "runtime/storage.h"
#include "runtime/threaded.h"
#include "sim/message.h"
#include "trace.h"
#include "wire/wire.h"
#include "workload/workload.h"

namespace perfbench {

using carousel::NodeId;
using carousel::Status;
using carousel::StatusCode;
using carousel::Topology;
using carousel::TxnId;
namespace core = carousel::core;
namespace harness = carousel::harness;
namespace runtime = carousel::runtime;
namespace workload = carousel::workload;

namespace {

constexpr int kDcs = 3;
constexpr int kPartitions = 3;
constexpr int kReplication = 3;
constexpr uint64_t kKeys = 1'000'000;
constexpr double kZipf = 0.75;
constexpr size_t kValueBytes = 64;
constexpr double kWarmupS = 1.0;
/// Length of the per-run serializability verification load.
constexpr double kVerifyS = 1.0;
/// Interval between runtime queue-wait probes posted to each server loop.
constexpr int64_t kProbeIntervalNs = 5'000'000;
/// Segments per untraced run, each on a fresh cluster.
constexpr int kSegments = 5;
/// Further set-ups, each stopped as soon as it serves; setup_s is the
/// median over these and the segments' set-ups.
constexpr int kExtraSetups = 10;
/// Length of the sub-windows a measured window is cut into; end-to-end
/// metrics are medians over the sub-windows of every segment.
constexpr double kSubWindowS = 1.0;

struct RtWorkload {
  bool tcp = false;
  /// A WalStorage under every server (writes only: see LookupWorkload).
  bool wal = false;
  bool ycsbt = false;
  /// Open-loop arrival rate, issued by the main thread. The same for all
  /// three, so each pair differs only in the layer one of them adds.
  double rate_tps = 500;
  /// One-way delay on every cross-DC link.
  carousel::SimTime one_way_delay_us = 5'000;
};

bool LookupWorkload(const std::string& name, RtWorkload* out) {
  RtWorkload w;
  if (name == "retwis-wan-open") {
    // Neither TCP nor WAL: the protocol path alone.
  } else if (name == "retwis-wan-tcp") {
    w.tcp = true;
  } else if (name == "ycsbt-wan-wal") {
    // The WAL runs without fsync: on a shared disk, fsync latency swung
    // p99 from 50 to 570 ms between identical runs. Persist counts, bytes
    // and write costs are still measured; the fsync policy is not.
    w.wal = true;
    w.ycsbt = true;
  } else {
    return false;
  }
  *out = w;
  return true;
}

/// carousel_rt's real-time protocol settings: the simulator-tuned timer
/// defaults shrunk to interactive timescales; batching off.
core::CarouselOptions ProtocolOptions() {
  core::CarouselOptions options;
  options.fast_path = true;
  options.local_reads = true;
  options.batching.enabled = false;
  options.batching.flush_interval = 0;
  options.raft.election_timeout_min = 300'000;
  options.raft.election_timeout_max = 600'000;
  options.raft.heartbeat_interval = 60'000;
  options.heartbeat_interval = 200'000;
  options.client_retry_timeout = 1'500'000;
  options.coordinator_retry_interval = 1'500'000;
  options.pending_gc_interval = 5'000'000;
  return options;
}

/// 3 DCs, 3 partitions x 3 replicas (one replica of every partition in
/// each DC: 9 servers) plus one client endpoint per DC. The topology RTT matches the
/// injected delay so clients rank replicas by the latency they will see.
Topology MakeTopology(const RtWorkload& w) {
  Topology topo =
      Topology::Uniform(kDcs, 2.0 * w.one_way_delay_us / 1000.0);
  topo.PlacePartitions(kPartitions, kReplication);
  for (carousel::DcId dc = 0; dc < kDcs; ++dc) topo.AddClient(dc);
  return topo;
}

void ApplyWanDelay(const RtWorkload& w, const Topology& topo,
                   runtime::ThreadedRuntime* rt) {
  runtime::ThreadedRuntime::LinkFault fault;
  fault.delay = w.one_way_delay_us;
  const auto& nodes = topo.nodes();
  for (size_t a = 0; a < nodes.size(); ++a) {
    for (size_t b = a + 1; b < nodes.size(); ++b) {
      if (nodes[a].dc != nodes[b].dc) {
        rt->SetLinkFault(nodes[a].id, nodes[b].id, fault);
      }
    }
  }
}

std::string NodeDir(const std::string& root, NodeId id) {
  return root + "/node-" + std::to_string(id);
}

/// The cluster a load runs against: RtCluster itself, or the traced
/// assembly of the same parts.
class Deployment {
 public:
  virtual ~Deployment() = default;
  virtual bool Start() = 0;
  virtual void Stop() = 0;
  virtual runtime::ThreadedRuntime& rt() = 0;
  virtual const Topology& topology() const = 0;
  virtual core::CarouselClient* client(int index) = 0;
  virtual int num_clients() const = 0;

  void RunOnClient(int index, runtime::EventFn fn) {
    rt().loop(client(index)->id())->Post(std::move(fn));
  }
  std::vector<NodeId> server_ids() const {
    std::vector<NodeId> ids;
    for (const auto& n : topology().nodes()) {
      if (!n.is_client) ids.push_back(n.id);
    }
    return ids;
  }
};

class PlainDeployment final : public Deployment {
 public:
  PlainDeployment(const RtWorkload& w, uint64_t seed,
                  const std::string& wal_dir) {
    harness::RtClusterOptions opts;
    opts.use_tcp = w.tcp;
    opts.seed = seed;
    if (w.wal) opts.storage_dir = wal_dir;
    cluster_ = std::make_unique<harness::RtCluster>(MakeTopology(w),
                                                    ProtocolOptions(), opts);
    ApplyWanDelay(w, cluster_->topology(), &cluster_->rt());
  }
  bool Start() override { return cluster_->Start(); }
  void Stop() override { cluster_->Stop(); }
  runtime::ThreadedRuntime& rt() override { return cluster_->rt(); }
  const Topology& topology() const override { return cluster_->topology(); }
  core::CarouselClient* client(int index) override {
    return cluster_->client(index);
  }
  int num_clients() const override {
    return static_cast<int>(cluster_->num_clients());
  }
  /// Safe to read only after Stop.
  core::CarouselServer* server(NodeId id) { return cluster_->server(id); }
  void AttachHistory(carousel::check::HistoryRecorder* h) {
    cluster_->AttachHistory(h);
  }

 private:
  std::unique_ptr<harness::RtCluster> cluster_;
};

/// RtCluster's constructor, re-assembled with tracing decorators.
class TracedDeployment final : public Deployment {
 public:
  TracedDeployment(const RtWorkload& w, uint64_t seed,
                   const std::string& wal_dir)
      : topology_(MakeTopology(w)),
        options_(ProtocolOptions()),
        metrics_(/*enabled=*/false),
        rng_(seed) {
    directory_ = std::make_unique<core::Directory>(&topology_);
    runtime::ThreadedRuntimeOptions rt_opts;
    rt_opts.max_inbound_queue = harness::RtClusterOptions{}.max_inbound_queue;
    rt_opts.use_tcp = w.tcp;
    if (w.tcp) rt_opts.codec = TraceCodec(carousel::wire::Codec());
    rt_ = std::make_unique<runtime::ThreadedRuntime>(topology_.nodes().size(),
                                                     std::move(rt_opts));
    carousel::ClientId next_client_id = 0;
    for (const carousel::NodeInfo& info : topology_.nodes()) {
      if (info.is_client) {
        auto client = std::make_unique<core::CarouselClient>(
            info.id, info.dc, next_client_id++, directory_.get(), options_);
        rt_->Register(client.get());
        clients_.push_back(std::move(client));
        continue;
      }
      TracedStorage* storage = nullptr;
      if (w.wal) {
        runtime::WalStorageOptions wal_opts;
        wal_opts.fsync = harness::RtClusterOptions{}.wal_fsync;
        auto owned = std::make_unique<TracedStorage>(
            std::make_unique<runtime::WalStorage>(
                NodeDir(wal_dir, info.id),
                TraceCodec(carousel::wire::Codec()), wal_opts));
        storage = owned.get();
        storage_.push_back(std::move(owned));
      }
      auto server = std::make_unique<core::CarouselServer>(
          info, directory_.get(), rt_->MakeEnv(info.id, rng_.Fork(), storage),
          options_, /*traces=*/nullptr, &metrics_);
      if (storage != nullptr) storage->set_owner(server.get());
      auto probe = std::make_unique<TracedEndpoint>(server.get());
      rt_->Register(probe.get());
      probe->BindInner();
      servers_[info.id] = std::move(server);
      probes_.push_back(std::move(probe));
    }
    ApplyWanDelay(w, topology_, rt_.get());
  }
  ~TracedDeployment() override { Stop(); }

  bool Start() override {
    if (!rt_->Start()) return false;
    for (auto& [id, server] : servers_) {
      core::CarouselServer* s = server.get();
      rt_->loop(id)->Post([s]() { s->Start(); });
    }
    return WaitUntilServing(10'000);
  }
  void Stop() override { rt_->Stop(); }
  runtime::ThreadedRuntime& rt() override { return *rt_; }
  const Topology& topology() const override { return topology_; }
  core::CarouselClient* client(int index) override {
    return clients_.at(index).get();
  }
  int num_clients() const override {
    return static_cast<int>(clients_.size());
  }
 private:
  bool WaitUntilServing(int timeout_ms) {
    struct Probe {
      std::atomic<size_t> done{0};
      std::atomic<size_t> serving{0};
    };
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      auto probe = std::make_shared<Probe>();
      for (auto& [id, server] : servers_) {
        core::CarouselServer* s = server.get();
        rt_->loop(id)->Post([probe, s]() {
          if (s->serving()) probe->serving.fetch_add(1);
          probe->done.fetch_add(1);
        });
      }
      while (probe->done.load() < servers_.size() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (probe->serving.load() == servers_.size()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  Topology topology_;
  core::CarouselOptions options_;
  carousel::obs::MetricsRegistry metrics_;
  std::unique_ptr<core::Directory> directory_;
  std::unique_ptr<runtime::ThreadedRuntime> rt_;
  carousel::Rng rng_;
  std::vector<std::unique_ptr<TracedStorage>> storage_;
  std::map<NodeId, std::unique_ptr<core::CarouselServer>> servers_;
  std::vector<std::unique_ptr<TracedEndpoint>> probes_;
  std::vector<std::unique_ptr<core::CarouselClient>> clients_;
};

// ---- Load generation ----

enum class Result : uint8_t { kCommitted, kAborted, kTimedOut };
enum class Phase : uint8_t { kExecute, kCommit };

struct Outcome {
  int64_t done_ns = 0;
  int64_t latency_ns = 0;
  Result result = Result::kCommitted;
  Phase phase = Phase::kExecute;  // where an abort was reported
  bool read_only = false;
};

/// Per-client state; touched only on that client's loop thread until the
/// deployment stops.
struct ClientLog {
  std::vector<Outcome> outcomes;
  uint64_t next_value = 0;
};

struct Load {
  Deployment* deployment = nullptr;
  std::vector<std::unique_ptr<ClientLog>> logs;
  std::atomic<int64_t> in_flight{0};
  std::atomic<uint64_t> attempted{0};
};

std::unique_ptr<workload::Generator> MakeGenerator(const RtWorkload& w) {
  workload::WorkloadOptions opts;
  opts.num_keys = kKeys;
  opts.zipf_theta = kZipf;
  opts.value_size = kValueBytes;
  return w.ycsbt ? workload::MakeYcsbTGenerator(opts)
                 : workload::MakeRetwisGenerator(opts);
}

/// Runs one transaction on `index`'s loop thread; latency counts from
/// `start_ns`, the arrival's due time.
void IssueTxn(Load* load, int index, const workload::TxnSpec& spec,
              int64_t start_ns) {
  core::CarouselClient* client = load->deployment->client(index);
  ClientLog* log = load->logs[index].get();
  const TxnId tid = client->Begin();
  const bool read_only = spec.read_only();
  const uint64_t txn = TxnKey(tid);
  Tracer& tracer = Tracer::Get();
  const uint32_t span = tracer.active() ? tracer.Reserve() : 0;
  const int64_t exec_start = NowNs();
  auto finish = [load, log, start_ns, read_only, txn, span](Status status,
                                                           Phase phase) {
    const int64_t now = NowNs();
    Outcome o;
    o.done_ns = now;
    o.latency_ns = now - start_ns;
    o.phase = phase;
    o.read_only = read_only;
    o.result = status.ok() ? Result::kCommitted
               : status.code() == StatusCode::kTimedOut ? Result::kTimedOut
                                                        : Result::kAborted;
    log->outcomes.push_back(o);
    Tracer::Get().RecordAsync(Layer::kTxn, read_only ? 1 : 0, start_ns, now,
                              txn, span, 0);
    load->in_flight.fetch_sub(1);
  };
  client->ReadAndPrepare(
      tid, spec.reads, spec.writes,
      [client, log, tid, txn, span, exec_start, writes = spec.writes,
       finish = std::move(finish)](
          Status status, const core::CarouselClient::ReadResults&) mutable {
        const int64_t exec_end = NowNs();
        Tracer::Get().RecordAsync(Layer::kPhaseExecute, 0, exec_start,
                                  exec_end, txn, 0, span);
        if (writes.empty() || !status.ok()) {
          finish(status, Phase::kExecute);
          return;
        }
        for (const carousel::Key& key : writes) {
          std::string value =
              Format("c%d-%llu-", static_cast<int>(tid.client),
                     static_cast<unsigned long long>(log->next_value++));
          value.resize(kValueBytes, 'x');
          client->Write(tid, key, std::move(value));
        }
        client->Commit(tid, [txn, span, exec_end,
                             finish = std::move(finish)](Status st) mutable {
          Tracer::Get().RecordAsync(Layer::kPhaseCommit, 0, exec_end, NowNs(),
                                    txn, 0, span);
          finish(st, Phase::kCommit);
        });
      });
}

/// Snapshot of the process and transport counters at a window edge.
struct Edge {
  int64_t ns = 0;
  Usage usage;
  runtime::TransportStats net;
};

Edge TakeEdge(Deployment* d) {
  Edge e;
  e.ns = NowNs();
  e.usage = Usage::Now();
  e.net = d->rt().transport_stats();
  return e;
}

struct LoadResult {
  /// Window edges: the begin, one cut per sub-window, the end.
  std::vector<Edge> edges;
  std::vector<Outcome> outcomes;  // whole run, every client
  std::vector<double> gen_lag_ms;  // open loop, inside the window
  uint64_t attempted = 0;
  bool drained = false;
  uint64_t dropped_before_stop = 0;
  uint64_t net_drops_before_stop = 0;

  const Edge& begin() const { return edges.front(); }
  const Edge& end() const { return edges.back(); }
};

/// A measured window reduced to what the metrics need; windows of several
/// segments pool by Merge.
struct Window {
  std::vector<Outcome> outcomes;  // completed inside the window
  std::vector<double> gen_lag_ms;
  double seconds = 0;
  double cpu_s = 0;
  double ctx_switches = 0;
  double host_steal = 0, host_total = 0;
  double frames_sent = 0, bytes_sent = 0, send_syscalls = 0, send_eagain = 0;
  uint64_t dropped = 0;    // runtime drops, read before Stop
  uint64_t net_drops = 0;  // transport drops, read before Stop

  uint64_t committed() const {
    uint64_t n = 0;
    for (const Outcome& o : outcomes) n += o.result == Result::kCommitted;
    return n;
  }
  void Merge(const Window& o) {
    outcomes.insert(outcomes.end(), o.outcomes.begin(), o.outcomes.end());
    gen_lag_ms.insert(gen_lag_ms.end(), o.gen_lag_ms.begin(),
                      o.gen_lag_ms.end());
    seconds += o.seconds;
    cpu_s += o.cpu_s;
    ctx_switches += o.ctx_switches;
    host_steal += o.host_steal;
    host_total += o.host_total;
    frames_sent += o.frames_sent;
    bytes_sent += o.bytes_sent;
    send_syscalls += o.send_syscalls;
    send_eagain += o.send_eagain;
    dropped += o.dropped;
    net_drops += o.net_drops;
  }
};

/// The part of `r` between edges `a` and `b`: transactions that completed
/// in it and the counters' growth across it.
Window Between(const LoadResult& r, const Edge& a, const Edge& b) {
  Window w;
  for (const Outcome& o : r.outcomes) {
    if (o.done_ns >= a.ns && o.done_ns < b.ns) w.outcomes.push_back(o);
  }
  w.seconds = (b.ns - a.ns) / 1e9;
  w.cpu_s = b.usage.cpu_s - a.usage.cpu_s;
  w.ctx_switches = b.usage.ctx_switches - a.usage.ctx_switches;
  w.host_steal = b.usage.host_steal - a.usage.host_steal;
  w.host_total = b.usage.host_total - a.usage.host_total;
  w.frames_sent = static_cast<double>(b.net.frames_sent - a.net.frames_sent);
  w.bytes_sent = static_cast<double>(b.net.bytes_sent - a.net.bytes_sent);
  w.send_syscalls =
      static_cast<double>(b.net.send_syscalls - a.net.send_syscalls);
  w.send_eagain = static_cast<double>(b.net.send_eagain - a.net.send_eagain);
  return w;
}

/// The whole measured window of `r`.
Window WindowOf(const LoadResult& r) {
  Window w = Between(r, r.begin(), r.end());
  w.gen_lag_ms = r.gen_lag_ms;
  w.dropped = r.dropped_before_stop;
  w.net_drops = r.net_drops_before_stop;
  return w;
}

/// The measured window of `r` cut at its sub-window edges.
std::vector<Window> SubWindowsOf(const LoadResult& r) {
  std::vector<Window> out;
  for (size_t i = 0; i + 1 < r.edges.size(); ++i) {
    out.push_back(Between(r, r.edges[i], r.edges[i + 1]));
  }
  return out;
}

/// Drives `w`'s open loop against a started deployment for a warm-up and
/// a measured window, cut into sub-windows of about kSubWindowS, then
/// drains every in-flight transaction, waits `settle_ms` (for trailing
/// writebacks) and stops the deployment. `traced` switches the tracer on
/// for the window and posts runtime probes.
LoadResult RunLoad(Deployment* d, const RtWorkload& w, uint64_t seed,
                   double warmup_s, double window_s, bool traced,
                   int settle_ms = 0) {
  Load load;
  load.deployment = d;
  const int clients = d->num_clients();
  for (int i = 0; i < clients; ++i) {
    load.logs.push_back(std::make_unique<ClientLog>());
  }
  const int64_t t0 = NowNs();
  const int64_t window_begin = t0 + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t window_end = window_begin + static_cast<int64_t>(window_s * 1e9);
  const int cuts = std::max(1, static_cast<int>(window_s / kSubWindowS + 0.5));
  const int64_t sub_ns = (window_end - window_begin) / cuts;
  int64_t next_cut = INT64_MAX;
  LoadResult out;
  bool in_window = false;

  // Main thread: open-loop arrivals (seeded Poisson process, inputs drawn
  // from the seed alone), runtime probes, and the window edges.
  carousel::Rng arrivals(seed ^ 0x5eed0a11ull);
  auto generator = MakeGenerator(w);
  int64_t next_arrival =
      t0 + static_cast<int64_t>(arrivals.Exponential(1e9 / w.rate_tps));
  int64_t next_probe = traced ? window_begin : INT64_MAX;
  const std::vector<NodeId> servers = d->server_ids();
  Tracer& tracer = Tracer::Get();
  while (true) {
    const int64_t now = NowNs();
    if (!in_window && now >= window_begin) {
      out.edges.push_back(TakeEdge(d));
      if (traced) tracer.SetActive(true);
      in_window = true;
      next_cut = cuts > 1 ? window_begin + sub_ns : INT64_MAX;
    }
    if (now >= window_end) {
      if (traced) tracer.SetActive(false);
      out.edges.push_back(TakeEdge(d));
      break;
    }
    if (now >= next_cut) {
      out.edges.push_back(TakeEdge(d));
      next_cut += sub_ns;
      if (next_cut > window_end - sub_ns / 2) next_cut = INT64_MAX;
      continue;
    }
    if (now >= next_arrival) {
      const int index = static_cast<int>(arrivals.UniformInt(0, clients - 1));
      workload::TxnSpec spec = generator->Next(&arrivals);
      const int64_t due = next_arrival;
      if (due >= window_begin) out.gen_lag_ms.push_back((now - due) / 1e6);
      // Counted before the hand-off, so the drain below also waits for
      // arrivals still queued on a client loop.
      load.attempted.fetch_add(1);
      load.in_flight.fetch_add(1);
      Load* lp = &load;
      d->RunOnClient(index, [lp, index, spec = std::move(spec), due]() {
        IssueTxn(lp, index, spec, due);
      });
      next_arrival += static_cast<int64_t>(
          std::max(1.0, arrivals.Exponential(1e9 / w.rate_tps)));
      continue;
    }
    if (now >= next_probe) {
      for (NodeId id : servers) {
        const int64_t posted = NowNs();
        d->rt().loop(id)->Post(
            [posted]() { Tracer::Get().RecordProbe(NowNs() - posted); });
      }
      next_probe += kProbeIntervalNs;
      continue;
    }
    const int64_t wake =
        std::min({next_arrival, next_probe, next_cut, window_end,
                  in_window ? INT64_MAX : window_begin});
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min<int64_t>(wake - now, 2'000'000)));
  }

  // Drain: no new arrivals; wait for everything in flight.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline &&
         load.in_flight.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  out.drained = load.in_flight.load() == 0;
  std::this_thread::sleep_for(std::chrono::milliseconds(settle_ms));
  out.dropped_before_stop = d->rt().dropped_messages();
  out.net_drops_before_stop = d->rt().transport_stats().dropped_total();
  d->Stop();
  out.attempted = load.attempted.load();
  for (auto& log : load.logs) {
    out.outcomes.insert(out.outcomes.end(), log->outcomes.begin(),
                        log->outcomes.end());
  }
  return out;
}

/// The accounting identity and fault-free drop checks every load gets.
void CheckLoad(const LoadResult& r, const std::string& what, Report* report) {
  uint64_t committed = 0, aborted = 0, timed_out = 0;
  for (const Outcome& o : r.outcomes) {
    committed += o.result == Result::kCommitted;
    aborted += o.result == Result::kAborted;
    timed_out += o.result == Result::kTimedOut;
  }
  report->Check(r.drained, what + ": every in-flight transaction finished");
  // Nothing is refused on the threaded backend (no admission queue).
  report->Check(r.attempted == committed + aborted + timed_out,
                what + Format(": attempted %llu == committed %llu + aborted "
                              "%llu + timed out %llu + refused 0",
                              (unsigned long long)r.attempted,
                              (unsigned long long)committed,
                              (unsigned long long)aborted,
                              (unsigned long long)timed_out));
  report->Check(committed > 0, what + ": some transaction committed");
  report->Check(r.dropped_before_stop == 0,
                what + Format(": runtime.dropped_msgs %llu == 0",
                              (unsigned long long)r.dropped_before_stop));
  report->Check(r.net_drops_before_stop == 0,
                what + Format(": net.drops %llu == 0",
                              (unsigned long long)r.net_drops_before_stop));
}

/// Fresh per-use WAL root under the work directory.
std::string NewWalDir(const Args& args) {
  static int counter = 0;
  const std::string dir = args.work_dir + "/wal-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Once a deployment is gone, every server's WAL must reopen and load
/// with a fresh WalStorage.
void CheckWalReopens(const std::vector<NodeId>& ids,
                     const std::string& wal_dir, Report* report) {
  size_t loaded = 0, torn = 0;
  for (NodeId id : ids) {
    runtime::WalStorage storage(NodeDir(wal_dir, id), carousel::wire::Codec());
    runtime::DurableNodeState state;
    if (storage.Load(&state) && !state.empty()) loaded++;
    torn += storage.torn_records();
  }
  report->Check(loaded == ids.size(),
                Format("WAL reopen: %zu of %zu nodes loaded", loaded,
                       ids.size()));
  report->Check(torn == 0, Format("WAL reopen: %zu torn records", torn));
}

/// Untimed run with a history recorder attached; certified by the DSG
/// serializability checker.
void VerifySerializable(const RtWorkload& w, const Args& args,
                        Report* report) {
  const std::string wal_dir = NewWalDir(args);
  carousel::check::HistoryRecorder history;
  auto d = std::make_unique<PlainDeployment>(w, args.seed + 1, wal_dir);
  const std::vector<NodeId> ids = d->server_ids();
  d->AttachHistory(&history);
  if (!d->Start()) {
    report->Check(false, "verification: cluster failed to start");
    return;
  }
  // Writebacks trail the client-visible commit; let them land before the
  // replicas' write order is read (as the RT chaos harness does).
  LoadResult r = RunLoad(d.get(), w, args.seed + 1, 0.0, kVerifyS, false,
                         /*settle_ms=*/500);
  CheckLoad(r, "verification", report);
  carousel::check::WriterChains chains;
  bool replicas_agree = true;
  for (carousel::PartitionId p = 0; p < kPartitions; ++p) {
    std::map<carousel::Key, std::vector<const std::vector<TxnId>*>> per_key;
    for (NodeId id : d->topology().Replicas(p)) {
      for (const auto& [key, chain] : d->server(id)->store().writer_log()) {
        per_key[key].push_back(&chain);
      }
    }
    for (auto& [key, candidates] : per_key) {
      const std::vector<TxnId>* longest = candidates.front();
      for (const auto* c : candidates) {
        if (c->size() > longest->size()) longest = c;
      }
      for (const auto* c : candidates) {
        replicas_agree &= std::equal(c->begin(), c->end(), longest->begin());
      }
      chains[key] = *longest;
    }
  }
  report->Check(replicas_agree, "verification: replicas agree on write order");
  const carousel::check::CheckResult check =
      carousel::check::CheckSerializability(history, chains);
  report->Check(check.ok() && check.committed > 0,
                Format("verification: DSG certifies %zu committed, %zu "
                       "aborted, %zu edges serializable (%zu violations)",
                       check.committed, check.aborted, check.edges,
                       check.violations.size()));
  report->Note(Format("verification: %zu committed, %zu aborted, %zu "
                      "indeterminate, %zu DSG edges, %s",
                      check.committed, check.aborted, check.indeterminate,
                      check.edges, check.ok() ? "serializable" : "VIOLATION"));
  if (!check.ok()) report->Note(check.Report(history));
  d.reset();
  if (w.wal) CheckWalReopens(ids, wal_dir, report);
  std::filesystem::remove_all(wal_dir);
}

std::vector<double> LatenciesMs(const Window& w, int read_only) {
  std::vector<double> out;
  for (const Outcome& o : w.outcomes) {
    if (o.result != Result::kCommitted) continue;
    if (read_only >= 0 && o.read_only != (read_only == 1)) continue;
    out.push_back(o.latency_ns / 1e6);
  }
  return out;
}

/// End-to-end metrics: medians over one-second sub-windows of several
/// fresh clusters, so the seconds a burst of host interference or a disk
/// stall hits do not move them. The tail and the CPU cost per commit are
/// per-layer figures (workload.commit_p90_ms, runtime.cpu_us_per_commit):
/// both follow the host's steal phases, which last minutes, so no median
/// inside one run can hold them to a 25% bound from run to run.
void AddEndToEnd(const std::vector<Window>& windows, Report* report) {
  std::vector<double> tps, p50, rw_p50;
  int64_t commits = 0, rw_commits = 0;
  std::string per_window =
      "sub-windows: commit_tps/p50_ms/p90_ms/cpu_ms_per_commit";
  for (const Window& w : windows) {
    const std::vector<double> all = LatenciesMs(w, -1);
    const std::vector<double> rw = LatenciesMs(w, 0);
    commits += static_cast<int64_t>(all.size());
    rw_commits += static_cast<int64_t>(rw.size());
    tps.push_back(all.size() / w.seconds);
    p50.push_back(Quantile(all, 0.50));
    rw_p50.push_back(Quantile(rw, 0.50));
    per_window += Format(" %.0f/%.2f/%.2f/%.3f", tps.back(), p50.back(),
                         Quantile(all, 0.90),
                         1000.0 * w.cpu_s / std::max<double>(1, all.size()));
  }
  report->Note(per_window);
  report->Add("commit_tps", Median(tps), "txn/s", commits);
  report->Add("commit_p50_ms", Median(p50), "ms", commits);
  report->Add("rw_p50_ms", Median(rw_p50), "ms", rw_commits);
}

/// Metrics of the `workload` layer the contract keeps out of the gated
/// end-to-end set (they read 0 or are undefined on some workloads).
void AddWorkloadLayer(const Window& w, Report* report) {
  uint64_t aborted = 0, timed_out = 0;
  for (const Outcome& o : w.outcomes) {
    aborted += o.result == Result::kAborted;
    timed_out += o.result == Result::kTimedOut;
  }
  const double att = std::max<double>(1, w.outcomes.size());
  const auto n = static_cast<int64_t>(w.outcomes.size());
  const std::vector<double> ro = LatenciesMs(w, 1);
  report->Add("workload.abort_rate", aborted / att, "frac", n);
  report->Add("workload.fail_rate", timed_out / att, "frac", n);
  report->Add("workload.ro_p50_ms", Quantile(ro, 0.5), "ms",
              static_cast<int64_t>(ro.size()));
  const std::vector<double> all = LatenciesMs(w, -1);
  report->Add("workload.commit_p90_ms", Quantile(all, 0.90), "ms",
              static_cast<int64_t>(all.size()));
  report->Add("workload.commit_p99_ms", Quantile(all, 0.99), "ms",
              static_cast<int64_t>(all.size()));
  report->Add("workload.gen_lag_p99_ms", Quantile(w.gen_lag_ms, 0.99), "ms",
              static_cast<int64_t>(w.gen_lag_ms.size()));
}

/// Count-per-commit metrics from public counters (transport, rusage).
void AddCounts(const Window& w, Report* report) {
  const double c = std::max<double>(1, w.committed());
  const auto n = static_cast<int64_t>(w.committed());
  report->Add("runtime.cpu_us_per_commit", 1e6 * w.cpu_s / c, "us", n);
  report->Add("runtime.ctx_switches_per_commit", w.ctx_switches / c, "count",
              n);
  report->Add("runtime.dropped_msgs", static_cast<double>(w.dropped),
              "count", 1);
  report->Add("runtime.host_steal_frac",
              w.host_total > 0 ? w.host_steal / w.host_total : 0, "frac", 1);
  report->Add("net.frames_per_commit", w.frames_sent / c, "count", n);
  report->Add("net.sendmsg_per_commit", w.send_syscalls / c, "count", n);
  report->Add("net.frames_per_syscall",
              w.send_syscalls > 0 ? w.frames_sent / w.send_syscalls : 0,
              "ratio", static_cast<int64_t>(w.send_syscalls));
  report->Add("net.bytes_per_commit", w.bytes_sent / c, "B", n);
  report->Add("net.eagain_per_commit", w.send_eagain / c, "count", n);
  report->Add("net.drops", static_cast<double>(w.net_drops), "count", 1);
}

/// The traced window's per-layer ledger.
void AddLayers(const TraceTotals& t, const Window& r, size_t servers,
               Report* report) {
  const double commits = std::max<double>(1, r.committed());
  const auto n = static_cast<int64_t>(r.committed());
  const double window_ns = r.seconds * 1e9;
  const double server_ns = window_ns * static_cast<double>(servers);

  // Client side.
  auto phase = [&](Layer layer, const char* name) {
    const SpanAgg a = t.Layer(layer);
    report->Add(Format("carousel.%s_p50_ms", name),
                Quantile(a.samples, 0.5) / 1e6, "ms",
                static_cast<int64_t>(a.count));
    report->Add(Format("carousel.%s_p99_ms", name),
                Quantile(a.samples, 0.99) / 1e6, "ms",
                static_cast<int64_t>(a.count));
  };
  phase(Layer::kPhaseExecute, "phase_execute");
  phase(Layer::kPhaseCommit, "phase_commit");
  uint64_t attempted = 0, abort_exec = 0, abort_commit = 0;
  for (const Outcome& o : r.outcomes) {
    attempted++;
    if (o.result != Result::kAborted) continue;
    (o.phase == Phase::kExecute ? abort_exec : abort_commit)++;
  }
  const double att = std::max<double>(1, attempted);
  report->Add("carousel.abort_execute_frac", abort_exec / att, "frac",
              static_cast<int64_t>(attempted));
  report->Add("carousel.abort_commit_frac", abort_commit / att, "frac",
              static_cast<int64_t>(attempted));

  // Server side.
  const SpanAgg handler = t.Layer(Layer::kHandler);
  const SpanAgg storage = t.Layer(Layer::kStorage);
  const SpanAgg enc = t.Layer(Layer::kWireEncode);
  const SpanAgg dec = t.Layer(Layer::kWireDecode);
  report->Add("carousel.handler_cpu_us_per_commit",
              handler.self_cpu_ns / 1e3 / commits, "us", n);
  report->Add("carousel.handler_busy_frac", handler.wall_ns / server_ns,
              "frac", static_cast<int64_t>(handler.count));
  report->Add("carousel.msgs_per_commit", handler.count / commits, "count",
              n);
  std::vector<std::pair<int64_t, int>> by_self;
  for (const auto& [key, agg] : t.spans) {
    if (key.first == static_cast<int>(Layer::kHandler)) {
      by_self.emplace_back(agg.self_cpu_ns, key.second);
    }
  }
  std::sort(by_self.rbegin(), by_self.rend());
  for (const auto& [self_ns, tag] : by_self) {
    const SpanAgg& agg =
        t.spans.at({static_cast<int>(Layer::kHandler), tag});
    report->Add(Format("carousel.handler_self_us_p50.t%d", tag),
                Quantile(agg.samples, 0.5) / 1e3, "us",
                static_cast<int64_t>(agg.count));
    report->Add(Format("carousel.msgs_per_commit.t%d", tag),
                agg.count / commits, "count", n);
    report->Note(Format("  handler t%-4d %9llu msgs %7.2f/commit  self cpu "
                        "%8.2f us/commit  p50 %6.2f us",
                        tag, (unsigned long long)agg.count,
                        agg.count / commits, self_ns / 1e3 / commits,
                        Quantile(agg.samples, 0.5) / 1e3));
  }

  // Raft.
  uint64_t raft_msgs = 0;
  for (int tag : {carousel::sim::kRaftAppendEntries,
                  carousel::sim::kRaftAppendResponse}) {
    auto it = t.spans.find({static_cast<int>(Layer::kHandler), tag});
    if (it != t.spans.end()) raft_msgs += it->second.count;
  }
  report->Add("raft.msgs_per_commit", raft_msgs / commits, "count", n);
  report->Add("raft.append_to_commit_us_p50",
              Quantile(t.append_to_commit_ns, 0.5) / 1e3, "us",
              static_cast<int64_t>(t.append_to_commit_ns.size()));
  report->Add("raft.append_to_commit_us_p99",
              Quantile(t.append_to_commit_ns, 0.99) / 1e3, "us",
              static_cast<int64_t>(t.append_to_commit_ns.size()));

  // Runtime probes.
  report->Add("runtime.post_to_run_us_p50",
              Quantile(t.post_to_run_ns, 0.5) / 1e3, "us",
              static_cast<int64_t>(t.post_to_run_ns.size()));
  report->Add("runtime.post_to_run_us_p99",
              Quantile(t.post_to_run_ns, 0.99) / 1e3, "us",
              static_cast<int64_t>(t.post_to_run_ns.size()));

  // Wire.
  report->Add("wire.encode_ns_p50", Quantile(enc.samples, 0.5), "ns",
              static_cast<int64_t>(enc.count));
  report->Add("wire.decode_ns_p50", Quantile(dec.samples, 0.5), "ns",
              static_cast<int64_t>(dec.count));
  report->Add("wire.cpu_us_per_commit",
              (enc.wall_ns + dec.wall_ns) / 1e3 / commits, "us", n);
  report->Add("wire.bytes_per_msg",
              enc.count > 0 ? static_cast<double>(enc.bytes) / enc.count : 0,
              "B", static_cast<int64_t>(enc.count));

  // Storage.
  report->Add("storage.persists_per_commit", storage.count / commits,
              "count", n);
  for (int kind = 0; kind < kCompact; ++kind) {
    auto it = t.spans.find({static_cast<int>(Layer::kStorage), kind});
    const double count = it == t.spans.end() ? 0 : it->second.count;
    report->Add(Format("storage.persists_per_commit.%s",
                       StorageKindName(kind)),
                count / commits, "count", n);
  }
  report->Add("storage.persist_us_p50", Quantile(storage.samples, 0.5) / 1e3,
              "us", static_cast<int64_t>(storage.count));
  report->Add("storage.persist_us_p99", Quantile(storage.samples, 0.99) / 1e3,
              "us", static_cast<int64_t>(storage.count));
  report->Add("storage.busy_frac", storage.wall_ns / server_ns, "frac",
              static_cast<int64_t>(storage.count));
  report->Add("storage.wal_bytes_per_commit", t.wal_bytes / commits, "B", n);
  report->Add("storage.compactions", static_cast<double>(t.compactions),
              "count", 1);
  report->Add("storage.compact_ms_max", t.compact_ns_max / 1e6, "ms",
              static_cast<int64_t>(t.compactions));

  // The ledger: CPU the layer spans account for, against the process.
  const double runtime_us = 1e6 * r.cpu_s / commits;
  const double handler_us = handler.self_cpu_ns / 1e3 / commits;
  const double storage_us = storage.self_cpu_ns / 1e3 / commits;
  const double wire_us = (enc.wall_ns + dec.wall_ns) / 1e3 / commits;
  report->Add("ledger.unattributed_cpu_frac",
              runtime_us > 0
                  ? 1.0 - (handler_us + storage_us + wire_us) / runtime_us
                  : 0,
              "frac", n);
  report->Note(Format("ledger (CPU us per commit): process %.1f = handler "
                      "self %.1f + storage self %.1f + wire %.1f + "
                      "unattributed (runtime, net, clients, kernel) %.1f",
                      runtime_us, handler_us, storage_us, wire_us,
                      runtime_us - handler_us - storage_us - wire_us));
}

}  // namespace

bool IsRtWorkload(const std::string& name) {
  RtWorkload w;
  return LookupWorkload(name, &w);
}

void RunRtWorkload(const Args& args, Report* report) {
  RtWorkload w;
  LookupWorkload(args.workload, &w);
  std::filesystem::create_directories(args.work_dir);
  carousel::Rng seeder(args.seed);

  // One segment: a fresh cluster, timed from construction to serving,
  // then a warm-up and a measured window of `window_s`.
  struct Segment {
    double setup_s = 0;
    double setup_rss_mb = 0;
    uint64_t wal_bytes = 0;
    LoadResult load;
  };
  auto run_segment = [&](bool traced, double window_s, const char* what,
                         Segment* out) {
    const uint64_t seed = seeder.NextU64();
    const std::string wal_dir = NewWalDir(args);
    const int64_t t0 = NowNs();
    std::unique_ptr<Deployment> d;
    if (traced) {
      d = std::make_unique<TracedDeployment>(w, seed, wal_dir);
    } else {
      d = std::make_unique<PlainDeployment>(w, seed, wal_dir);
    }
    const std::vector<NodeId> ids = d->server_ids();
    const bool started = d->Start();
    out->setup_s = (NowNs() - t0) / 1e9;
    out->setup_rss_mb = CurrentRssMb();
    report->Check(started, Format("%s: cluster started", what));
    if (!started) return false;
    out->load = RunLoad(d.get(), w, seed, kWarmupS, window_s, traced);
    d.reset();
    CheckLoad(out->load, what, report);
    for (const Outcome& o : out->load.outcomes) {
      report->attempted++;
      report->failed += o.result == Result::kTimedOut;
    }
    if (w.wal) {
      out->wal_bytes = DirectoryBytes(wal_dir);
      CheckWalReopens(ids, wal_dir, report);
    }
    std::filesystem::remove_all(wal_dir);
    return true;
  };

  if (!args.trace) {
    std::vector<Window> sub_windows;
    std::vector<double> setups;
    Window pooled;
    double setup_rss_mb = 0;
    uint64_t wal_bytes = 0, attempted = 0;
    const double window_s = std::max(1.0, args.seconds / double{kSegments});
    for (int i = 0; i < kSegments; ++i) {
      Segment seg;
      if (!run_segment(false, window_s, Format("segment %d", i).c_str(),
                       &seg)) {
        return;
      }
      if (i == 0) setup_rss_mb = seg.setup_rss_mb;
      setups.push_back(seg.setup_s);
      for (Window& sub : SubWindowsOf(seg.load)) {
        sub_windows.push_back(std::move(sub));
      }
      pooled.Merge(WindowOf(seg.load));
      wal_bytes += seg.wal_bytes;
      attempted += seg.load.attempted;
    }
    for (int i = 0; i < kExtraSetups; ++i) {
      const std::string wal_dir = NewWalDir(args);
      const int64_t t0 = NowNs();
      auto d = std::make_unique<PlainDeployment>(w, seeder.NextU64(), wal_dir);
      const bool started = d->Start();
      setups.push_back((NowNs() - t0) / 1e9);
      report->Check(started, Format("set-up %d: cluster started", i));
      d.reset();
      std::filesystem::remove_all(wal_dir);
    }
    AddEndToEnd(sub_windows, report);
    report->Add("setup_s", Median(setups), "s",
                static_cast<int64_t>(setups.size()));
    report->Add("setup_rss_mb", setup_rss_mb, "MB", 1);
    AddWorkloadLayer(pooled, report);
    AddCounts(pooled, report);
    if (w.wal) {
      report->Add("storage.wal_dir_bytes_per_attempt",
                  static_cast<double>(wal_bytes) /
                      std::max<double>(1, attempted),
                  "B", static_cast<int64_t>(attempted));
    }
  } else {
    // Untraced and traced halves of the window, back to back: their
    // commit_tps difference is the tracing overhead.
    const double half = std::max(1.0, args.seconds / 2.0);
    Segment plain, traced;
    if (!run_segment(false, half, "untraced half", &plain)) return;
    Tracer::Get().Reset();
    if (!run_segment(true, half, "traced half", &traced)) return;
    const Window untraced_window = WindowOf(plain.load);
    const Window traced_window = WindowOf(traced.load);
    AddWorkloadLayer(untraced_window, report);
    AddCounts(traced_window, report);
    AddLayers(Tracer::Get().Totals(), traced_window,
              static_cast<size_t>(kPartitions * kReplication), report);
    const double untraced_tps =
        untraced_window.committed() / untraced_window.seconds;
    const double traced_tps =
        traced_window.committed() / traced_window.seconds;
    report->Add("trace.overhead_frac",
                untraced_tps > 0 ? 1.0 - traced_tps / untraced_tps : 0,
                "frac", 2);
    report->Note(Format("tracing overhead: commit_tps untraced %.1f, traced "
                        "%.1f", untraced_tps, traced_tps));
    const std::string spans_path =
        args.work_dir + "/spans-" + args.workload + ".tsv";
    report->Check(Tracer::Get().WriteSpans(spans_path),
                  "span dump written to " + spans_path);
    report->Note(Format("spans: %zu kept in %s, %llu beyond the buffer",
                        Tracer::Get().spans_kept(), spans_path.c_str(),
                        (unsigned long long)Tracer::Get().spans_lost()));
  }
  VerifySerializable(w, args, report);
}

}  // namespace perfbench
