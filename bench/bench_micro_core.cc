// Microbenchmarks (google-benchmark) for the hot data structures under
// the protocols: pending-list OCC checks, the versioned store, workload
// generation, the simulator core, and the wire codec. Not a paper
// artifact; used to keep the simulation fast enough for the throughput
// sweeps and the TCP frame path cheap.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "carousel/messages.h"
#include "common/consistent_hash.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/topology.h"
#include "common/zipfian.h"
#include "kv/pending_list.h"
#include "kv/versioned_store.h"
#include "raft/messages.h"
#include "runtime/arena.h"
#include "runtime/batcher.h"
#include "sim/network.h"
#include "runtime/endpoint.h"
#include "sim/simulator.h"
#include "wire/wire.h"
#include "workload/workload.h"

namespace carousel {
namespace {

void BM_PendingListConflictCheck(benchmark::State& state) {
  kv::PendingList list;
  const int pending = static_cast<int>(state.range(0));
  for (int i = 0; i < pending; ++i) {
    kv::PendingTxn txn;
    txn.tid = {1, static_cast<uint64_t>(i)};
    txn.read_keys = {"r" + std::to_string(i)};
    txn.write_keys = {"w" + std::to_string(i)};
    list.Add(std::move(txn)).ok();
  }
  const KeyList reads = {"rx", "ry"};
  const KeyList writes = {"wx"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.HasConflict(reads, writes));
  }
}
BENCHMARK(BM_PendingListConflictCheck)->Arg(16)->Arg(256)->Arg(4096);

void BM_PendingListAddRemove(benchmark::State& state) {
  kv::PendingList list;
  uint64_t i = 0;
  for (auto _ : state) {
    kv::PendingTxn txn;
    txn.tid = {1, i++};
    txn.read_keys = {"a", "b"};
    txn.write_keys = {"c"};
    list.Add(std::move(txn)).ok();
    list.Remove({1, i - 1});
  }
}
BENCHMARK(BM_PendingListAddRemove);

void BM_VersionedStoreApply(benchmark::State& state) {
  kv::VersionedStore store;
  Rng rng(1);
  for (auto _ : state) {
    store.Apply("k" + std::to_string(rng.NextU64() % 100000), "value");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VersionedStoreApply);

void BM_VersionedStoreGet(benchmark::State& state) {
  kv::VersionedStore store;
  for (int i = 0; i < 100000; ++i) {
    store.Apply("k" + std::to_string(i), "value");
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.Get("k" + std::to_string(rng.NextU64() % 100000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VersionedStoreGet);

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianGenerator zipf(10'000'000, 0.75);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianNext);

void BM_RetwisGenerate(benchmark::State& state) {
  workload::WorkloadOptions options;
  options.num_keys = 1'000'000;
  auto generator = workload::MakeRetwisGenerator(options);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator->Next(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RetwisGenerate);

void BM_ConsistentHashLookup(benchmark::State& state) {
  ConsistentHashRing ring(5, 64);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ring.PartitionFor("key" + std::to_string(rng.NextU64() % 1000000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConsistentHashLookup);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram histogram;
  Rng rng(6);
  for (auto _ : state) {
    histogram.Record(static_cast<int64_t>(rng.NextU64() % 1000000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(1);
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(i, [] {});
    }
    sim.RunToCompletion();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

/// The realistic event shape: captures that overflow std::function's
/// 16-byte small buffer (EventFn keeps them inline) and a mix of
/// near-future deliveries with a sparse far-future timer tail, which is
/// what the calendar event queue is tuned for.
void BM_SimulatorDeliveryPattern(benchmark::State& state) {
  struct Payload {
    uint64_t sum = 0;
  };
  auto shared = std::make_shared<Payload>();
  for (auto _ : state) {
    sim::Simulator sim(1);
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
      const NodeId from = static_cast<NodeId>(i % 16);
      const NodeId to = static_cast<NodeId>((i * 7) % 16);
      // Delivery-like captures: two ids + a shared_ptr (40 bytes).
      sim.Schedule(static_cast<SimTime>(rng.UniformInt(0, 5000)),
                   [shared, from, to] {
                     shared->sum += static_cast<uint64_t>(from + to);
                   });
      if (i % 50 == 0) {
        // Timer-like far-future event (overflow heap territory).
        sim.Schedule(static_cast<SimTime>(1'000'000 + i), [shared] {
          shared->sum++;
        });
      }
    }
    sim.RunToCompletion();
  }
  state.SetItemsProcessed(state.iterations() * 1020);
}
BENCHMARK(BM_SimulatorDeliveryPattern);

struct BenchMsg final : sim::Message {
  uint64_t a = 0, b = 0;
  int type() const override { return sim::kPing; }
  size_t SizeBytes() const override { return 24; }
};

/// Pooled message allocation (runtime/arena.h) as used by every protocol send.
void BM_ArenaMakeMessage(benchmark::State& state) {
  for (auto _ : state) {
    auto msg = runtime::MakeMessage<BenchMsg>();
    benchmark::DoNotOptimize(msg);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArenaMakeMessage);

class SinkNode : public runtime::Endpoint {
 public:
  using runtime::Endpoint::Endpoint;
  void HandleMessage(NodeId /*from*/,
                     const sim::MessagePtr& /*msg*/) override {
    received_++;
  }
  uint64_t received_ = 0;
};

/// Egress batcher hot path: bursts to one destination, drained through
/// the network each window.
void BM_BatcherSendFlush(benchmark::State& state) {
  sim::Simulator sim(1);
  Topology topo = Topology::Uniform(1, 1.0);
  topo.AddClient(0);
  topo.AddClient(0);
  sim::Network net(&sim, &topo, sim::NetworkOptions{});
  SinkNode sender(0, 0), receiver(1, 0);
  net.Register(&sender);
  net.Register(&receiver);
  runtime::MessageBatcher::Options opts;
  opts.flush_interval = 50;
  runtime::MessageBatcher batcher(&sender, opts);
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      batcher.Send(1, runtime::MakeMessage<BenchMsg>());
    }
    sim.RunFor(100);
  }
  benchmark::DoNotOptimize(receiver.received_);
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_BatcherSendFlush);

// ---------------------------------------------------------------------------
// Wire codec: one representative message per encoding shape, selected by
// the benchmark argument (labelled in the output).
// ---------------------------------------------------------------------------

std::shared_ptr<core::LogPrepareResult> CodecPrepareResult(uint64_t n) {
  auto m = std::make_shared<core::LogPrepareResult>();
  m->tid = {3, n};
  m->coordinator = 4;
  m->prepared = true;
  m->read_keys = {"user:1042", "user:77"};
  m->write_keys = {"timeline:1042"};
  m->read_versions = {{"user:1042", 12}, {"user:77", 9}};
  m->term = 5;
  return m;
}

/// 0: a flat message with key lists; 1: an AppendEntries carrying three
/// log payloads; 2: a two-item batch envelope; 3: a vote carrying a
/// pending list.
sim::MessagePtr CodecSample(int64_t which) {
  switch (which) {
    case 0: {
      auto m = std::make_shared<core::ReadPrepareMsg>();
      m->tid = {3, 77};
      m->partition = 1;
      m->client = 12;
      m->coordinator = 4;
      m->read_keys = {"user:1042", "user:77", "post:9"};
      m->write_keys = {"timeline:1042"};
      m->fast_path = true;
      m->want_data = true;
      return m;
    }
    case 1: {
      auto m = std::make_shared<raft::AppendEntriesMsg>();
      m->group = 2;
      m->term = 5;
      m->leader = 3;
      m->prev_log_index = 41;
      m->prev_log_term = 5;
      m->leader_commit = 40;
      for (uint64_t i = 0; i < 3; ++i) {
        m->entries.push_back(raft::LogEntry{5, CodecPrepareResult(i)});
      }
      return m;
    }
    case 2: {
      auto decision = std::make_shared<core::PrepareDecisionMsg>();
      decision->tid = {3, 77};
      decision->partition = 1;
      decision->replica = 6;
      decision->prepared = true;
      decision->read_versions = {{"user:1042", 12}, {"user:77", 9}};
      auto reads = std::make_shared<core::ReadResponseMsg>();
      reads->tid = {3, 77};
      reads->partition = 1;
      reads->reads = {{"user:1042", {"v-1042", 12}}, {"user:77", {"v-77", 9}}};
      auto m = std::make_shared<sim::BatchEnvelopeMsg>();
      m->items = {decision, reads};
      return m;
    }
    default: {
      auto m = std::make_shared<raft::VoteResponseMsg>();
      m->group = 2;
      m->term = 6;
      m->voter = 5;
      m->granted = true;
      for (uint64_t i = 0; i < 4; ++i) {
        const auto p = CodecPrepareResult(i);
        kv::PendingTxn txn;
        txn.tid = p->tid;
        txn.read_keys = p->read_keys;
        txn.write_keys = p->write_keys;
        txn.read_versions = p->read_versions;
        txn.term = p->term;
        txn.coordinator = p->coordinator;
        m->pending_list.push_back(std::move(txn));
      }
      return m;
    }
  }
}

const char* const kCodecSampleNames[] = {"ReadPrepare", "AppendEntries3",
                                         "BatchEnvelope2", "VoteResponse4"};

/// The TCP writer's encode: append into a reused frame buffer.
void BM_WireEncode(benchmark::State& state) {
  const sim::MessagePtr msg = CodecSample(state.range(0));
  const runtime::WireCodec codec = wire::Codec();
  std::vector<uint8_t> out;
  for (auto _ : state) {
    out.clear();
    codec.encode_append(*msg, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(kCodecSampleNames[state.range(0)]);
  state.SetBytesProcessed(state.iterations() * msg->WireSize());
}
BENCHMARK(BM_WireEncode)->DenseRange(0, 3);

/// The TCP reader's decode: one payload into a fresh message.
void BM_WireDecode(benchmark::State& state) {
  const sim::MessagePtr msg = CodecSample(state.range(0));
  const std::vector<uint8_t> bytes = wire::Encode(*msg);
  const runtime::WireCodec codec = wire::Codec();
  for (auto _ : state) {
    sim::MessagePtr decoded = codec.decode(msg->type(), bytes.data(), bytes.size());
    benchmark::DoNotOptimize(decoded.get());
  }
  state.SetLabel(kCodecSampleNames[state.range(0)]);
  state.SetBytesProcessed(state.iterations() * bytes.size());
}
BENCHMARK(BM_WireDecode)->DenseRange(0, 3);

/// SizeBytes() itself, bypassing the message's own memo (nested log
/// payloads and batch items keep theirs, as on the retransmission path).
void BM_SizeBytes(benchmark::State& state) {
  const sim::MessagePtr msg = CodecSample(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg->SizeBytes());
  }
  state.SetLabel(kCodecSampleNames[state.range(0)]);
}
BENCHMARK(BM_SizeBytes)->DenseRange(0, 3);

}  // namespace
}  // namespace carousel

BENCHMARK_MAIN();
