// sim-fig5: bench::RunSystem's unbatched Carousel Fast configuration at
// two Figure 5 smoke-sweep points (local cluster, calibrated CPU model,
// Retwis, open loop). Untraced runs measure the 1000 tps point: below the
// knee, where every seed gives nearly the same figures, so they can be
// gated. The traced run adds the 6000 tps point, where unbatched Carousel
// collapses (ROADMAP item 1); the collapse is metastable — committed tps
// ranges over 2.5x across seeds — so its figures are reported as
// per-layer counts, never gated.
//
// Each sub-run assembles the deployment exactly as RunSystem does, with a
// recording SystemAdapter between the driver and the cluster that keeps
// exact per-transaction sim-time latencies (RunResult keeps only bucketed
// histograms) and whole-run outcome counts, and exposes the simulator's
// own counters. The first sub-run is repeated through bench::RunSystem
// itself and must agree exactly, which pins the replica to the shipped
// harness.

#include "sim.h"

#include <algorithm>
#include <memory>

#include "bench/harness.h"
#include "harness/cluster.h"
#include "obs/wanrt.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace perfbench {

namespace bench = carousel::bench;
namespace core = carousel::core;
namespace workload = carousel::workload;
using carousel::SimTime;

namespace {

constexpr double kSteadyTps = 1000;
constexpr double kOverloadTps = 6000;
constexpr int kClientsPerDc = 60;
constexpr uint64_t kKeys = 1'000'000;
/// Cluster set-ups timed before each sub-run (setup_s is the median of
/// all of them). A set-up takes about a millisecond, and its level drifts
/// by a third within one process, so the samples are spread over the run.
constexpr int kSetupsPerSubRun = 4;
/// Sim time allowed after the driver's own drain for straggling
/// transactions to reach an outcome.
constexpr SimTime kSettle = 30 * carousel::kMicrosPerSecond;

workload::DriverOptions DriverOptions(uint64_t seed, double target_tps) {
  // bench/sweep.h's smoke-sweep timing.
  workload::DriverOptions d;
  d.target_tps = target_tps;
  d.duration = 6 * carousel::kMicrosPerSecond;
  d.warmup = 2 * carousel::kMicrosPerSecond;
  d.cooldown = 1 * carousel::kMicrosPerSecond;
  d.seed = seed;
  return d;
}

std::unique_ptr<workload::Generator> Generator() {
  workload::WorkloadOptions w;
  w.num_keys = kKeys;
  return workload::MakeRetwisGenerator(w);
}

/// RunSystem's Carousel Fast options.
core::CarouselOptions Options() {
  core::CarouselOptions options;
  options.cost = bench::ThroughputCostModel();
  options.metrics.enabled = true;
  options.batching.enabled = false;
  options.batching.coalesce_deliveries = false;
  options.batching.flush_interval = 400;
  options.fast_path = true;
  options.local_reads = true;
  return options;
}

/// Forwards to the real adapter; records sim-time outcomes on the way
/// back. Adds no simulated time and no events.
class RecordingAdapter final : public workload::SystemAdapter {
 public:
  RecordingAdapter(workload::SystemAdapter* inner, SimTime window_begin,
                   SimTime window_end)
      : inner_(inner), begin_(window_begin), end_(window_end) {}

  carousel::sim::Simulator& sim() override { return inner_->sim(); }
  carousel::sim::Network& network() override { return inner_->network(); }
  int num_clients() const override { return inner_->num_clients(); }
  carousel::DcId client_dc(int index) const override {
    return inner_->client_dc(index);
  }
  std::string name() const override { return inner_->name(); }

  void Execute(int index, const workload::TxnSpec& spec,
               const carousel::Value& payload,
               std::function<void(bool, bool)> done) override {
    launched++;
    const SimTime start = inner_->sim().now();
    const bool read_only = spec.read_only();
    inner_->Execute(index, spec, payload,
                    [this, start, read_only, done = std::move(done)](
                        bool committed, bool timed_out) {
                      const SimTime now = inner_->sim().now();
                      completed++;
                      committed_total += committed;
                      if (now >= begin_ && now < end_) {
                        if (committed) {
                          const double ms = (now - start) / 1000.0;
                          latency_ms.push_back(ms);
                          (read_only ? ro_ms : rw_ms).push_back(ms);
                        } else if (timed_out) {
                          window_timed_out++;
                        } else {
                          window_aborted++;
                        }
                      }
                      done(committed, timed_out);
                    });
  }

  uint64_t launched = 0;
  uint64_t completed = 0;
  uint64_t committed_total = 0;
  uint64_t window_aborted = 0;
  uint64_t window_timed_out = 0;
  std::vector<double> latency_ms, rw_ms, ro_ms;

 private:
  workload::SystemAdapter* inner_;
  SimTime begin_, end_;
};

struct SubRun {
  workload::RunResult result;
  std::vector<carousel::sim::Traffic> traffic;
  carousel::obs::WanrtStats wanrt;
  std::vector<double> latency_ms, rw_ms, ro_ms;
  uint64_t events = 0;
  uint64_t launched = 0;
  uint64_t completed = 0;
  uint64_t committed_total = 0;
  uint64_t window_aborted = 0;
  uint64_t window_timed_out = 0;
  double wall_s = 0;
  double cpu_s = 0;
  SimTime sim_end = 0;
};

/// RunSystem(kCarouselFast, LocalClusterTopology(60), ...) step for step.
SubRun RunDirect(uint64_t seed, double target_tps) {
  SubRun out;
  const Usage u0 = Usage::Now();
  const int64_t t0 = NowNs();
  auto generator = Generator();
  workload::DriverOptions dopts = DriverOptions(seed, target_tps);
  core::Cluster cluster(bench::LocalClusterTopology(kClientsPerDc), Options(),
                        carousel::sim::NetworkOptions{}, seed);
  cluster.Start();
  cluster.sim().ScheduleAt(dopts.warmup,
                           [&cluster]() { cluster.wanrt().ResetStats(); });
  const SimTime window_end = dopts.duration - dopts.cooldown;
  cluster.sim().ScheduleAt(window_end, [&cluster, &out]() {
    out.wanrt = cluster.wanrt().stats();
  });
  auto adapter = workload::MakeCarouselAdapter(
      &cluster, bench::SystemName(bench::SystemKind::kCarouselFast));
  RecordingAdapter recorder(adapter.get(), dopts.warmup, window_end);
  carousel::sim::Network& net = cluster.network();
  cluster.sim().ScheduleAt(dopts.warmup, [&net]() { net.ResetTraffic(); });
  const size_t num_nodes = net.topology().nodes().size();
  cluster.sim().ScheduleAt(window_end, [&net, &out, num_nodes]() {
    for (size_t i = 0; i < num_nodes; ++i) {
      out.traffic.push_back(net.traffic(static_cast<carousel::NodeId>(i)));
    }
  });
  out.result = workload::RunWorkload(&recorder, generator.get(), dopts);
  // The workload driver drains 5 s; let stragglers still waiting out retries
  // finish so every launched transaction is accounted for.
  const SimTime settle_until = cluster.sim().now() + kSettle;
  while (recorder.completed < recorder.launched &&
         cluster.sim().now() < settle_until) {
    cluster.sim().RunFor(carousel::kMicrosPerSecond);
  }
  out.events = cluster.sim().events_processed();
  out.sim_end = cluster.sim().now();
  out.wall_s = (NowNs() - t0) / 1e9;
  out.cpu_s = Usage::Now().cpu_s - u0.cpu_s;
  out.latency_ms = std::move(recorder.latency_ms);
  out.rw_ms = std::move(recorder.rw_ms);
  out.ro_ms = std::move(recorder.ro_ms);
  out.launched = recorder.launched;
  out.completed = recorder.completed;
  out.committed_total = recorder.committed_total;
  out.window_aborted = recorder.window_aborted;
  out.window_timed_out = recorder.window_timed_out;
  return out;
}

uint64_t SumMsgs(const std::vector<carousel::sim::Traffic>& t) {
  uint64_t n = 0;
  for (const auto& x : t) n += x.msgs_sent;
  return n;
}

uint64_t SumBytes(const std::vector<carousel::sim::Traffic>& t) {
  uint64_t n = 0;
  for (const auto& x : t) n += x.bytes_sent;
  return n;
}

/// The replica must reproduce bench::RunSystem bit for bit.
void CheckAgainstRunSystem(uint64_t seed, const SubRun& mine,
                           Report* report) {
  auto generator = Generator();
  const bench::BenchRun ref = bench::RunSystem(
      bench::SystemKind::kCarouselFast,
      bench::LocalClusterTopology(kClientsPerDc), generator.get(),
      DriverOptions(seed, kSteadyTps), bench::ThroughputCostModel(), seed,
      /*batching=*/false);
  const workload::RunResult& a = ref.result;
  const workload::RunResult& b = mine.result;
  const bool same =
      a.arrivals == b.arrivals && a.dropped == b.dropped &&
      a.committed == b.committed && a.aborted == b.aborted &&
      a.timed_out == b.timed_out && a.latency.count() == b.latency.count() &&
      a.latency.Quantile(0.5) == b.latency.Quantile(0.5) &&
      a.latency.Quantile(0.99) == b.latency.Quantile(0.99) &&
      SumMsgs(ref.traffic) == SumMsgs(mine.traffic) &&
      SumBytes(ref.traffic) == SumBytes(mine.traffic) &&
      ref.wanrt.committed == mine.wanrt.committed &&
      ref.wanrt.fast_path_txns == mine.wanrt.fast_path_txns;
  report->Check(same, Format("sim replica reproduces bench::RunSystem "
                             "(seed %llu: committed %llu vs %llu, arrivals "
                             "%llu vs %llu)",
                             (unsigned long long)seed,
                             (unsigned long long)b.committed,
                             (unsigned long long)a.committed,
                             (unsigned long long)b.arrivals,
                             (unsigned long long)a.arrivals));
}

void CheckSubRun(const SubRun& s, Report* report) {
  const workload::RunResult& r = s.result;
  report->Check(s.completed == s.launched,
                Format("sim: every launched transaction finished (%llu of "
                       "%llu)",
                       (unsigned long long)s.completed,
                       (unsigned long long)s.launched));
  // The recorder's independent window tallies equal the workload
  // driver's.
  report->Check(s.latency_ms.size() == r.committed &&
                    s.window_aborted == r.aborted &&
                    s.window_timed_out == r.timed_out,
                Format("sim: window outcomes agree (committed %zu/%llu, "
                       "aborted %llu/%llu, timed out %llu/%llu)",
                       s.latency_ms.size(), (unsigned long long)r.committed,
                       (unsigned long long)s.window_aborted,
                       (unsigned long long)r.aborted,
                       (unsigned long long)s.window_timed_out,
                       (unsigned long long)r.timed_out));
  report->Check(r.committed > 0 && r.arrivals > 0,
                "sim: arrivals and commits in the window");
  report->Check(r.dropped <= r.arrivals,
                "sim: refused arrivals <= attempted arrivals");
}

/// Figures pooled over sub-runs.
struct Pool {
  std::vector<double> lat, rw, ro;
  double window_s = 0, wall_s = 0, cpu_s = 0, sim_s = 0;
  uint64_t arrivals = 0, dropped = 0, committed = 0, aborted = 0,
           timed_out = 0, events = 0, committed_total = 0, msgs = 0,
           bytes = 0;
  int runs = 0;
  carousel::obs::WanrtStats wanrt;

  void Add(const SubRun& s) {
    lat.insert(lat.end(), s.latency_ms.begin(), s.latency_ms.end());
    rw.insert(rw.end(), s.rw_ms.begin(), s.rw_ms.end());
    ro.insert(ro.end(), s.ro_ms.begin(), s.ro_ms.end());
    window_s += s.result.window_seconds;
    wall_s += s.wall_s;
    cpu_s += s.cpu_s;
    sim_s += s.sim_end / 1e6;
    arrivals += s.result.arrivals;
    dropped += s.result.dropped;
    committed += s.result.committed;
    aborted += s.result.aborted;
    timed_out += s.result.timed_out;
    events += s.events;
    committed_total += s.committed_total;
    msgs += SumMsgs(s.traffic);
    bytes += SumBytes(s.traffic);
    wanrt.Merge(s.wanrt);
    runs++;
  }
  double tps() const { return committed / std::max(1e-9, window_s); }
  double fail_rate() const {
    return (timed_out + dropped) / std::max<double>(1, arrivals);
  }
  double sim_speed() const { return sim_s / std::max(1e-9, wall_s); }
  double events_per_commit() const {
    return events / std::max<double>(1, committed_total);
  }
  std::string Counts() const {
    return Format(
        "%d sub-run(s): arrivals %llu, refused %llu, committed %llu, "
        "aborted %llu, timed out %llu (window); events %llu, msgs %llu, "
        "bytes %llu (window); wanrt fast/slow/degraded %llu/%llu/%llu",
        runs, (unsigned long long)arrivals, (unsigned long long)dropped,
        (unsigned long long)committed, (unsigned long long)aborted,
        (unsigned long long)timed_out, (unsigned long long)events,
        (unsigned long long)msgs, (unsigned long long)bytes,
        (unsigned long long)wanrt.fast_path_txns,
        (unsigned long long)wanrt.slow_path_txns,
        (unsigned long long)wanrt.degraded_txns);
  }
};

}  // namespace

void RunSimFig5(const Args& args, Report* report) {
  // One 1000 tps sub-run per requested second (each takes about half a
  // wall second, plus the RunSystem cross-check and set-ups). The count
  // depends on --seconds only: sim-time results are a pure function of
  // the arguments.
  const int runs = std::max(1, args.seconds);
  carousel::Rng seeder(args.seed);
  std::vector<uint64_t> seeds;
  for (int i = 0; i < runs; ++i) {
    seeds.push_back(seeder.NextU64() % 1'000'000'007ull);
  }
  auto set_up = [](uint64_t seed) {
    const int64_t t0 = NowNs();
    core::Cluster cluster(bench::LocalClusterTopology(kClientsPerDc),
                          Options(), carousel::sim::NetworkOptions{}, seed);
    cluster.Start();
    return (NowNs() - t0) / 1e9;
  };
  // One set-up first, so the resident set after it reflects a fresh
  // process. It is untimed: it pays one-off heap growth.
  set_up(seeds[0]);
  const double setup_rss_mb = CurrentRssMb();
  std::vector<double> setups;
  Pool steady;
  std::vector<double> cpu_ms_per_commit;
  const Usage u0 = Usage::Now();
  for (int i = 0; i < runs; ++i) {
    for (int k = 0; k < kSetupsPerSubRun; ++k) {
      setups.push_back(set_up(seeds[i] + 1 + k));
    }
    const SubRun sub = RunDirect(seeds[i], kSteadyTps);
    CheckSubRun(sub, report);
    if (i == 0) CheckAgainstRunSystem(seeds[0], sub, report);
    steady.Add(sub);
    cpu_ms_per_commit.push_back(
        1000.0 * sub.cpu_s / std::max<double>(1, sub.result.committed));
  }
  const Usage u1 = Usage::Now();
  report->Add("runtime.host_steal_frac",
              u1.host_total > u0.host_total
                  ? (u1.host_steal - u0.host_steal) /
                        (u1.host_total - u0.host_total)
                  : 0,
              "frac", 1);
  report->attempted = steady.arrivals;
  report->failed = steady.timed_out + steady.dropped;
  report->Note("steady point (1000 tps offered): " + steady.Counts());

  const auto n = static_cast<int64_t>(steady.committed);
  const double c = std::max<double>(1, steady.committed);
  const double att = std::max<double>(1, steady.arrivals);
  if (!args.trace) {
    report->Add("commit_tps", steady.tps(), "txn/s", n);
    report->Add("commit_p50_ms", Quantile(steady.lat, 0.5), "ms", n);
    report->Add("rw_p50_ms", Quantile(steady.rw, 0.5), "ms",
                static_cast<int64_t>(steady.rw.size()));
    report->Add("setup_s", Median(setups), "s",
                static_cast<int64_t>(setups.size()));
    report->Add("setup_rss_mb", setup_rss_mb, "MB", 1);
  }
  report->Add("workload.abort_rate", steady.aborted / att, "frac",
              static_cast<int64_t>(steady.arrivals));
  report->Add("workload.fail_rate", steady.fail_rate(), "frac",
              static_cast<int64_t>(steady.arrivals));
  report->Add("workload.ro_p50_ms", Quantile(steady.ro, 0.5), "ms",
              static_cast<int64_t>(steady.ro.size()));
  report->Add("workload.commit_p90_ms", Quantile(steady.lat, 0.90), "ms",
              n);
  report->Add("workload.commit_p99_ms", Quantile(steady.lat, 0.99), "ms",
              n);
  report->Add("runtime.cpu_us_per_commit", 1000.0 * Median(cpu_ms_per_commit),
              "us", n);
  report->Add("sim.sim_speed", steady.sim_speed(), "sim_s/s", runs);
  report->Add("sim.events_per_commit", steady.events_per_commit(), "count",
              static_cast<int64_t>(steady.committed_total));
  report->Add("sim.wall_ns_per_event",
              1e9 * steady.wall_s / std::max<double>(1, steady.events), "ns",
              static_cast<int64_t>(steady.events));
  report->Add("sim.msgs_per_commit", steady.msgs / c, "count", n);
  report->Add("sim.bytes_per_commit", steady.bytes / c, "B", n);
  const carousel::obs::WanrtStats& w = steady.wanrt;
  // Degraded transactions are a subset of the slow-path ones.
  const double paths =
      static_cast<double>(w.fast_path_txns + w.slow_path_txns);
  report->Add("obs.fast_path_frac", paths > 0 ? w.fast_path_txns / paths : 0,
              "frac", static_cast<int64_t>(paths));
  report->Add("obs.degraded_frac", paths > 0 ? w.degraded_txns / paths : 0,
              "frac", static_cast<int64_t>(paths));
  report->Add("obs.rw_p50_wanrts",
              carousel::obs::WanrtStats::HopsQuantile(w.rw_decided_hops,
                                                      0.5) /
                  2.0,
              "wanrt", static_cast<int64_t>(w.committed));
  if (!args.trace) return;

  // The collapse past the knee: one sub-run from this run's seed.
  Pool overload;
  const SubRun sub = RunDirect(seeds[0], kOverloadTps);
  CheckSubRun(sub, report);
  overload.Add(sub);
  report->Note("overload point (6000 tps offered): " + overload.Counts());
  const auto oatt = static_cast<int64_t>(overload.arrivals);
  const double oa = std::max<double>(1, overload.arrivals);
  report->Add("sim.overload_commit_tps", overload.tps(), "txn/s",
              static_cast<int64_t>(overload.committed));
  report->Add("sim.overload_fail_rate", overload.fail_rate(), "frac", oatt);
  report->Add("sim.timed_out_frac", overload.timed_out / oa, "frac", oatt);
  report->Add("sim.dropped_arrival_frac", overload.dropped / oa, "frac",
              oatt);
  report->Add("sim.overload_events_per_commit", overload.events_per_commit(),
              "count", static_cast<int64_t>(overload.committed_total));
  report->Add("sim.overload_sim_speed", overload.sim_speed(), "sim_s/s", 1);
  // The simulator path carries no span decorators.
  report->Add("trace.overhead_frac", 0, "frac", 0);
}

}  // namespace perfbench
