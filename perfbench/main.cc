// carousel_perf — the repository benchmark's measuring program.
//
//   carousel_perf --workload=NAME --seed=N --seconds=S --trace=0|1
//                 [--work-dir=DIR]
//
// Workloads: retwis-wan-open, retwis-wan-tcp, ycsbt-wan-wal (threaded
// runtime) and sim-fig5 (deterministic simulator). Prints a ledger of
// every metric with unit and sample count, then one line
// `PERFBENCH_RESULT {json}` carrying all metrics and the correctness
// verdict. perfbench/run.py builds this program and turns that line into
// the benchmark's result. Exits 1 when any correctness check fails.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "rt.h"
#include "sim.h"

namespace {

using perfbench::Args;

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds >= 1;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += " ";
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: carousel_perf --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 [--work-dir=DIR]\n");
    return 2;
  }
  perfbench::Report report;
  if (perfbench::IsRtWorkload(args.workload)) {
    perfbench::RunRtWorkload(args, &report);
  } else if (args.workload == "sim-fig5") {
    perfbench::RunSimFig5(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  report.Add("runtime.peak_rss_mb", perfbench::PeakRssMb(), "MB", 1);

  std::printf("== %s seed=%llu seconds=%d trace=%d ==\n",
              args.workload.c_str(), (unsigned long long)args.seed,
              args.seconds, args.trace ? 1 : 0);
  for (const std::string& line : report.notes()) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("%-44s %14s %-8s %10s\n", "metric", "value", "unit", "samples");
  for (const perfbench::Metric& m : report.metrics()) {
    std::printf("%-44s %14.6g %-8s %10lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  for (const std::string& f : report.failures()) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("attempted %llu, failed %llu, correct %s\n",
              (unsigned long long)report.attempted,
              (unsigned long long)report.failed,
              report.correct() ? "yes" : "NO");

  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"failures\": [";
  for (size_t i = 0; i < report.failures().size(); ++i) {
    json += (i ? ", " : "") + JsonString(report.failures()[i]);
  }
  json += "], \"metrics\": {";
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const perfbench::Metric& m = report.metrics()[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}}";
  std::printf("PERFBENCH_RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
