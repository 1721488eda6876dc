#ifndef CAROUSEL_PERFBENCH_COMMON_H_
#define CAROUSEL_PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Working directory for WALs and span dumps.
  std::string work_dir = ".bench_build/work";
};

/// One named result, with the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};

/// What one benchmark invocation measured and checked.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  /// Records a correctness check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  /// A free-form line for the printed ledger.
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failures_.empty(); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::string>& notes() const { return notes_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

/// Monotonic clock in nanoseconds (also the span time base).
int64_t NowNs();

/// Exact quantile with linear interpolation between order statistics (0
/// for an empty sample).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Quantile(const std::vector<int64_t>& values, double q);

/// Process resource usage since start (all threads), plus the machine's
/// CPU time stolen by the hypervisor (/proc/stat), which inflates every
/// wall-clock figure of a run and is reported beside them.
struct Usage {
  double cpu_s = 0;         // user + system
  double ctx_switches = 0;  // voluntary + involuntary
  double host_steal = 0;    // /proc/stat steal jiffies, all CPUs
  double host_total = 0;    // /proc/stat jiffies of every state, all CPUs
  static Usage Now();
};
double PeakRssMb();
/// Resident set size now (0 if unavailable).
double CurrentRssMb();

/// Bytes in regular files under `dir`, recursively (0 if missing).
uint64_t DirectoryBytes(const std::string& dir);

/// printf-style std::string.
std::string Format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // CAROUSEL_PERFBENCH_COMMON_H_
