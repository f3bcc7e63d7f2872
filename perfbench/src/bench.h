// Shared helpers of the perfbench driver: clocks, resource usage, sample
// statistics and the metric/count record every workload fills in.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double Now();
/// User + system CPU seconds of the whole process (all threads).
double ProcessCpu();
/// CPU seconds of the calling thread.
double ThreadCpu();
/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();
/// pthread_create calls made by this process so far (thread_count.cc).
uint64_t ThreadsSpawned();

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Reads a whole binary file of uint32 values; empty on failure.
std::vector<uint32_t> ReadU32File(const std::string& path);
/// Writes `v` as raw uint32 values. Returns false on failure.
bool WriteU32File(const std::string& path, const std::vector<uint32_t>& v);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one measure invocation reports.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Metric name -> value and unit, emitted in the final JSON line.
  std::map<std::string, Metric> metrics;
  /// Exact counts that must repeat for a given seed (drift check).
  std::map<std::string, uint64_t> counts;
  /// Per-layer self time of the traced requests (trace runs only).
  std::map<std::string, double> self_seconds;
  /// Failure descriptions (first few only).
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& what);
  /// One JSON object with every field above.
  std::string ToJson() const;
};

/// Options common to every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  std::string dir;  // work directory for inputs, oracle and scratch files
  double seconds = 10.0;
  bool trace = false;
  uint32_t nproc = 1;
};

/// Escapes `s` for a JSON string body.
std::string JsonEscape(const std::string& s);

/// A name -> count map as one JSON object.
std::string CountsJson(const std::map<std::string, uint64_t>& counts);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
