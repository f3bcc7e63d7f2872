// The four benchmark workloads. Each has a prepare step (generate the
// input from the seed, write it, compute the oracle answers) and a measure
// step (run the workload for the requested time, check every answer
// against the oracle, fill the report). The two steps run in separate
// processes so the measured process's peak RSS holds no oracle work.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace perfbench {

/// Result of one prepare step.
struct Prepared {
  /// Wall seconds of each set-up repetition (generate + write the input).
  std::vector<double> setup_seconds;
  /// Exact facts about the input and its oracle answers.
  std::map<std::string, uint64_t> counts;
  std::string error;  // non-empty on failure
};

Prepared PrepareSocialText(const RunOptions& o);
Prepared PrepareDeepParallel(const RunOptions& o);
Prepared PrepareExternalBudget(const RunOptions& o);
Prepared PrepareServeMixed(const RunOptions& o);

void MeasureSocialText(const RunOptions& o, Tracer& tracer, Report* report);
void MeasureDeepParallel(const RunOptions& o, Tracer& tracer, Report* report);
void MeasureExternalBudget(const RunOptions& o, Tracer& tracer,
                           Report* report);
void MeasureServeMixed(const RunOptions& o, Tracer& tracer, Report* report);

/// Sets every end-to-end metric of a batch workload, whose requests are
/// whole decompositions issued back to back by one client (closed loop):
/// `walls` and `cpus` hold one entry per request.
void SetBatchRequestMetrics(const std::vector<double>& walls,
                            const std::vector<double>& cpus, Report* report);

/// Set-up repeats at least kSetupReps times and until kSetupSeconds have
/// gone into it (at most kMaxSetupReps times); setup_s is the median, so
/// a short set-up gets enough samples for a steady one.
inline constexpr size_t kSetupReps = 3;
inline constexpr size_t kMaxSetupReps = 15;
inline constexpr double kSetupSeconds = 3.0;

/// Whether another set-up repetition is due after the timed ones in `done`.
inline bool MoreSetupReps(const std::vector<double>& done) {
  double total = 0.0;
  for (double s : done) total += s;
  return done.size() < kSetupReps ||
         (total < kSetupSeconds && done.size() < kMaxSetupReps);
}
/// Every workload runs at least this many measured requests, even when
/// --seconds would allow fewer, so medians always have company.
inline constexpr int kMinRequests = 3;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
