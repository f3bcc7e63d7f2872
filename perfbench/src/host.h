// Host calibration recorded beside every result set, so that numbers taken
// on a host whose vCPUs are not real cores, or were stolen during the run,
// can be recognized as such.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// CPUs this process may run on (its affinity mask), at least 1. Parallel
/// workloads run that many threads.
uint32_t AllowedCpus();

/// Effective parallelism of a compute-only spin loop at t = 1..nproc
/// threads: the summed thread-CPU time divided by wall time. A host with
/// t real cores gives about t.
std::vector<double> SpinParallelism(uint32_t nproc);

/// Nanoseconds per dependent load of a random walk over 64 MiB: the
/// host's memory latency at the time of the run. Memory-bound workloads
/// follow it when neighbouring guests load the host's caches and memory.
/// It allocates 64 MiB, so it runs outside the measured process.
double MemoryAccessNs();

/// Aggregate CPU time counters from /proc/stat, in clock ticks.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Share of CPU time stolen by the hypervisor between two readings.
double StealShare(const CpuTicks& start, const CpuTicks& end);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
