#include "host.h"

#include <sched.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace perfbench {

namespace {

// A compute-only loop whose result depends on every iteration.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

uint32_t AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 1;
  return static_cast<uint32_t>(std::max(1, CPU_COUNT(&allowed)));
}

std::vector<double> SpinParallelism(uint32_t nproc) {
  constexpr uint64_t kIterations = 30'000'000;  // ~20 ms per shard
  std::vector<double> out;
  for (uint32_t t = 1; t <= nproc; ++t) {
    std::vector<double> cpu(t, 0.0);
    std::vector<uint64_t> sink(t, 0);  // the loops' results, kept live
    const double w0 = Now();
    truss::RunShards(t, [&](uint32_t shard) {
      const double c0 = ThreadCpu();
      sink[shard] = Spin(kIterations);
      cpu[shard] = ThreadCpu() - c0;
    });
    const double wall = Now() - w0;
    double total = 0.0;
    for (double c : cpu) total += c;
    out.push_back(wall > 0 ? total / wall : 0.0);
  }
  return out;
}

double MemoryAccessNs() {
  constexpr size_t kSlots = size_t{1} << 23;  // 8-byte slots: 64 MiB
  constexpr size_t kSteps = size_t{1} << 21;
  // Sattolo's shuffle makes one cycle through every slot, so the walk
  // never settles into a short loop that fits in cache.
  std::vector<uint64_t> next(kSlots);
  std::iota(next.begin(), next.end(), uint64_t{0});
  truss::Rng rng(0x6d656d);
  for (size_t i = kSlots - 1; i > 0; --i) {
    std::swap(next[i], next[rng.Uniform(i)]);
  }
  uint64_t at = 0;
  const double t0 = Now();
  for (size_t step = 0; step < kSteps; ++step) at = next[at];
  const double ns = (Now() - t0) * 1e9 / static_cast<double>(kSteps);
  // Keeps the walk live: `at` is never equal to kSlots.
  return at == kSlots ? 0.0 : ns;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal guest guest_nice
  uint64_t field = 0;
  for (int i = 0; i < 8 && (in >> field); ++i) {
    ticks.total += field;
    if (i == 7) ticks.steal = field;
  }
  return ticks;
}

double StealShare(const CpuTicks& start, const CpuTicks& end) {
  const uint64_t total = end.total - start.total;
  return total == 0 ? 0.0
                    : static_cast<double>(end.steal - start.steal) /
                          static_cast<double>(total);
}

}  // namespace perfbench
