// trussbench: the benchmark driver behind perfbench/run.py.
//
//   trussbench prepare --workload W --seed S --dir D
//     Generates W's input from seed S under directory D, writes the oracle
//     answers beside it, and prints one JSON line with the set-up times,
//     the input's exact counts and the host's memory latency.
//
//   trussbench measure --workload W --seed S --dir D --seconds T
//                      --trace 0|1 [--trace-out FILE]
//     Runs W for T seconds against the prepared input, checking every
//     answer against the oracle. Prints a host-calibration JSON line, then
//     the report as the last line. With --trace 1 the report carries the
//     per-layer metrics and the spans go to FILE.
//
// Workloads: social-text, deep-parallel, external-budget, serve-mixed.
// Parallel workloads use as many threads as the process may run CPUs.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "host.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Prepared;
using perfbench::Report;
using perfbench::RunOptions;
using perfbench::Tracer;

struct Workload {
  const char* name;
  Prepared (*prepare)(const RunOptions&);
  void (*measure)(const RunOptions&, Tracer&, Report*);
};

constexpr Workload kWorkloads[] = {
    {"social-text", perfbench::PrepareSocialText, perfbench::MeasureSocialText},
    {"deep-parallel", perfbench::PrepareDeepParallel,
     perfbench::MeasureDeepParallel},
    {"external-budget", perfbench::PrepareExternalBudget,
     perfbench::MeasureExternalBudget},
    {"serve-mixed", perfbench::PrepareServeMixed, perfbench::MeasureServeMixed},
};

int Usage() {
  std::fprintf(stderr,
               "usage: trussbench prepare|measure --workload W --seed S "
               "--dir D [--seconds T] [--trace 0|1] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  RunOptions o;
  o.nproc = perfbench::AllowedCpus();
  std::string trace_out;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--dir") {
      o.dir = value;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) workload = &w;
  }
  if (workload == nullptr || o.dir.empty()) return Usage();
  std::filesystem::create_directories(o.dir);

  if (mode == "prepare") {
    const Prepared p = workload->prepare(o);
    std::printf("{\"setup_seconds\": [");
    for (size_t i = 0; i < p.setup_seconds.size(); ++i) {
      std::printf("%s%.9f", i == 0 ? "" : ", ", p.setup_seconds[i]);
    }
    std::printf("], \"memory_access_ns\": %.4f, \"counts\": %s, "
                "\"error\": \"%s\"}\n",
                p.error.empty() ? perfbench::MemoryAccessNs() : 0.0,
                perfbench::CountsJson(p.counts).c_str(),
                perfbench::JsonEscape(p.error).c_str());
    return p.error.empty() ? 0 : 1;
  }
  if (mode != "measure") return Usage();

  const std::vector<double> spin = perfbench::SpinParallelism(o.nproc);
  const perfbench::CpuTicks ticks0 = perfbench::ReadCpuTicks();
  Tracer tracer(o.trace);
  Report report;
  workload->measure(o, tracer, &report);
  const double steal =
      perfbench::StealShare(ticks0, perfbench::ReadCpuTicks());
  report.Set("peak_rss_mb", perfbench::PeakRssMb(), "MiB");
  if (tracer.enabled()) {
    report.self_seconds = tracer.SelfSecondsByLayer();
    if (!trace_out.empty() && !tracer.WriteJson(trace_out)) {
      report.Fail("cannot write the trace to " + trace_out);
    }
  }

  std::printf("{\"calibration\": {\"nproc\": %u, \"spin_parallelism\": [",
              o.nproc);
  for (size_t i = 0; i < spin.size(); ++i) {
    std::printf("%s%.4f", i == 0 ? "" : ", ", spin[i]);
  }
  std::printf("], \"steal_share\": %.6f}}\n", steal);
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
