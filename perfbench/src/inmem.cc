// social-text and deep-parallel: in-memory decompositions from an input
// file, the paper's TD-inmem+ on the default path and the PKT-style
// parallel peel on a deep hierarchy.
#include <filesystem>
#include <numeric>
#include <set>

#include "engine/engine.h"
#include "graph/text_io.h"
#include "inputs.h"
#include "triangle/triangle.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace eng = truss::engine;

struct InMemSpec {
  bool snap_text = true;  // SNAP text input (else a TRSB snapshot)
  eng::Algorithm algorithm = eng::Algorithm::kImproved;
  eng::Algorithm oracle_algorithm = eng::Algorithm::kParallel;
  uint32_t threads = 1;
};

InMemSpec SocialSpec() { return {true, eng::Algorithm::kImproved,
                                 eng::Algorithm::kParallel, 1}; }

InMemSpec DeepSpec(uint32_t nproc) {
  return {false, eng::Algorithm::kParallel, eng::Algorithm::kImproved, nproc};
}

std::string InputPath(const RunOptions& o, const InMemSpec& spec) {
  return o.dir + (spec.snap_text ? "/input.txt" : "/input.trsb");
}

eng::DecomposeOptions Options(eng::Algorithm algorithm, uint32_t threads) {
  eng::DecomposeOptions options;
  options.algorithm = algorithm;
  options.threads = threads;
  return options;
}

uint64_t DistinctClasses(const std::vector<uint32_t>& truss) {
  return std::set<uint32_t>(truss.begin(), truss.end()).size();
}

Prepared PrepareInMem(const RunOptions& o, const InMemSpec& spec) {
  Prepared p;
  const std::string path = InputPath(o, spec);
  while (MoreSetupReps(p.setup_seconds)) {
    const double t0 = Now();
    const truss::Graph g = spec.snap_text ? BlogLike(o.seed) : LjLike(o.seed);
    const truss::Status st =
        spec.snap_text ? truss::WriteEdgeList(g, path) : g.SaveBinary(path);
    p.setup_seconds.push_back(Now() - t0);
    if (!st.ok()) {
      p.error = "writing input: " + st.ToString();
      return p;
    }
  }
  // The oracle decomposes the same file with a different algorithm.
  auto loaded = eng::Engine::LoadGraphFile(path, 1);
  if (!loaded.ok()) {
    p.error = "loading input: " + loaded.status().ToString();
    return p;
  }
  const truss::Graph& g = loaded.value().graph;
  auto out = eng::Engine::Decompose(g, Options(spec.oracle_algorithm, 1));
  if (!out.ok()) {
    p.error = "oracle: " + out.status().ToString();
    return p;
  }
  const std::vector<uint32_t>& truss = out.value().result.truss_number;
  if (!WriteU32File(o.dir + "/oracle.u32", truss)) {
    p.error = "writing oracle";
    return p;
  }
  p.counts["edges"] = g.num_edges();
  p.counts["truss.kmax"] = out.value().result.kmax;
  p.counts["truss.classes"] = DistinctClasses(truss);
  p.counts["triangle.triangles"] = truss::CountTriangles(g);
  return p;
}

// One request outside tracing: the user path, file in -> truss numbers out.
truss::Result<eng::DecomposeOutput> RunRequest(const std::string& path,
                                               const InMemSpec& spec) {
  const eng::DecomposeOptions options = Options(spec.algorithm, spec.threads);
  if (spec.snap_text) return eng::Engine::DecomposeSnapFile(path, options);
  auto loaded = eng::Engine::LoadGraphFile(path, spec.threads);
  if (!loaded.ok()) return loaded.status();
  return eng::Engine::Decompose(loaded.value().graph, options);
}

// Per-layer samples of the traced requests.
struct LayerSamples {
  std::vector<double> ingest, decompose, decompose_cpu, support, support_cpu;
  std::vector<double> threads_spawned, request;
  uint64_t triangles = 0;
};

void MeasureInMem(const RunOptions& o, const InMemSpec& spec, Tracer& tracer,
                  Report* report) {
  const std::string path = InputPath(o, spec);
  const std::vector<uint32_t> oracle = ReadU32File(o.dir + "/oracle.u32");
  const std::string ingest_span =
      spec.snap_text ? "graph.read_snap" : "graph.load_binary";
  std::vector<double> walls, cpus;
  LayerSamples layer;
  uint64_t kmax = 0, classes = 0;

  const double deadline = Now() + o.seconds;
  for (uint64_t rep = 0; Now() < deadline || rep < kMinRequests; ++rep) {
    ++report->attempted;
    // A traced run alternates untraced and traced requests: the untraced
    // ones give the baseline for the tracing overhead.
    const bool traced = tracer.enabled() && rep % 2 == 1;
    if (!traced) {
      const double w0 = Now(), c0 = ProcessCpu();
      auto out = RunRequest(path, spec);
      walls.push_back(Now() - w0);
      cpus.push_back(ProcessCpu() - c0);
      if (!out.ok()) {
        report->Fail("decompose: " + out.status().ToString());
      } else if (out.value().result.truss_number != oracle) {
        report->Fail("truss numbers differ from the oracle");
      }
      continue;
    }
    const double r0 = Now();
    const int32_t request = tracer.Begin("driver.request", rep);
    const int32_t ingest = tracer.Begin(ingest_span, rep);
    auto loaded = eng::Engine::LoadGraphFile(path, spec.threads);
    tracer.End(ingest);
    if (!loaded.ok()) {
      tracer.End(request);
      report->Fail("load: " + loaded.status().ToString());
      continue;
    }
    const truss::Graph& g = loaded.value().graph;
    const uint64_t spawned0 = ThreadsSpawned();
    const int32_t decompose = tracer.Begin("engine.decompose", rep);
    auto out = eng::Engine::Decompose(g, Options(spec.algorithm, spec.threads));
    tracer.End(decompose);
    const uint64_t spawned = ThreadsSpawned() - spawned0;
    tracer.End(request);
    layer.request.push_back(Now() - r0);
    if (!out.ok()) {
      report->Fail("decompose: " + out.status().ToString());
      continue;
    }
    const Span& ds = tracer.spans()[static_cast<size_t>(decompose)];
    // The engine's own phase split becomes the decompose span's children,
    // so the self time of engine, triangle and truss separates.
    const eng::DecomposeStats& stats = out.value().stats;
    tracer.Add("triangle.support_init", ds.start,
               ds.start + stats.support_seconds, decompose, rep);
    tracer.Add("truss.peel", ds.start + stats.support_seconds,
               ds.start + stats.support_seconds + stats.peel_seconds,
               decompose, rep);
    if (out.value().result.truss_number != oracle) {
      report->Fail("truss numbers differ from the oracle");
    }
    kmax = out.value().result.kmax;
    classes = DistinctClasses(out.value().result.truss_number);
    layer.ingest.push_back(tracer.spans()[static_cast<size_t>(ingest)].end -
                           tracer.spans()[static_cast<size_t>(ingest)].start);
    layer.decompose.push_back(ds.end - ds.start);
    layer.decompose_cpu.push_back(ds.cpu);
    layer.threads_spawned.push_back(static_cast<double>(spawned));

    // Support init on its own, outside the request envelope.
    const int32_t support = tracer.Begin("triangle.support", rep);
    const std::vector<uint32_t> sup =
        truss::ComputeEdgeSupports(g, spec.threads);
    tracer.End(support);
    const Span& ss = tracer.spans()[static_cast<size_t>(support)];
    layer.support.push_back(ss.end - ss.start);
    layer.support_cpu.push_back(ss.cpu);
    layer.triangles =
        std::accumulate(sup.begin(), sup.end(), uint64_t{0}) / 3;
  }

  SetBatchRequestMetrics(walls, cpus, report);
  if (!tracer.enabled()) return;

  const double decompose = Median(layer.decompose);
  const double decompose_cpu = Median(layer.decompose_cpu);
  const double support = Median(layer.support);
  const double support_cpu = Median(layer.support_cpu);
  report->Set(spec.snap_text ? "graph.read_snap_s" : "graph.load_binary_s",
              Median(layer.ingest), "s");
  report->Set("graph.input_mb",
              static_cast<double>(std::filesystem::file_size(path)) /
                  (1024.0 * 1024.0),
              "MiB");
  report->Set("triangle.support_s", support, "s");
  report->Set("triangle.support_cpu_s", support_cpu, "s");
  report->Set("triangle.triangles", static_cast<double>(layer.triangles),
              "count");
  report->Set("truss.peel_s", decompose - support, "s");
  report->Set("truss.peel_cpu_s", decompose_cpu - support_cpu, "s");
  report->Set("truss.kmax", static_cast<double>(kmax), "count");
  report->Set("truss.classes", static_cast<double>(classes), "count");
  report->Set("engine.decompose_s", decompose, "s");
  report->Set("common.parallelism", decompose > 0 ? decompose_cpu / decompose : 0,
              "ratio");
  report->Set("common.threads_spawned", Median(layer.threads_spawned), "count");
  report->Set("trace.overhead_s", Median(layer.request) - Median(walls), "s");
  report->counts["triangle.triangles"] = layer.triangles;
  report->counts["truss.kmax"] = kmax;
  report->counts["truss.classes"] = classes;
}

}  // namespace

void SetBatchRequestMetrics(const std::vector<double>& walls,
                            const std::vector<double>& cpus, Report* report) {
  const double median = Median(walls);
  report->Set("wall_s", median, "s");
  report->Set("cpu_s", Median(cpus), "s");
  report->Set("p50_us", median * 1e6, "us");
  // One client issuing requests back to back completes 1/latency per
  // second; the median keeps one slow request from moving it.
  report->Set("max_qps", median > 0 ? 1.0 / median : 0.0, "1/s");
}

Prepared PrepareSocialText(const RunOptions& o) {
  return PrepareInMem(o, SocialSpec());
}

Prepared PrepareDeepParallel(const RunOptions& o) {
  return PrepareInMem(o, DeepSpec(o.nproc));
}

void MeasureSocialText(const RunOptions& o, Tracer& tracer, Report* report) {
  MeasureInMem(o, SocialSpec(), tracer, report);
}

void MeasureDeepParallel(const RunOptions& o, Tracer& tracer, Report* report) {
  MeasureInMem(o, DeepSpec(o.nproc), tracer, report);
}

}  // namespace perfbench
