// external-budget: the I/O-efficient algorithms over a sorted GEdgeRecord
// file at a memory budget of half the graph's in-memory footprint —
// bottom-up full decomposition, then top-down for the top class only.
#include <algorithm>
#include <filesystem>
#include <set>
#include <utility>

#include "engine/engine.h"
#include "inputs.h"
#include "io/edge_records.h"
#include "io/env.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace eng = truss::engine;
namespace fs = std::filesystem;

// The Blog-like graph at this many BA vertices; smaller than social-text's
// so one run holds several repetitions of both external algorithms.
constexpr truss::VertexId kExternalVertices = 40000;
constexpr size_t kBlockBytes = 64 * 1024;
constexpr const char* kInput = "input.gedge";

std::string EnvDir(const RunOptions& o) { return o.dir + "/env"; }

// Oracle layout: edges as (u, v) pairs in (u, v) order, truss numbers in
// the same order.
struct Oracle {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  std::vector<uint32_t> truss;
  uint32_t kmax = 0;

  int64_t Find(uint32_t u, uint32_t v) const {
    const auto it = std::lower_bound(edges.begin(), edges.end(),
                                     std::make_pair(u, v));
    if (it == edges.end() || *it != std::make_pair(u, v)) return -1;
    return it - edges.begin();
  }
};

Oracle LoadOracle(const RunOptions& o) {
  Oracle oracle;
  const std::vector<uint32_t> flat = ReadU32File(o.dir + "/oracle_edges.u32");
  for (size_t i = 0; i + 1 < flat.size(); i += 2) {
    oracle.edges.emplace_back(flat[i], flat[i + 1]);
  }
  oracle.truss = ReadU32File(o.dir + "/oracle.u32");
  for (uint32_t k : oracle.truss) oracle.kmax = std::max(oracle.kmax, k);
  return oracle;
}

std::vector<truss::io::ClassRecord> ReadClasses(const std::string& path) {
  std::vector<truss::io::ClassRecord> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  truss::io::ClassRecord rec;
  while (std::fread(&rec, sizeof(rec), 1, f) == 1) out.push_back(rec);
  std::fclose(f);
  return out;
}

// Full decomposition: exactly one record per edge, each with the oracle's
// truss number.
std::string CheckAllClasses(const Oracle& oracle,
                            const std::vector<truss::io::ClassRecord>& got) {
  std::vector<bool> seen(oracle.edges.size(), false);
  for (const auto& rec : got) {
    const int64_t e = oracle.Find(rec.u, rec.v);
    if (e < 0 || seen[static_cast<size_t>(e)]) return "unknown or repeated edge";
    seen[static_cast<size_t>(e)] = true;
    if (rec.truss != oracle.truss[static_cast<size_t>(e)]) {
      return "truss number differs from the oracle";
    }
  }
  if (got.size() != oracle.edges.size()) return "edges missing from the output";
  return "";
}

// Top-1 query: the kmax class plus the Φ2 records, and nothing else.
std::string CheckTopClass(const Oracle& oracle,
                          const std::vector<truss::io::ClassRecord>& got) {
  uint64_t want = 0;
  for (uint32_t k : oracle.truss) want += (k == oracle.kmax || k == 2);
  std::vector<bool> seen(oracle.edges.size(), false);
  for (const auto& rec : got) {
    const int64_t e = oracle.Find(rec.u, rec.v);
    if (e < 0 || seen[static_cast<size_t>(e)]) return "unknown or repeated edge";
    seen[static_cast<size_t>(e)] = true;
    const uint32_t k = oracle.truss[static_cast<size_t>(e)];
    if (rec.truss != k || (k != oracle.kmax && k != 2)) {
      return "record outside the top class and Phi2, or wrong class";
    }
  }
  if (got.size() != want) return "top-class edges missing from the output";
  return "";
}

struct OpResult {
  double wall = 0.0;
  double cpu = 0.0;
  truss::ExternalStats stats;
  std::string error;
};

// One timed DecomposeFile call on a fresh copy of the input (the copy is
// consumed and is made outside the timed region).
OpResult RunOp(truss::io::Env& env, uint64_t vertices,
               const eng::DecomposeOptions& options, const std::string& out) {
  OpResult r;
  std::error_code ec;
  fs::copy_file(env.FullPath(kInput), env.FullPath("work.gedge"),
                fs::copy_options::overwrite_existing, ec);
  if (ec) {
    r.error = "copying input: " + ec.message();
    return r;
  }
  env.ResetStats();
  const double w0 = Now(), c0 = ProcessCpu();
  auto stats = eng::Engine::DecomposeFile(
      env, "work.gedge", static_cast<truss::VertexId>(vertices), options, out);
  r.wall = Now() - w0;
  r.cpu = ProcessCpu() - c0;
  if (!stats.ok()) {
    r.error = stats.status().ToString();
  } else {
    r.stats = stats.value().external;
  }
  return r;
}

std::map<std::string, uint64_t> ExactCounts(const truss::ExternalStats& bu,
                                            const truss::ExternalStats& td) {
  return {
      {"io.blocks_read", bu.io.block_reads + td.io.block_reads},
      {"io.blocks_written", bu.io.block_writes + td.io.block_writes},
      {"truss.lower_bound_iterations",
       bu.lower_bound_iterations + td.lower_bound_iterations},
      {"truss.candidate_subgraphs",
       bu.candidate_subgraphs + td.candidate_subgraphs},
      {"truss.candidate_overflows",
       bu.candidate_overflows + td.candidate_overflows},
      {"truss.phi2_edges", bu.phi2_edges + td.phi2_edges},
      {"partition.parts_processed", bu.parts_processed + td.parts_processed},
      {"truss.kmax", bu.kmax},
  };
}

}  // namespace

Prepared PrepareExternalBudget(const RunOptions& o) {
  Prepared p;
  fs::create_directories(EnvDir(o));
  truss::Graph g;
  while (MoreSetupReps(p.setup_seconds)) {
    const double t0 = Now();
    g = BlogLike(o.seed, kExternalVertices);
    std::vector<truss::Edge> edges(g.edges().begin(), g.edges().end());
    std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
      return std::make_pair(a.u, a.v) < std::make_pair(b.u, b.v);
    });
    truss::io::Env env(EnvDir(o), kBlockBytes);
    auto writer = env.OpenWriter(kInput);
    if (!writer.ok()) {
      p.error = writer.status().ToString();
      return p;
    }
    for (const truss::Edge& e : edges) {
      truss::io::GEdgeRecord rec;
      rec.u = e.u;
      rec.v = e.v;
      writer.value()->WriteRecord(rec);
    }
    const truss::Status st = writer.value()->Close();
    p.setup_seconds.push_back(Now() - t0);
    if (!st.ok()) {
      p.error = "writing input: " + st.ToString();
      return p;
    }
  }
  // Oracle: the in-memory TD-inmem+ over the same edges.
  auto out = eng::Engine::Decompose(g, eng::DecomposeOptions{});
  if (!out.ok()) {
    p.error = "oracle: " + out.status().ToString();
    return p;
  }
  std::vector<std::pair<std::pair<uint32_t, uint32_t>, uint32_t>> rows;
  for (truss::EdgeId e = 0; e < g.num_edges(); ++e) {
    rows.push_back({{g.edge(e).u, g.edge(e).v},
                    out.value().result.truss_number[e]});
  }
  std::sort(rows.begin(), rows.end());
  std::vector<uint32_t> flat, truss;
  for (const auto& [uv, k] : rows) {
    flat.push_back(uv.first);
    flat.push_back(uv.second);
    truss.push_back(k);
  }
  if (!WriteU32File(o.dir + "/oracle_edges.u32", flat) ||
      !WriteU32File(o.dir + "/oracle.u32", truss)) {
    p.error = "writing oracle";
    return p;
  }
  p.counts["edges"] = g.num_edges();
  p.counts["vertices"] = g.num_vertices();
  p.counts["truss.kmax"] = out.value().result.kmax;
  p.counts["truss.classes"] = std::set<uint32_t>(truss.begin(), truss.end()).size();
  return p;
}

void MeasureExternalBudget(const RunOptions& o, Tracer& tracer,
                           Report* report) {
  const Oracle oracle = LoadOracle(o);
  uint64_t vertices = 0;  // the largest vertex id + 1
  for (const auto& [u, v] : oracle.edges) {
    vertices = std::max<uint64_t>(vertices, uint64_t{v} + 1);
  }
  truss::io::Env env(EnvDir(o), kBlockBytes);

  eng::DecomposeOptions bottomup;
  bottomup.algorithm = eng::Algorithm::kBottomUp;
  bottomup.memory_budget_bytes =
      oracle.edges.size() * truss::kBytesPerEdgeInMemory / 2;
  bottomup.io_block_size_bytes = kBlockBytes;
  eng::DecomposeOptions topdown = bottomup;
  topdown.algorithm = eng::Algorithm::kTopDown;
  topdown.top_t = 1;

  std::vector<double> walls, cpus, traced_walls, bu_walls, td_walls;
  std::map<std::string, uint64_t> first_counts;
  const double deadline = Now() + o.seconds;
  for (uint64_t rep = 0; Now() < deadline || rep < kMinRequests; ++rep) {
    ++report->attempted;
    const bool traced = tracer.enabled() && rep % 2 == 1;
    const int32_t request =
        traced ? tracer.Begin("driver.request", rep) : -1;
    const int32_t bu_span = traced ? tracer.Begin("truss.bottomup", rep) : -1;
    const OpResult bu = RunOp(env, vertices, bottomup, "classes_bu");
    tracer.End(bu_span);
    const int32_t td_span =
        traced ? tracer.Begin("truss.topdown_top1", rep) : -1;
    const OpResult td = RunOp(env, vertices, topdown, "classes_td");
    tracer.End(td_span);
    tracer.End(request);

    std::string error = bu.error.empty() ? td.error : bu.error;
    if (error.empty()) error = CheckAllClasses(oracle, ReadClasses(env.FullPath("classes_bu")));
    if (error.empty()) error = CheckTopClass(oracle, ReadClasses(env.FullPath("classes_td")));
    const std::map<std::string, uint64_t> counts = ExactCounts(bu.stats, td.stats);
    if (error.empty() && bu.stats.kmax != oracle.kmax) error = "kmax differs";
    if (error.empty() && !first_counts.empty() && counts != first_counts) {
      error = "exact I/O counts drifted between repetitions";
    }
    if (first_counts.empty()) first_counts = counts;
    for (const char* f : {"classes_bu", "classes_td", "work.gedge"}) {
      if (env.FileExists(f)) (void)env.DeleteFile(f);
    }
    if (!error.empty()) {
      report->Fail(error);
      continue;
    }
    (traced ? traced_walls : walls).push_back(bu.wall + td.wall);
    if (!traced) cpus.push_back(bu.cpu + td.cpu);
    if (traced) {
      bu_walls.push_back(bu.wall);
      td_walls.push_back(td.wall);
    }
  }

  SetBatchRequestMetrics(walls, cpus, report);
  report->counts = first_counts;
  if (!tracer.enabled()) return;
  for (const auto& [name, value] : first_counts) {
    report->Set(name, static_cast<double>(value), "count");
  }
  report->Set("truss.bottomup_s", Median(bu_walls), "s");
  report->Set("truss.topdown_top1_s", Median(td_walls), "s");
  report->Set("graph.input_mb",
              static_cast<double>(fs::file_size(env.FullPath(kInput))) /
                  (1024.0 * 1024.0),
              "MiB");
  report->Set("trace.overhead_s", Median(traced_walls) - Median(walls), "s");
}

}  // namespace perfbench
