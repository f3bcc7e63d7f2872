// serve-mixed: an in-process TrussServer over a hub-skewed graph, driven
// by one client thread in an open loop — two query connections plus one
// admin connection that sends a periodic REBUILD.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>

#include "common/parallel.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "inputs.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/truss_index.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace eng = truss::engine;
namespace sv = truss::serve;

constexpr uint32_t kWorkers = 3;
constexpr int kQueryConns = 2;
constexpr size_t kPoolSize = 4096;
/// Offered rate of the mixed and latency phases, queries per second over
/// both query connections: far below capacity, so latency reflects
/// service time.
constexpr double kNominalQps = 4000.0;
/// Capacity is the median answered rate over windows of this length.
constexpr double kRateWindowSeconds = 0.5;
/// Pause between one REBUILD's answer and the next REBUILD.
constexpr double kRebuildGapSeconds = 0.2;
/// Time allowed for outstanding answers (a REBUILD among them) after a
/// phase's last arrival; an answer later than this counts as failed.
constexpr double kDrainSeconds = 10.0;

enum Kind { kTruss, kMaxk, kComm, kTop, kMembers, kKinds };
const char* const kKindNames[kKinds] = {"truss", "maxk", "comm", "top",
                                         "members"};

struct Query {
  std::string line;
  std::string expected;
  Kind kind;
};

std::string Density(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", d);
  return buf;
}

// The query pool and its expected answers, from direct TrussIndex calls
// on the published snapshot; the strings follow the protocol grammar in
// docs/SERVING.md. Mix: TRUSS 40 / MAXK 30 / COMM 20 / TOP 5 / MEMBERS 5.
std::vector<Query> MakePool(const sv::TrussIndex& index, uint64_t seed,
                            const sv::ServerOptions& so) {
  truss::Rng rng(seed ^ 0x5e12e5e12eull);
  const truss::Graph& g = index.graph();
  std::vector<truss::VertexId> deep;  // vertices in some 3-truss
  for (truss::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (index.VertexMaxK(v) >= 3) deep.push_back(v);
  }
  std::vector<Query> pool;
  while (pool.size() < kPoolSize) {
    const uint64_t roll = rng.Uniform(100);
    Query q;
    if (roll < 40) {
      const truss::Edge& e = g.edge(static_cast<truss::EdgeId>(
          rng.Uniform(g.num_edges())));
      const bool flip = rng.Bernoulli(0.5);
      const truss::VertexId u = flip ? e.v : e.u, v = flip ? e.u : e.v;
      q = {"TRUSS " + std::to_string(u) + " " + std::to_string(v),
           "OK TRUSS " + std::to_string(index.EdgeTrussNumber(u, v)), kTruss};
    } else if (roll < 70) {
      const truss::Edge& e = g.edge(static_cast<truss::EdgeId>(
          rng.Uniform(g.num_edges())));
      const truss::VertexId v = rng.Bernoulli(0.5) ? e.u : e.v;
      std::string want = "OK MAXK k=" + std::to_string(index.VertexMaxK(v));
      const sv::CommunityId c = index.DeepestCommunity(v);
      if (c == sv::kInvalidCommunity) {
        want += " community=none";
      } else {
        want += " community=" + std::to_string(c) + " size=" +
                std::to_string(index.Community(c).num_vertices);
      }
      q = {"MAXK " + std::to_string(v), want, kMaxk};
    } else if (roll < 90) {
      const truss::VertexId v = deep[rng.Uniform(deep.size())];
      const uint32_t k =
          3 + static_cast<uint32_t>(rng.Uniform(index.VertexMaxK(v) - 2));
      const sv::CommunityId c = index.CommunityAt(v, k);
      const sv::CommunityInfo& info = index.Community(c);
      q = {"COMM " + std::to_string(v) + " " + std::to_string(k),
           "OK COMM id=" + std::to_string(c) + " k=" + std::to_string(info.k) +
               " vertices=" + std::to_string(info.num_vertices) +
               " edges=" + std::to_string(info.num_edges) +
               " density=" + Density(info.density),
           kComm};
    } else if (roll < 95) {
      const uint32_t t = 1 + static_cast<uint32_t>(rng.Uniform(10));
      const auto top = index.DensestCommunities(std::min(t, so.top_cap));
      std::string want = "OK TOP " + std::to_string(top.size());
      for (sv::CommunityId id : top) {
        const sv::CommunityInfo& info = index.Community(id);
        want.push_back(' ');
        want += std::to_string(id) + ":" + std::to_string(info.k) + ":" +
                std::to_string(info.num_vertices) + ":" + Density(info.density);
      }
      q = {"TOP " + std::to_string(t), want, kTop};
    } else {
      const auto c = static_cast<sv::CommunityId>(
          rng.Uniform(index.num_communities()));
      const auto vertices = index.CommunityVertices(c);
      std::string want = "OK MEMBERS " + std::to_string(vertices.size());
      const size_t listed = std::min<size_t>(vertices.size(), so.members_cap);
      for (size_t i = 0; i < listed; ++i) {
        want.push_back(' ');
        want += std::to_string(vertices[i]);
      }
      q = {"MEMBERS " + std::to_string(c), want, kMembers};
    }
    pool.push_back(std::move(q));
  }
  return pool;
}

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

struct Pending {
  double due = 0.0;
  size_t query = 0;   // pool index
  uint64_t id = 0;    // position in the phase's stream
};

struct Connection {
  int fd = -1;
  std::string in;
  std::deque<Pending> pending;
  bool dead = false;
};

struct RebuildSample {
  double wall = 0.0;
  double cpu = 0.0;
};

struct PhaseResult {
  std::vector<double> latency_us;  // from due time to answer (open loop)
  uint64_t answered = 0;
  /// Answers per kRateWindowSeconds window since the phase's start.
  std::vector<uint64_t> answered_per_window;
  std::vector<double> late_us;     // when the generator noticed it, minus due
  std::vector<RebuildSample> rebuilds;
  double seconds = 0.0;  // from the phase's start to its last answer
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 4) errors.push_back(what);
  }
};

struct Client {
  std::vector<Connection> query;
  Connection admin;
};

// Runs one phase. Open loop (rate > 0): queries arrive every 1/rate
// seconds whatever the server does; like the repo's other clients, a
// connection carries one request at a time, so an arrival that finds both
// query connections busy waits in the client's queue, and its latency,
// timed from when it was due, includes that wait. Closed loop (rate 0):
// each connection sends its next query as soon as the previous answer
// arrives. With `rebuilds` set, a REBUILD goes out on the
// admin connection whenever none is outstanding and kRebuildGapSeconds
// have passed since the last answer. Every answer is checked.
PhaseResult RunPhase(Client& client, const std::vector<Query>& pool,
                     size_t pool_offset, double rate, double seconds,
                     bool rebuilds, Tracer* tracer) {
  PhaseResult r;
  const double start = Now();
  const double send_end = start + seconds;
  uint64_t arrived = 0;
  std::deque<Pending> waiting;
  double next_rebuild = start + 0.25;
  bool rebuild_out = false;
  double rebuild_t0 = 0.0, rebuild_c0 = 0.0;

  auto answer = [&](Connection& c, std::string_view line, double now) {
    if (c.pending.empty()) {
      r.Fail("unsolicited answer");
      return;
    }
    const Pending p = c.pending.front();
    c.pending.pop_front();
    const Query& q = pool[p.query];
    ++r.answered;
    const auto window = static_cast<size_t>((now - start) / kRateWindowSeconds);
    if (r.answered_per_window.size() <= window) {
      r.answered_per_window.resize(window + 1, 0);
    }
    ++r.answered_per_window[window];
    // A closed loop keeps no per-answer samples: their memory would grow
    // with throughput and show up in peak_rss_mb.
    if (rate > 0) r.latency_us.push_back((now - p.due) * 1e6);
    if (tracer != nullptr) tracer->Add("serve.request", p.due, now, -1, p.id);
    if (line != q.expected) {
      r.Fail("wrong answer to '" + q.line + "': " + std::string(line));
    }
  };

  while (true) {
    const double now = Now();
    // Arrivals that are due join the queue; late_us is how far behind
    // its schedule the generator noticed them. In a closed loop (rate 0)
    // an idle connection's next request is due now.
    for (const Connection& c : client.query) {
      if (rate > 0 || now >= send_end || !c.pending.empty()) continue;
      waiting.push_back({now, (pool_offset + arrived) % pool.size(), arrived});
      ++r.attempted;
      ++arrived;
    }
    while (rate > 0 && now < send_end &&
           start + static_cast<double>(arrived) / rate <= now) {
      const double due = start + static_cast<double>(arrived) / rate;
      waiting.push_back({due, (pool_offset + arrived) % pool.size(), arrived});
      r.late_us.push_back((now - due) * 1e6);
      ++r.attempted;
      ++arrived;
    }
    for (Connection& c : client.query) {
      if (waiting.empty()) break;
      if (!c.pending.empty() || c.dead) continue;
      const Pending p = waiting.front();
      waiting.pop_front();
      c.pending.push_back(p);
      if (!SendAll(c.fd, pool[p.query].line + "\n")) c.dead = true;
    }
    if (rebuilds && !rebuild_out && now >= next_rebuild && now < send_end) {
      rebuild_t0 = Now();
      rebuild_c0 = ProcessCpu();
      if (!SendAll(client.admin.fd, "REBUILD improved\n")) {
        client.admin.dead = true;
      }
      rebuild_out = true;
      ++r.attempted;
    }

    bool outstanding = rebuild_out || !waiting.empty();
    for (const Connection& c : client.query) outstanding |= !c.pending.empty();
    if (now >= send_end && !outstanding) break;
    bool dead = client.admin.dead;
    for (const Connection& c : client.query) dead |= c.dead;
    if (dead || now >= send_end + kDrainSeconds) {
      uint64_t lost = waiting.size();
      for (Connection& c : client.query) {
        lost += c.pending.size();
        c.pending.clear();
      }
      for (uint64_t i = 0; i < lost; ++i) {
        r.Fail(dead ? "connection lost" : "answer timed out");
      }
      if (rebuild_out) r.Fail(dead ? "connection lost" : "REBUILD timed out");
      break;
    }

    // Sleep until the next arrival is due or an answer arrives.
    double wake = send_end + kDrainSeconds;
    if (now < send_end) {
      wake = rate > 0 ? std::min(start + static_cast<double>(arrived) / rate,
                                 send_end)
                      : send_end;
    }
    if (rebuilds && !rebuild_out && now < send_end) {
      wake = std::min(wake, next_rebuild);
    }
    const double wait = std::max(0.0, std::min(wake - now, 0.05));
    pollfd fds[kQueryConns + 1];
    for (size_t c = 0; c < client.query.size(); ++c) {
      fds[c] = {client.query[c].fd, POLLIN, 0};
    }
    fds[client.query.size()] = {client.admin.fd, POLLIN, 0};
    timespec ts{static_cast<time_t>(wait),
                static_cast<long>((wait - std::floor(wait)) * 1e9)};
    if (::ppoll(fds, client.query.size() + 1, &ts, nullptr) <= 0) continue;

    for (size_t c = 0; c <= client.query.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& conn = c < client.query.size() ? client.query[c] : client.admin;
      char buf[65536];
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n <= 0) {
        conn.dead = true;
        continue;
      }
      const double t = Now();
      conn.in.append(buf, static_cast<size_t>(n));
      size_t pos = 0, nl;
      while ((nl = conn.in.find('\n', pos)) != std::string::npos) {
        const std::string_view line(conn.in.data() + pos, nl - pos);
        if (&conn == &client.admin) {
          if (line.rfind("OK REBUILD", 0) != 0) {
            r.Fail("REBUILD failed: " + std::string(line));
          }
          r.rebuilds.push_back({t - rebuild_t0, ProcessCpu() - rebuild_c0});
          if (tracer != nullptr) {
            tracer->Add("serve.rebuild", rebuild_t0, t, -1, 0);
          }
          rebuild_out = false;
          next_rebuild = t + kRebuildGapSeconds;
        } else {
          answer(conn, line, t);
        }
        pos = nl + 1;
      }
      conn.in.erase(0, pos);
    }
  }
  r.seconds = Now() - start;
  return r;
}

void Merge(const PhaseResult& phase, Report* report) {
  report->attempted += phase.attempted;
  report->failed += phase.failed;
  for (const std::string& e : phase.errors) {
    if (report->errors.size() < 8) report->errors.push_back(e);
  }
}

std::string InputPath(const RunOptions& o) { return o.dir + "/input.trsb"; }

// Splits the CPUs the process may run on: the highest-numbered one for the
// client, the others for the server. With a single CPU both get it.
struct CpuSplit {
  cpu_set_t client;
  cpu_set_t server;
};

bool SplitCpus(CpuSplit* split) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  split->server = allowed;
  CPU_ZERO(&split->client);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &split->client);
    if (CPU_COUNT(&allowed) > 1) CPU_CLR(cpu, &split->server);
    return true;
  }
  return false;
}

// Restricts the calling thread, and every thread it starts afterwards, to
// `cpus`.
void PinTo(const cpu_set_t& cpus) {
  sched_setaffinity(0, sizeof(cpus), &cpus);
}

}  // namespace

Prepared PrepareServeMixed(const RunOptions& o) {
  Prepared p;
  while (MoreSetupReps(p.setup_seconds)) {
    const double t0 = Now();
    const truss::Graph g = WikiLike(o.seed);
    const truss::Status st = g.SaveBinary(InputPath(o));
    p.setup_seconds.push_back(Now() - t0);
    if (!st.ok()) {
      p.error = "writing input: " + st.ToString();
      return p;
    }
    p.counts["edges"] = g.num_edges();
  }
  return p;
}

void MeasureServeMixed(const RunOptions& o, Tracer& tracer, Report* report) {
  // Lets ppoll wake when the next request is due, not up to 50 us later.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  // Set-up inside the serving process: load, decompose + index, publish.
  sv::SnapshotRegistry registry;
  std::shared_ptr<const truss::Graph> graph;
  std::vector<double> setup, load, decompose, index_build, publish;
  double index_mb = 0.0;
  while (MoreSetupReps(setup)) {
    const double t0 = Now();
    auto loaded = eng::Engine::LoadGraphFile(InputPath(o), 1);
    if (!loaded.ok()) {
      report->Fail("load: " + loaded.status().ToString());
      return;
    }
    const double t1 = Now();
    graph = std::make_shared<const truss::Graph>(
        std::move(loaded.value().graph));
    eng::DecomposeOptions options;
    auto built = sv::TrussIndex::Build(
        graph, sv::IndexBuildPlan::WithOptions(options));
    if (!built.ok()) {
      report->Fail("index build: " + built.status().ToString());
      return;
    }
    const double t2 = Now();
    registry.Publish(built.value().index, "setup", t2 - t1);
    const double t3 = Now();
    setup.push_back(t3 - t0);
    load.push_back(t1 - t0);
    decompose.push_back(built.value().decompose_stats.wall_seconds);
    index_build.push_back(t2 - t1 - built.value().decompose_stats.wall_seconds);
    publish.push_back(t3 - t2);
    index_mb = static_cast<double>(built.value().index->SizeBytes()) /
               (1024.0 * 1024.0);
  }
  sv::ServerOptions so;
  so.workers = kWorkers;
  so.rebuild_options.algorithm = eng::Algorithm::kImproved;
  const double start0 = Now();
  sv::TrussServer server(graph, &registry, so);
  const truss::Status started = server.Start();
  if (!started.ok()) {
    report->Fail("server start: " + started.ToString());
    return;
  }
  // The client thread gets a CPU of its own and the server the others: the
  // workers (and a REBUILD, which runs on one of them) start from the
  // serving thread and inherit its CPUs. Client work then never takes CPU
  // time from the server, and a REBUILD runs beside the queries on
  // another CPU, as it would in production.
  CpuSplit cpu_split;
  const bool split = SplitCpus(&cpu_split);
  if (split) PinTo(cpu_split.server);
  truss::BackgroundThread serving([&server] { server.Serve(); });
  if (split) PinTo(cpu_split.client);
  Client client;
  for (int c = 0; c < kQueryConns; ++c) {
    client.query.push_back({Connect(server.port()), {}, {}, false});
  }
  client.admin.fd = Connect(server.port());
  report->Set("serve.setup_in_process_s", Median(setup) + (Now() - start0), "s");

  const sv::ServingSnapshot snapshot = registry.Current();
  const std::vector<Query> pool = MakePool(*snapshot.index, o.seed, so);
  bool connected = client.admin.fd >= 0;
  for (const Connection& c : client.query) connected &= c.fd >= 0;

  if (connected) {
    // Warm-up: connections, caches and the workers' buffers.
    Merge(RunPhase(client, pool, 0, kNominalQps, 0.5, false, nullptr), report);
    if (!tracer.enabled()) {
      // Queries at the nominal rate with REBUILDs beside them: a query
      // that has to wait for a REBUILD shows in p50_us.
      const PhaseResult rebuild = RunPhase(client, pool, 2, kNominalQps,
                                           o.seconds * 0.55, true, nullptr);
      Merge(rebuild, report);
      report->Set("p50_us", Median(rebuild.latency_us), "us");
      std::vector<double> walls, cpus;
      for (const RebuildSample& r : rebuild.rebuilds) {
        walls.push_back(r.wall);
        cpus.push_back(r.cpu);
      }
      report->Set("wall_s", Median(walls), "s");
      report->Set("cpu_s", Median(cpus), "s");
      // Capacity: both query connections always busy. The median rate
      // over half-second windows leaves out a host stall shorter than
      // half the phase; the last, partial window is dropped.
      const PhaseResult saturated =
          RunPhase(client, pool, 3, 0.0, o.seconds * 0.45, false, nullptr);
      Merge(saturated, report);
      std::vector<double> rates;
      for (size_t w = 0; w + 1 < saturated.answered_per_window.size(); ++w) {
        rates.push_back(static_cast<double>(saturated.answered_per_window[w]) /
                        kRateWindowSeconds);
      }
      if (rates.empty()) {  // a phase shorter than one window
        rates.push_back(static_cast<double>(saturated.answered) /
                        saturated.seconds);
      }
      report->Set("max_qps", Median(rates), "1/s");
    } else {
      // Untraced and traced halves of the latency phase give the tracing
      // overhead; then the same stream replays through HandleLine in
      // process, which splits handler cost from the socket round trip.
      const double half = o.seconds * 0.3;
      const PhaseResult plain =
          RunPhase(client, pool, 1, kNominalQps, half, false, nullptr);
      Merge(plain, report);
      const PhaseResult traced =
          RunPhase(client, pool, 1, kNominalQps, half, false, &tracer);
      Merge(traced, report);
      std::vector<double> by_kind[kKinds], all;
      for (size_t i = 0; i < plain.latency_us.size(); ++i) {
        const Query& q = pool[(1 + i) % pool.size()];
        ++report->attempted;
        const int32_t span = tracer.Begin("serve.handle", i);
        const double t0 = Now();
        const std::string answer = server.HandleLine(q.line);
        const double us = (Now() - t0) * 1e6;
        tracer.End(span);
        if (answer != q.expected) report->Fail("in-process answer differs");
        by_kind[q.kind].push_back(us);
        all.push_back(us);
      }
      for (int k = 0; k < kKinds; ++k) {
        report->Set(std::string("serve.handle_") + kKindNames[k] + "_us",
                    Median(by_kind[k]), "us");
      }
      report->Set("serve.socket_us",
                  Median(plain.latency_us) - Median(all), "us");
      report->Set("serve.p99_us", Quantile(plain.latency_us, 0.99), "us");
      report->Set("serve.late_us", Quantile(plain.late_us, 0.99), "us");
      report->Set("trace.overhead_s",
                  (Median(traced.latency_us) - Median(plain.latency_us)) * 1e-6,
                  "s");
    }
  } else {
    report->Fail("cannot connect to the server");
  }

  server.Stop();
  serving.Join();
  for (const Connection& c : client.query) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (client.admin.fd >= 0) ::close(client.admin.fd);

  report->Set("graph.load_binary_s", Median(load), "s");
  report->Set("graph.input_mb",
              static_cast<double>(std::filesystem::file_size(InputPath(o))) /
                  (1024.0 * 1024.0),
              "MiB");
  report->Set("engine.decompose_s", Median(decompose), "s");
  report->Set("serve.index_build_s", Median(index_build), "s");
  report->Set("serve.publish_us", Median(publish) * 1e6, "us");
  report->Set("serve.index_mb", index_mb, "MiB");
  report->Set("truss.kmax", snapshot.index->kmax(), "count");
  report->counts["truss.kmax"] = snapshot.index->kmax();
  report->counts["serve.communities"] = snapshot.index->num_communities();
}

}  // namespace perfbench
