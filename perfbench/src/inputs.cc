#include "inputs.h"

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"

namespace perfbench {

namespace {

using truss::Edge;
using truss::Graph;
using truss::VertexId;

// Derives the seed of one generation step from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t step) {
  truss::SplitMix64 mix(seed * 0x9E3779B97F4A7C15ull + step);
  return mix.Next();
}

// `count` cliques with sizes in [min_size, max_size] on random vertices.
Graph PlantRandomCliques(const Graph& base, uint32_t count, uint32_t min_size,
                         uint32_t max_size, uint64_t seed) {
  truss::Rng rng(seed);
  std::vector<Edge> extra;
  std::vector<VertexId> members;
  for (uint32_t c = 0; c < count; ++c) {
    const uint32_t size =
        min_size + static_cast<uint32_t>(rng.Uniform(max_size - min_size + 1));
    members.clear();
    while (members.size() < size) {
      const auto v = static_cast<VertexId>(rng.Uniform(base.num_vertices()));
      if (std::find(members.begin(), members.end(), v) == members.end()) {
        members.push_back(v);
      }
    }
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        extra.push_back(truss::MakeEdge(members[i], members[j]));
      }
    }
  }
  return truss::gen::AddEdges(base, extra);
}

// A hub: the highest vertex id gains edges to `leaves` random vertices.
Graph AddHubStar(const Graph& base, uint32_t leaves, uint64_t seed) {
  const VertexId hub = base.num_vertices() - 1;
  truss::Rng rng(seed);
  std::vector<Edge> extra;
  for (uint32_t i = 0; i < leaves; ++i) {
    const auto v = static_cast<VertexId>(rng.Uniform(base.num_vertices()));
    if (v != hub) extra.push_back(truss::MakeEdge(hub, v));
  }
  return truss::gen::AddEdges(base, extra);
}

}  // namespace

Graph BlogLike(uint64_t seed, VertexId n) {
  Graph g = truss::gen::BarabasiAlbert(n, 6, SubSeed(seed, 1));
  g = PlantRandomCliques(g, 60, 5, 16, SubSeed(seed, 2));
  g = AddHubStar(g, 6000, SubSeed(seed, 3));
  return truss::gen::PlantClique(g, 49, SubSeed(seed, 4));
}

Graph LjLike(uint64_t seed) {
  Graph g = truss::gen::BarabasiAlbert(100000, 10, SubSeed(seed, 11));
  g = PlantRandomCliques(g, 80, 8, 40, SubSeed(seed, 12));
  g = AddHubStar(g, 15000, SubSeed(seed, 13));
  return truss::gen::PlantClique(g, 362, SubSeed(seed, 14));
}

Graph WikiLike(uint64_t seed) {
  Graph g = truss::gen::RMat(18, 300000, 0.65, 0.17, 0.12, SubSeed(seed, 21));
  g = AddHubStar(g, 80000, SubSeed(seed, 22));
  return truss::gen::PlantClique(g, 53, SubSeed(seed, 23));
}

}  // namespace perfbench
