// Seeded stand-in graphs for the benchmark workloads. Each follows the
// recipe of the matching paper dataset in src/datasets (same generators,
// same structural knobs) but takes its seed from the benchmark's argument,
// so every seed gives a different graph of the same shape and size.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>

#include "graph/graph.h"

namespace perfbench {

/// Blog-like: BA m=6 over `n` vertices, 60 random cliques of 5..16, a hub
/// on 6000 random vertices and a planted 49-clique (kmax 49). About 670k
/// edges at the default n.
truss::Graph BlogLike(uint64_t seed, truss::VertexId n = 110000);

/// LJ-like: BA m=10, 80 random cliques of 8..40, a hub on 15000 vertices
/// and a planted 362-clique: about 1.1M edges and a truss hierarchy some
/// 360 levels deep.
truss::Graph LjLike(uint64_t seed);

/// Wiki-like: hub-skewed R-MAT (scale 18, a=0.65) with a hub star on 80000
/// random vertices and a planted 53-clique; about 370k edges.
truss::Graph WikiLike(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
