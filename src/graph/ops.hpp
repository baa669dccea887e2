// Whole-graph operations: graph powers, BFS, connected components, and
// degree statistics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace rsets {

// G^k: u~v iff 1 <= dist(u, v) <= k. Materialized explicitly; quadratic
// blowup is the caller's problem (used for beta-ruling-set oracles in tests).
Graph power_graph(const Graph& g, int k);

// BFS distances from multiple sources; unreachable = UINT32_MAX.
std::vector<std::uint32_t> bfs_distances(const Graph& g,
                                         std::span<const VertexId> sources);

// Component id per vertex (ids are 0-based, dense, in first-seen order).
std::vector<std::uint32_t> connected_components(const Graph& g);

struct DegreeStats {
  std::uint32_t min = 0;
  std::uint32_t max = 0;
  double mean = 0.0;
  std::uint64_t isolated = 0;
};
DegreeStats degree_stats(const Graph& g);

// Lower bound on the diameter of the largest component via a double BFS
// sweep (exact on trees; within a factor 2 in general). Returns 0 for
// edgeless graphs.
std::uint32_t approx_diameter(const Graph& g);

// Arboricity upper bound via degeneracy (core number) — linear-time
// peeling. Degeneracy >= arboricity - 1 and is the standard proxy.
std::uint32_t degeneracy(const Graph& g);

}  // namespace rsets
