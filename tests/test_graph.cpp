#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace rsets {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, IsolatedVertices) {
  const Graph g = Graph::from_edges(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, TriangleBasics) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, DeduplicatesAndSymmetrizes) {
  const std::vector<Edge> edges = {{0, 1}, {1, 0}, {0, 1}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Graph, DropsSelfLoops) {
  const std::vector<Edge> edges = {{0, 0}, {0, 1}, {1, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, NeighborsAreSorted) {
  const std::vector<Edge> edges = {{2, 5}, {2, 1}, {2, 9}, {2, 0}};
  const Graph g = Graph::from_edges(10, edges);
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 5u);
  EXPECT_EQ(nbrs[3], 9u);
}

TEST(Graph, EdgesReturnsCanonicalList) {
  const std::vector<Edge> input = {{3, 1}, {0, 2}};
  const Graph g = Graph::from_edges(4, input);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{0, 2}));
  EXPECT_EQ(edges[1], (Edge{1, 3}));
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
  const std::vector<Edge> edges = {{0, 5}};
  EXPECT_THROW(Graph::from_edges(3, edges), std::out_of_range);
}

TEST(Graph, DegreeSquareSum) {
  // Star on 4 vertices: center degree 3, leaves 1. Sum = 9 + 3 = 12.
  const std::vector<Edge> edges = {{0, 1}, {0, 2}, {0, 3}};
  const Graph g = Graph::from_edges(4, edges);
  EXPECT_EQ(g.degree_square_sum(), 12u);
}

TEST(GraphBuilder, IgnoresSelfLoopsAndBuilds) {
  GraphBuilder b(3);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  EXPECT_EQ(b.pending_edges(), 2u);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 2u);
}

// The builder from_edges replaced: symmetrize into arc pairs, sort and
// unique them all, then read the lists off in order. Kept here as the
// reference the counting-sort builder must match exactly.
std::vector<std::vector<VertexId>> sort_unique_adjacency(
    VertexId n, const std::vector<Edge>& edges) {
  std::vector<std::pair<VertexId, VertexId>> arcs;
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    if (e.u >= n || e.v >= n) throw std::out_of_range("reference");
    arcs.emplace_back(e.u, e.v);
    arcs.emplace_back(e.v, e.u);
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  std::vector<std::vector<VertexId>> adj(n);
  for (const auto& [u, v] : arcs) adj[u].push_back(v);
  return adj;
}

void expect_same_csr(const Graph& g,
                     const std::vector<std::vector<VertexId>>& adj,
                     const std::string& label) {
  ASSERT_EQ(g.num_vertices(), adj.size()) << label;
  std::uint64_t arcs = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    EXPECT_TRUE(std::equal(nbrs.begin(), nbrs.end(), adj[v].begin(),
                           adj[v].end()))
        << label << " vertex " << v;
    arcs += adj[v].size();
  }
  EXPECT_EQ(g.num_edges(), arcs / 2) << label;
}

TEST(Graph, FromEdgesMatchesSortUniqueReference) {
  // Random lists rich in duplicates, reversed pairs and self-loops, over
  // vertex ranges wider than the edges touch (isolated vertices, among
  // them the last id), down to n = 0 and n = 1.
  std::mt19937_64 rng(20260517);
  for (const VertexId n : {0u, 1u, 2u, 3u, 7u, 40u, 300u}) {
    for (int trial = 0; trial < 6; ++trial) {
      const VertexId span = n <= 1 ? n : n - n / 3;  // ids >= span stay isolated
      const std::size_t m = rng() % (4 * static_cast<std::size_t>(n) + 4);
      std::vector<Edge> edges;
      for (std::size_t i = 0; i < m && span > 0; ++i) {
        const auto u = static_cast<VertexId>(rng() % span);
        const auto v = static_cast<VertexId>(rng() % span);
        edges.push_back({u, v});
        switch (rng() % 4) {
          case 0: edges.push_back({v, u}); break;  // reversed twin
          case 1: edges.push_back({u, v}); break;  // exact duplicate
          case 2: edges.push_back({u, u}); break;  // self-loop
          default: break;
        }
      }
      std::shuffle(edges.begin(), edges.end(), rng);
      const std::string label =
          "n=" + std::to_string(n) + " trial=" + std::to_string(trial);
      expect_same_csr(Graph::from_edges(n, edges),
                      sort_unique_adjacency(n, edges), label);
    }
  }
}

TEST(Graph, FromEdgesRangeCheckSkipsSelfLoops) {
  // An out-of-range endpoint throws even after valid edges...
  const std::vector<Edge> bad = {{0, 1}, {1, 2}, {2, 3}};
  EXPECT_THROW(Graph::from_edges(3, bad), std::out_of_range);
  EXPECT_THROW(Graph::from_edges(0, std::vector<Edge>{{0, 1}}),
               std::out_of_range);
  // ...but a self-loop is dropped before its range is checked.
  const std::vector<Edge> loops = {{0, 1}, {7, 7}, {1, 1}};
  const Graph g = Graph::from_edges(2, loops);
  expect_same_csr(g, sort_unique_adjacency(2, loops), "loops");
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(Graph::from_edges(0, std::vector<Edge>{{5, 5}}).num_vertices(),
            0u);
}

TEST(Graph, RoundTripThroughEdges) {
  const std::vector<Edge> input = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  const Graph g = Graph::from_edges(4, input);
  const Graph h = Graph::from_edges(4, g.edges());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(h.degree(v), g.degree(v));
}

}  // namespace
}  // namespace rsets
