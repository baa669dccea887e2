#include "graph/ops.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "graph/generators.hpp"

namespace rsets {
namespace {

TEST(PowerGraph, PathSquared) {
  const Graph g = gen::path(5);
  const Graph g2 = power_graph(g, 2);
  // Path 0-1-2-3-4 squared: extra edges 0-2, 1-3, 2-4.
  EXPECT_EQ(g2.num_edges(), 7u);
  EXPECT_TRUE(g2.has_edge(0, 2));
  EXPECT_FALSE(g2.has_edge(0, 3));
}

TEST(PowerGraph, K1IsIdentity) {
  const Graph g = gen::gnp(100, 0.05, 1);
  const Graph g1 = power_graph(g, 1);
  EXPECT_EQ(g1.num_edges(), g.num_edges());
}

TEST(PowerGraph, LargeKGivesCliquePerComponent) {
  const Graph g = gen::path(6);
  const Graph gk = power_graph(g, 10);
  EXPECT_EQ(gk.num_edges(), 15u);
}

TEST(BfsDistances, SingleSource) {
  const Graph g = gen::path(5);
  const std::vector<VertexId> src = {0};
  const auto dist = bfs_distances(g, src);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsDistances, MultiSourceTakesMin) {
  const Graph g = gen::path(7);
  const std::vector<VertexId> src = {0, 6};
  const auto dist = bfs_distances(g, src);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[5], 1u);
}

TEST(BfsDistances, UnreachableIsMax) {
  const Graph g = Graph::from_edges(4, std::vector<Edge>{{0, 1}});
  const std::vector<VertexId> src = {0};
  const auto dist = bfs_distances(g, src);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], std::numeric_limits<std::uint32_t>::max());
}

TEST(ConnectedComponents, CountsAndLabels) {
  const Graph g =
      Graph::from_edges(6, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}});
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[3]);
}

TEST(DegreeStats, Basics) {
  const Graph g = gen::star(5);
  const auto stats = degree_stats(g);
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 4u);
  EXPECT_DOUBLE_EQ(stats.mean, 8.0 / 5.0);
  EXPECT_EQ(stats.isolated, 0u);
}

TEST(DegreeStats, CountsIsolated) {
  const Graph g = Graph::from_edges(5, std::vector<Edge>{{0, 1}});
  EXPECT_EQ(degree_stats(g).isolated, 3u);
}

TEST(ApproxDiameter, KnownValues) {
  EXPECT_EQ(approx_diameter(gen::path(10)), 9u);
  EXPECT_EQ(approx_diameter(gen::cycle(10)), 5u);
  EXPECT_EQ(approx_diameter(gen::complete(8)), 1u);
  EXPECT_EQ(approx_diameter(gen::star(20)), 2u);
  EXPECT_EQ(approx_diameter(Graph::from_edges(3, {})), 0u);
  EXPECT_EQ(approx_diameter(Graph::from_edges(0, {})), 0u);
}

TEST(ApproxDiameter, ExactOnTrees) {
  // Double sweep is exact on trees; cross-check against all-pairs BFS.
  const Graph g = gen::random_tree(60, 9);
  std::uint32_t truth = 0;
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const std::vector<VertexId> src = {s};
    for (std::uint32_t d : bfs_distances(g, src)) {
      if (d != std::numeric_limits<std::uint32_t>::max()) {
        truth = std::max(truth, d);
      }
    }
  }
  EXPECT_EQ(approx_diameter(g), truth);
}

TEST(ApproxDiameter, UsesLargestComponent) {
  // Small clique + long path in separate components.
  GraphBuilder b(25);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  for (VertexId v = 3; v + 1 < 25; ++v) b.add_edge(v, v + 1);
  const Graph g = std::move(b).build();
  EXPECT_EQ(approx_diameter(g), 21u);
}

TEST(Degeneracy, KnownValues) {
  EXPECT_EQ(degeneracy(gen::path(10)), 1u);
  EXPECT_EQ(degeneracy(gen::cycle(10)), 2u);
  EXPECT_EQ(degeneracy(gen::complete(6)), 5u);
  EXPECT_EQ(degeneracy(gen::star(100)), 1u);
  EXPECT_EQ(degeneracy(gen::random_tree(500, 3)), 1u);
  EXPECT_EQ(degeneracy(gen::grid(10, 10)), 2u);
}

TEST(Degeneracy, EmptyAndSingleton) {
  EXPECT_EQ(degeneracy(Graph::from_edges(0, {})), 0u);
  EXPECT_EQ(degeneracy(Graph::from_edges(1, {})), 0u);
}

}  // namespace
}  // namespace rsets
