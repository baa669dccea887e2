#include "graph/verify.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "graph/generators.hpp"

namespace rsets {
namespace {

TEST(Verify, IndependenceBasics) {
  const Graph g = gen::path(5);  // 0-1-2-3-4
  EXPECT_TRUE(is_independent_set(g, std::vector<VertexId>{0, 2, 4}));
  EXPECT_FALSE(is_independent_set(g, std::vector<VertexId>{0, 1}));
  EXPECT_TRUE(is_independent_set(g, std::vector<VertexId>{}));
}

TEST(Verify, IndependenceRejectsDuplicatesAndOutOfRange) {
  const Graph g = gen::path(5);
  EXPECT_FALSE(is_independent_set(g, std::vector<VertexId>{2, 2}));
  EXPECT_FALSE(is_independent_set(g, std::vector<VertexId>{99}));
}

TEST(Verify, DominationRadius) {
  const Graph g = gen::path(7);
  EXPECT_EQ(domination_radius(g, std::vector<VertexId>{3}), 3u);
  EXPECT_EQ(domination_radius(g, std::vector<VertexId>{0, 6}), 3u);
  EXPECT_EQ(domination_radius(g, std::vector<VertexId>{0, 3, 6}), 1u);
}

TEST(Verify, EmptySetRadiusIsInfinite) {
  const Graph g = gen::path(3);
  EXPECT_EQ(domination_radius(g, {}),
            std::numeric_limits<std::uint32_t>::max());
}

TEST(Verify, DisconnectedNeedsMemberPerComponent) {
  const Graph g = Graph::from_edges(4, std::vector<Edge>{{0, 1}, {2, 3}});
  EXPECT_EQ(domination_radius(g, std::vector<VertexId>{0}),
            std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(domination_radius(g, std::vector<VertexId>{0, 2}), 1u);
}

TEST(Verify, BetaRulingSet) {
  const Graph g = gen::path(7);
  EXPECT_TRUE(is_beta_ruling_set(g, std::vector<VertexId>{0, 3, 6}, 2));
  EXPECT_TRUE(is_beta_ruling_set(g, std::vector<VertexId>{3}, 3));
  EXPECT_FALSE(is_beta_ruling_set(g, std::vector<VertexId>{3}, 2));
  // Not independent -> never a ruling set.
  EXPECT_FALSE(is_beta_ruling_set(g, std::vector<VertexId>{0, 1}, 5));
}

TEST(Verify, BetaLargerThanDiameterIsStillValid) {
  const Graph g = gen::complete(8);  // diameter 1
  EXPECT_TRUE(is_beta_ruling_set(g, std::vector<VertexId>{3}, 5));
  const RulingSetReport report =
      check_ruling_set(g, std::vector<VertexId>{3}, 5);
  EXPECT_TRUE(report.valid);
  EXPECT_EQ(report.radius, 1u);
}

TEST(Verify, DisconnectedGraphReportsInfiniteRadius) {
  const Graph g = Graph::from_edges(6, std::vector<Edge>{{0, 1}, {3, 4}});
  const RulingSetReport report =
      check_ruling_set(g, std::vector<VertexId>{0}, 2);
  EXPECT_FALSE(report.valid);
  EXPECT_TRUE(report.independent);
  EXPECT_EQ(report.radius, std::numeric_limits<std::uint32_t>::max());
  // One member per component (2 and 5 are isolated) makes it valid again.
  EXPECT_TRUE(
      is_beta_ruling_set(g, std::vector<VertexId>{0, 2, 3, 5}, 2));
}

// A vertex no member reaches has radius UINT32_MAX, which fails even at
// β = UINT32_MAX: the empty set, and a set missing a whole component.
TEST(Verify, UnreachedVertexFailsAtTheLargestBeta) {
  constexpr auto kMaxBeta = std::numeric_limits<std::uint32_t>::max();
  const Graph g = Graph::from_edges(6, std::vector<Edge>{{0, 1}, {1, 2},
                                                         {3, 4}});
  EXPECT_FALSE(is_beta_ruling_set(g, {}, kMaxBeta));
  EXPECT_FALSE(is_beta_ruling_set(g, std::vector<VertexId>{1}, kMaxBeta));
  EXPECT_FALSE(check_ruling_set(g, std::vector<VertexId>{1}, kMaxBeta).valid);
  EXPECT_TRUE(
      is_beta_ruling_set(g, std::vector<VertexId>{1, 3, 5}, kMaxBeta));
  EXPECT_TRUE(
      check_ruling_set(g, std::vector<VertexId>{1, 3, 5}, kMaxBeta).valid);
}

TEST(Verify, MisDetection) {
  const Graph g = gen::cycle(6);
  EXPECT_TRUE(is_maximal_independent_set(g, std::vector<VertexId>{0, 2, 4}));
  // {0} leaves vertices 2, 3, 4 undominated on C6.
  EXPECT_FALSE(is_maximal_independent_set(g, std::vector<VertexId>{0}));
}

TEST(Verify, MisOnC6PairIsMaximal) {
  const Graph g = gen::cycle(6);
  EXPECT_TRUE(is_maximal_independent_set(g, std::vector<VertexId>{0, 3}));
}

TEST(Verify, EmptyGraphEdgeCases) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_TRUE(is_beta_ruling_set(g, {}, 1));
  EXPECT_EQ(domination_radius(g, {}), 0u);
}

TEST(Verify, SingletonGraph) {
  const Graph g = Graph::from_edges(1, {});
  EXPECT_TRUE(is_beta_ruling_set(g, std::vector<VertexId>{0}, 1));
  EXPECT_FALSE(is_beta_ruling_set(g, {}, 1));  // vertex 0 undominated
}

TEST(Verify, ReportFields) {
  const Graph g = gen::path(5);
  const auto report = check_ruling_set(g, std::vector<VertexId>{0, 4}, 2);
  EXPECT_TRUE(report.valid);
  EXPECT_TRUE(report.independent);
  EXPECT_EQ(report.radius, 2u);  // vertex 2 is 2 hops from both members
  EXPECT_EQ(report.size, 2u);
  EXPECT_NE(report.to_string().find("VALID"), std::string::npos);
}

TEST(Verify, ReportFlagsInvalid) {
  const Graph g = gen::path(5);
  const auto report = check_ruling_set(g, std::vector<VertexId>{0}, 1);
  EXPECT_FALSE(report.valid);
  EXPECT_TRUE(report.independent);
  EXPECT_EQ(report.radius, 4u);
}

}  // namespace
}  // namespace rsets
