// Exhaustive small-graph oracle: every labelled graph on at most six
// vertices (33 868 graphs), run through every registered algorithm at every
// beta in {1, 2, 3} the algorithm supports. Each output must be a valid
// beta-ruling set — AGLP at its own guaranteed radius, which it picks from
// n rather than from the request — and greedy must equal the sequential
// greedy_ruling_set oracle. det_matching_mpc must return a maximal matching
// on every one of those graphs.
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/det_matching.hpp"
#include "core/greedy.hpp"
#include "core/ruling_set.hpp"
#include "graph/graph.hpp"
#include "graph/verify.hpp"
#include "util/bits.hpp"

namespace rsets {

// Test listings print the suite parameter by name, not its raw bytes. It
// lives in namespace rsets (internal linkage), where argument-dependent
// lookup on Algorithm finds it.
static void PrintTo(Algorithm algorithm, std::ostream* os) {
  *os << algorithm_name(algorithm);
}

namespace {

constexpr VertexId kMaxVertices = 6;

struct SmallGraph {
  VertexId n;
  std::uint64_t mask;  // bit i selects the i-th pair u < v, lexicographic
  Graph graph;
};

std::vector<SmallGraph> build_small_graphs() {
  std::vector<SmallGraph> graphs;
  for (VertexId n = 0; n <= kMaxVertices; ++n) {
    std::vector<Edge> pairs;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) pairs.push_back({u, v});
    }
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << pairs.size());
         ++mask) {
      std::vector<Edge> edges;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        if ((mask >> i) & 1) edges.push_back(pairs[i]);
      }
      graphs.push_back({n, mask, Graph::from_edges(n, edges)});
    }
  }
  return graphs;
}

const std::vector<SmallGraph>& all_small_graphs() {
  static const std::vector<SmallGraph> graphs = build_small_graphs();
  return graphs;
}

std::vector<Algorithm> registered_algorithms() {
  std::vector<Algorithm> out;
  for (const AlgorithmInfo& info : algorithm_registry()) {
    out.push_back(info.algorithm);
  }
  return out;
}

class ExhaustiveSmallGraphs : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ExhaustiveSmallGraphs, EveryOutputIsAValidRulingSet) {
  const std::vector<SmallGraph>& graphs = all_small_graphs();
  ASSERT_EQ(graphs.size(), 33868u);
  const AlgorithmInfo& info = algorithm_info(GetParam());
  std::uint64_t checked = 0;
  for (std::uint32_t beta = 1; beta <= 3; ++beta) {
    if (beta < info.min_beta || (info.max_beta != 0 && beta > info.max_beta)) {
      continue;
    }
    for (const SmallGraph& sg : graphs) {
      RulingSetOptions options;
      options.algorithm = info.algorithm;
      options.beta = beta;
      const RulingSetResult result = compute_ruling_set(sg.graph, options);
      const std::uint32_t radius =
          info.algorithm == Algorithm::kAglpCongest
              ? (sg.n <= 1 ? 0u
                           : static_cast<std::uint32_t>(bit_width_for(sg.n)))
              : beta;
      const std::string where = "beta=" + std::to_string(beta) +
                                " n=" + std::to_string(sg.n) +
                                " edge mask=" + std::to_string(sg.mask);
      ASSERT_EQ(result.beta, radius) << where;
      ASSERT_TRUE(is_beta_ruling_set(sg.graph, result.ruling_set, radius))
          << where;
      if (info.algorithm == Algorithm::kGreedySequential) {
        ASSERT_EQ(result.ruling_set, greedy_ruling_set(sg.graph, beta))
            << where;
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, graphs.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ExhaustiveSmallGraphs,
    ::testing::ValuesIn(registered_algorithms()),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return algorithm_name(info.param);
    });

TEST(ExhaustiveSmallMatching, DetMatchingIsMaximalOnEveryGraph) {
  const std::vector<SmallGraph>& graphs = all_small_graphs();
  ASSERT_EQ(graphs.size(), 33868u);
  for (const SmallGraph& sg : graphs) {
    const DetMatchingResult result = det_matching_mpc(sg.graph, {});
    ASSERT_TRUE(is_maximal_matching(sg.graph, result.matching))
        << "n=" << sg.n << " edge mask=" << sg.mask;
  }
}

}  // namespace
}  // namespace rsets
