// Exhaustive small-graph oracle: every labelled graph on at most six
// vertices (33 868 graphs), run through every registered algorithm at every
// beta in {1, 2, 3} the algorithm supports. Each output must be a valid
// beta-ruling set — AGLP at its own guaranteed radius, which it picks from
// n rather than from the request — and greedy must equal the sequential
// greedy_ruling_set oracle. det_matching_mpc must return a maximal matching
// on every one of those graphs. On the graphs with at most five vertices the
// service's region check must agree with is_beta_ruling_set on every subset,
// and every single-edge toggle through a RulingSetService must reproduce a
// from-scratch recompute.
#include <algorithm>
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
#include "serve/dynamic_graph.hpp"
#include "serve/service.hpp"
#include "serve/updates.hpp"
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
// The service sweeps stop one vertex short: 1 100 graphs.
constexpr VertexId kMaxServiceVertices = 5;

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

TEST(ExhaustiveSmallService, RegionValidOverAllVerticesIsTheOracle) {
  std::uint64_t checked = 0;
  for (const SmallGraph& sg : all_small_graphs()) {
    if (sg.n > kMaxServiceVertices) continue;
    const serve::DynamicGraph dg(sg.graph);
    std::vector<VertexId> all(sg.n);
    for (VertexId v = 0; v < sg.n; ++v) all[v] = v;
    for (std::uint32_t subset = 0; subset < (1u << sg.n); ++subset) {
      std::vector<VertexId> set;
      for (VertexId v = 0; v < sg.n; ++v) {
        if ((subset >> v) & 1) set.push_back(v);
      }
      for (std::uint32_t beta = 1; beta <= 3; ++beta) {
        ASSERT_EQ(serve::region_valid(dg, set, beta, all),
                  is_beta_ruling_set(sg.graph, set, beta))
            << "beta=" << beta << " n=" << sg.n << " edge mask=" << sg.mask
            << " subset=" << subset;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

// Each single-edge toggle, and the toggle back, is one region-certified
// frontier epoch: greedy's exact cascade, or det_ruling_mpc's rerun. Every
// epoch's set must equal a from-scratch recompute on the new graph.
TEST(ExhaustiveSmallService, EverySingleEdgeToggleMatchesFromScratch) {
  for (Algorithm algorithm :
       {Algorithm::kGreedySequential, Algorithm::kDetRulingMpc}) {
    const AlgorithmInfo& info = algorithm_info(algorithm);
    for (std::uint32_t beta = std::max(info.min_beta, 1u); beta <= 3;
         ++beta) {
      serve::ServiceConfig cfg;
      cfg.options.algorithm = algorithm;
      cfg.options.beta = beta;
      cfg.full_threshold = 1.0;    // a churn fraction never exceeds 1
      cfg.full_certify_every = 0;  // so every epoch is region-certified
      for (const SmallGraph& sg : all_small_graphs()) {
        if (sg.n < 2 || sg.n > kMaxServiceVertices) continue;
        serve::RulingSetService service(sg.graph, cfg);
        std::uint64_t epochs = 0;
        for (VertexId u = 0; u < sg.n; ++u) {
          for (VertexId v = u + 1; v < sg.n; ++v) {
            for (int pass = 0; pass < 2; ++pass) {
              const bool present = service.graph().has_edge(u, v);
              serve::UpdateBatch batch;
              batch.updates.push_back(
                  {present ? serve::EdgeUpdate::Op::kDelete
                           : serve::EdgeUpdate::Op::kInsert,
                   u, v});
              const std::string where =
                  std::string(info.name) + " beta=" + std::to_string(beta) +
                  " n=" + std::to_string(sg.n) +
                  " edge mask=" + std::to_string(sg.mask) + " toggle " +
                  std::to_string(u) + "-" + std::to_string(v) + " pass " +
                  std::to_string(pass);
              const serve::BatchReport report = service.apply(batch);
              ASSERT_EQ(report.scope, serve::RepairScope::kFrontier) << where;
              ASSERT_TRUE(report.certified) << where;
              const RulingSetResult truth =
                  compute_ruling_set(service.snapshot(), cfg.options);
              ASSERT_EQ(service.ruling_set(), truth.ruling_set) << where;
              ++epochs;
            }
          }
        }
        const serve::ServiceMetrics& m = service.metrics();
        ASSERT_EQ(m.certifications_region, epochs);
        ASSERT_EQ(m.cascade_repairs,
                  algorithm == Algorithm::kGreedySequential ? epochs : 0u);
      }
    }
  }
}

}  // namespace
}  // namespace rsets
