// Tests of the derandomized marking step — the paper's core primitive.
#include "core/derand.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <string>

#include "core/ruling_set.hpp"
#include "graph/generators.hpp"
#include "mpc/dist_graph.hpp"
#include "util/bits.hpp"
#include "util/fnv.hpp"

namespace rsets {
namespace {

mpc::MpcConfig big_config(mpc::MachineId machines = 4) {
  mpc::MpcConfig cfg;
  cfg.num_machines = machines;
  cfg.memory_words = 1 << 22;
  cfg.seed = 5;
  return cfg;
}

struct Harness {
  mpc::Simulator sim;
  mpc::DistGraph dg;
  Harness(const Graph& g, mpc::MachineId machines = 4)
      : sim(big_config(machines)), dg(sim, g) {}
};

std::vector<VertexId> high_degree_targets(const Graph& g, std::uint32_t d) {
  std::vector<VertexId> targets;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) >= d) targets.push_back(v);
  }
  return targets;
}

DerandMarkOptions options_for(std::uint32_t d, std::uint64_t edge_budget,
                              int chunk_bits = 4) {
  DerandMarkOptions opt;
  opt.levels = std::max(ceil_log2(d + 1), 1);
  opt.edge_budget = edge_budget;
  opt.chunk_bits = chunk_bits;
  return opt;
}

TEST(DerandMark, CoversAtLeastEighthOfTargets) {
  const Graph g = gen::gnp(600, 0.05, 11);  // avg degree ~30
  Harness s(g);
  const std::uint32_t d = 16;
  const auto targets = high_degree_targets(g, d);
  ASSERT_GT(targets.size(), 100u);
  const std::vector<bool> all(g.num_vertices(), true);
  const auto res =
      derand_mark(s.sim, s.dg, all, targets, options_for(d, 1 << 20));
  EXPECT_GE(res.covered_targets, targets.size() / 8);
  EXPECT_FALSE(res.marked.empty());
}

TEST(DerandMark, FinalEstimateAtLeastInitial) {
  const Graph g = gen::random_regular(400, 20, 3);
  Harness s(g);
  const auto targets = high_degree_targets(g, 16);
  const std::vector<bool> all(g.num_vertices(), true);
  const auto res =
      derand_mark(s.sim, s.dg, all, targets, options_for(16, 1 << 20));
  EXPECT_GE(res.final_estimate, res.initial_estimate - 1e-9);
}

TEST(DerandMark, RespectsEdgeBudget) {
  // Tight budget: the lambda penalty must keep marked-subgraph edges in
  // check. By the analysis, final edges <= budget whenever E[X] <= budget/32.
  const Graph g = gen::gnp(800, 0.04, 7);  // m ~ 12800, avg deg 32
  Harness s(g);
  const std::uint32_t d = 64;  // p ~ 1/128 -> E[X] ~ m/16384 ~ tiny
  const auto targets = high_degree_targets(g, 40);
  const std::vector<bool> all(g.num_vertices(), true);
  const std::uint64_t budget = 2048;
  const auto res = derand_mark(s.sim, s.dg, all, targets,
                               options_for(d, budget));
  EXPECT_LE(res.marked_edges, budget);
}

TEST(DerandMark, MarkedVerticesAreActiveCandidates) {
  const Graph g = gen::gnp(300, 0.05, 9);
  Harness s(g);
  // Restrict candidates to even ids.
  std::vector<bool> candidates(g.num_vertices(), false);
  for (VertexId v = 0; v < g.num_vertices(); v += 2) candidates[v] = true;
  const auto targets = high_degree_targets(g, 8);
  const auto res = derand_mark(s.sim, s.dg, candidates, targets,
                               options_for(8, 1 << 20));
  for (VertexId v : res.marked) EXPECT_EQ(v % 2, 0u);
}

TEST(DerandMark, DeterministicAcrossRunsAndMachineCounts) {
  const Graph g = gen::power_law(400, 2.5, 10.0, 13);
  const auto targets = high_degree_targets(g, 8);
  const std::vector<bool> all(g.num_vertices(), true);
  std::vector<VertexId> first;
  for (mpc::MachineId machines : {2, 4, 7}) {
    Harness s(g, machines);
    const auto res = derand_mark(s.sim, s.dg, all, targets,
                                 options_for(8, 1 << 20));
    if (first.empty()) {
      first = res.marked;
      ASSERT_FALSE(first.empty());
    } else {
      EXPECT_EQ(res.marked, first) << machines << " machines";
    }
  }
}

TEST(DerandMark, ConsumesZeroRandomBits) {
  const Graph g = gen::gnp(300, 0.05, 1);
  Harness s(g);
  const auto targets = high_degree_targets(g, 8);
  const std::vector<bool> all(g.num_vertices(), true);
  derand_mark(s.sim, s.dg, all, targets, options_for(8, 1 << 20));
  s.sim.sync_metrics();
  EXPECT_EQ(s.sim.metrics().random_words, 0u);
}

// Claim C5: a chunk of c seed bits costs one allreduce (2 rounds), and a
// level of id_bits + 1 seed bits takes ceil((id_bits + 1) / c) chunks.
TEST(DerandMark, RoundCostIsTwoPerChunk) {
  const Graph g = gen::gnp(200, 0.08, 2);
  const auto targets = high_degree_targets(g, 8);
  const std::vector<bool> all(g.num_vertices(), true);
  const int id_bits = bit_width_for(g.num_vertices());
  for (int levels = 1; levels <= 4; ++levels) {
    for (int chunk_bits : {1, 3, 4, 8}) {
      Harness s(g);
      DerandMarkOptions opt = options_for(8, 1 << 20, chunk_bits);
      opt.levels = levels;
      const auto res = derand_mark(s.sim, s.dg, all, targets, opt);
      const std::string at = "levels=" + std::to_string(levels) +
                             " chunk_bits=" + std::to_string(chunk_bits);
      EXPECT_EQ(res.chunks,
                levels * ((id_bits + 1 + chunk_bits - 1) / chunk_bits))
          << at;
      EXPECT_EQ(res.rounds, 2ull * static_cast<std::uint64_t>(res.chunks))
          << at;
    }
  }
}

TEST(DerandMark, ChunkWidthDoesNotAffectGuarantee) {
  const Graph g = gen::random_regular(300, 12, 8);
  const auto targets = high_degree_targets(g, 10);
  const std::vector<bool> all(g.num_vertices(), true);
  for (int chunk : {1, 2, 5, 8}) {
    Harness s(g);
    const auto res = derand_mark(s.sim, s.dg, all, targets,
                                 options_for(10, 1 << 20, chunk));
    EXPECT_GE(res.covered_targets, targets.size() / 8) << "chunk " << chunk;
    EXPECT_GE(res.final_estimate, res.initial_estimate - 1e-9);
  }
}

TEST(DerandMark, EmptyTargetsStillSelectsSafely) {
  const Graph g = gen::gnp(100, 0.05, 4);
  Harness s(g);
  const std::vector<bool> all(g.num_vertices(), true);
  const auto res = derand_mark(s.sim, s.dg, all, {}, options_for(4, 1 << 20));
  EXPECT_EQ(res.covered_targets, 0u);
  EXPECT_LE(res.marked_edges, std::uint64_t{1} << 20);
}

TEST(DerandMark, RejectsBadOptions) {
  const Graph g = gen::path(10);
  Harness s(g);
  const std::vector<bool> all(g.num_vertices(), true);
  DerandMarkOptions bad;
  bad.levels = 0;
  EXPECT_THROW(derand_mark(s.sim, s.dg, all, {}, bad), std::invalid_argument);
  bad.levels = 1;
  bad.edge_budget = 0;
  EXPECT_THROW(derand_mark(s.sim, s.dg, all, {}, bad), std::invalid_argument);
  bad.edge_budget = 10;
  bad.chunk_bits = 0;
  EXPECT_THROW(derand_mark(s.sim, s.dg, all, {}, bad), std::invalid_argument);
}

TEST(DerandMark, MarkingFractionNearExpectation) {
  // With k levels the marked fraction should be near 2^-k of candidates
  // (the estimator only nudges the seed, it does not rewrite marginals).
  const Graph g = gen::random_regular(2000, 8, 5);
  Harness s(g);
  const std::uint32_t d = 8;
  const auto targets = high_degree_targets(g, d);
  const std::vector<bool> all(g.num_vertices(), true);
  const auto opt = options_for(d, 1 << 20);
  const auto res = derand_mark(s.sim, s.dg, all, targets, opt);
  const double p = std::exp2(-opt.levels);
  const double expected = p * g.num_vertices();
  EXPECT_GT(static_cast<double>(res.marked.size()), expected / 8.0);
  EXPECT_LT(static_cast<double>(res.marked.size()), expected * 8.0);
}

// --- counting evaluator vs the per-assignment scalar evaluator ------------

// The evaluator the counting pass replaced: every target pair and every
// candidate edge through prob_one / prob_both_one, summed target by target.
std::pair<double, double> scalar_partial(const detail::EstimatorShard& shard,
                                         const PairwiseBitLevel& level,
                                         const detail::FutureFactors& f) {
  double cover = 0.0;
  for (std::size_t t = 0; t < shard.num_targets(); ++t) {
    const auto t_list = shard.target(t);
    double singles = 0.0;
    double pairs = 0.0;
    for (std::size_t i = 0; i < t_list.size(); ++i) {
      singles += level.prob_one(t_list[i]);
      for (std::size_t j = i + 1; j < t_list.size(); ++j) {
        pairs += level.prob_both_one(t_list[i], t_list[j]);
      }
    }
    cover += singles * f.single - pairs * f.pair;
  }
  double edge_mass = 0.0;
  for (const Edge& e : shard.edges) {
    edge_mass += level.prob_both_one(e.u, e.v) * f.pair;
  }
  return {cover, edge_mass};
}

// ... once per assignment, each on a tentative copy of the level.
std::vector<double> scalar_chunk_partials(const detail::EstimatorShard& shard,
                                          const PairwiseBitLevel& level,
                                          const std::vector<int>& chunk,
                                          const detail::FutureFactors& f) {
  const std::uint32_t assignments = 1u << chunk.size();
  std::vector<double> partials(2 * assignments);
  for (std::uint32_t a = 0; a < assignments; ++a) {
    PairwiseBitLevel tentative = level;
    for (std::size_t b = 0; b < chunk.size(); ++b) {
      tentative.fix_bit(chunk[b], (a >> b) & 1u);
    }
    const auto [cover, edge_mass] = scalar_partial(shard, tentative, f);
    partials[2 * a] = cover;
    partials[2 * a + 1] = edge_mass;
  }
  return partials;
}

// A shard built the way derand_mark builds one: each target's candidate
// closed neighbourhood truncated to `trunc`, and every candidate edge.
detail::EstimatorShard build_shard(const Graph& g,
                                   const std::vector<bool>& candidate,
                                   const std::vector<VertexId>& targets,
                                   std::size_t trunc) {
  detail::EstimatorShard shard;
  for (VertexId v : targets) {
    const std::size_t begin = shard.members.size();
    if (candidate[v]) shard.members.push_back(v);
    for (VertexId u : g.neighbors(v)) {
      if (shard.members.size() - begin >= trunc) break;
      if (candidate[u]) shard.members.push_back(u);
    }
    shard.end_target();
  }
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId w : g.neighbors(u)) {
      if (u < w && candidate[u] && candidate[w]) shard.edges.push_back({u, w});
    }
  }
  return shard;
}

void expect_bit_identical(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const std::string& at) {
  ASSERT_EQ(got.size(), want.size()) << at;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << at << " partial " << i << ": " << got[i] << " vs " << want[i];
  }
}

struct WalkCounts {
  int chunks = 0;
  int constant_chunks = 0;  // chunks that fix c (every member non-free)
};

// Walks every level and chunk of a k-level family over `shard` as
// derand_mark does, comparing each chunk's partials (and the take = 0
// initial estimate) bit for bit. Assignments are picked by `rng` so the
// walk visits varied fixed parts; survivors are filtered between levels.
WalkCounts walk_and_compare(detail::EstimatorShard shard, VertexId n, int k,
                            int chunk_bits, std::mt19937_64& rng,
                            const std::string& label) {
  WalkCounts counts;
  MarkingFamily family(std::max<std::uint64_t>(n, 2), k);
  auto factors = [&](int j) {
    const int remaining = k - 1 - j;
    return detail::FutureFactors{std::exp2(-remaining),
                                 std::exp2(-2 * remaining)};
  };
  expect_bit_identical(
      detail::chunk_partials(shard, family.level(0), {}, factors(0)),
      scalar_chunk_partials(shard, family.level(0), {}, factors(0)),
      label + " initial");
  for (int j = 0; j < k; ++j) {
    PairwiseBitLevel& level = family.level(j);
    while (!level.fully_fixed()) {
      std::vector<int> chunk;
      for (int i = 0; i <= level.bits(); ++i) {
        if (!level.bit_fixed(i)) chunk.push_back(i);
      }
      chunk.resize(std::min<std::size_t>(chunk.size(), chunk_bits));
      const std::string at = label + " level " + std::to_string(j) +
                             " chunk " + std::to_string(counts.chunks);
      expect_bit_identical(
          detail::chunk_partials(shard, level, chunk, factors(j)),
          scalar_chunk_partials(shard, level, chunk, factors(j)), at);
      if (chunk.back() == level.bits()) ++counts.constant_chunks;
      const std::uint64_t a = rng();
      for (std::size_t b = 0; b < chunk.size(); ++b) {
        level.fix_bit(chunk[b], static_cast<int>((a >> b) & 1u));
      }
      ++counts.chunks;
    }
    detail::EstimatorShard want;
    for (std::size_t t = 0; t < shard.num_targets(); ++t) {
      for (VertexId u : shard.target(t)) {
        if (level.eval(u) == 1) want.members.push_back(u);
      }
      want.end_target();
    }
    for (const Edge& e : shard.edges) {
      if (level.eval(e.u) == 1 && level.eval(e.v) == 1) want.edges.push_back(e);
    }
    detail::keep_survivors(shard, level);
    EXPECT_EQ(shard.target_begin, want.target_begin) << label;
    EXPECT_EQ(shard.members, want.members) << label;
    EXPECT_EQ(shard.edges, want.edges) << label;
  }
  return counts;
}

TEST(DerandMark, ChunkPartialsMatchScalarReference) {
  std::mt19937_64 rng(2024);
  WalkCounts total;
  for (const int chunk_bits : {1, 4, 8, 12}) {
    for (const int k : {1, 2, 3, 4}) {
      // 12-bit chunks cost the reference 2^12 passes: their graph is sparse,
      // with 13 id bits so that a 12-bit chunk leaves free classes behind.
      const bool wide = chunk_bits == 12;
      const VertexId n = wide ? 4500 : 300;
      const Graph g = gen::gnp(n, (wide ? 3.0 : 18.0) / n,
                               static_cast<std::uint64_t>(31 * k + chunk_bits));
      std::vector<bool> candidate(n);
      std::vector<VertexId> targets;
      for (VertexId v = 0; v < n; ++v) {
        candidate[v] = rng() % 10 < 7;  // the mask excludes ~30%
        const std::size_t want_targets = wide ? 40 : 120;
        if (rng() % n < want_targets) targets.push_back(v);
      }
      const std::size_t trunc = std::size_t{1} << k;  // lists get truncated
      const std::string label = "chunk_bits=" + std::to_string(chunk_bits) +
                                " k=" + std::to_string(k);
      const WalkCounts c = walk_and_compare(
          build_shard(g, candidate, targets, trunc), n, k, chunk_bits, rng,
          label);
      total.chunks += c.chunks;
      total.constant_chunks += c.constant_chunks;
      // Edges only, and targets only.
      walk_and_compare(build_shard(g, candidate, {}, trunc), n, k, chunk_bits,
                       rng, label + " no targets");
      const std::vector<bool> none(n, false);
      walk_and_compare(build_shard(g, none, targets, trunc), n, k, chunk_bits,
                       rng, label + " no candidates");
    }
  }
  // The empty shard.
  walk_and_compare(detail::EstimatorShard{}, 50, 2, 4, rng, "empty");
  EXPECT_GT(total.constant_chunks, 0);
  EXPECT_GT(total.chunks, total.constant_chunks);
}

TEST(DerandMark, ChunkPartialsRejectFixedOrRepeatedBits) {
  PairwiseBitLevel level(8);
  level.fix_bit(0, 1);
  const detail::EstimatorShard shard;
  const detail::FutureFactors f{1.0, 1.0};
  EXPECT_THROW(detail::chunk_partials(shard, level, std::vector<int>{0}, f),
               std::invalid_argument);
  EXPECT_THROW(
      detail::chunk_partials(shard, level, std::vector<int>{1, 1}, f),
      std::invalid_argument);
  EXPECT_THROW(
      detail::chunk_partials(shard, level, std::vector<int>{8, 8}, f),
      std::invalid_argument);
  EXPECT_THROW(detail::chunk_partials(shard, level, std::vector<int>{9}, f),
               std::invalid_argument);
  EXPECT_EQ(
      detail::chunk_partials(shard, level, std::vector<int>{1, 8}, f).size(),
      8u);
}

// det_ruling_mpc end to end: the ruling set (FNV-1a over its ids) and the
// 17-field MPC ledger, pinned from the per-assignment evaluator, at 1 and 4
// worker threads. Tight gather budgets force derandomized phases.
TEST(DerandMark, DetRulingSetAndLedgerMatchPinnedValues) {
  struct Pinned {
    VertexId n;
    double avg_deg;
    std::uint64_t seed;
    std::uint32_t beta;
    int chunk_bits;
    std::uint64_t budget_per_vertex;
    std::size_t size;
    std::uint64_t hash;
    std::uint64_t chunks;
    std::vector<std::uint64_t> ledger;
  };
  const std::vector<Pinned> cases = {
      {3000, 24, 1, 2, 4, 4, 336, 0xbe2a4c2c35a38652ull, 32,
       {80, 700, 37793, 2345, 2153, 10922, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {2000, 40, 2, 3, 8, 4, 70, 0xe93a69a7b3080ef1ull, 8,
       {25, 266, 50354, 3598, 3598, 11548, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {1500, 16, 3, 2, 1, 2, 239, 0x4f30f133c82fae70ull, 96,
       {208, 1596, 22016, 994, 998, 4240, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
  };
  for (const Pinned& c : cases) {
    const Graph g = gen::gnp(c.n, c.avg_deg / (c.n - 1), c.seed);
    for (const std::uint32_t threads : {1u, 4u}) {
      RulingSetOptions options;
      options.algorithm = Algorithm::kDetRulingMpc;
      options.beta = c.beta;
      options.chunk_bits = c.chunk_bits;
      options.gather_budget_words = c.budget_per_vertex * c.n;
      options.mpc.num_machines = 8;
      options.mpc.num_threads = threads;
      const RulingSetResult r = compute_ruling_set(g, options);
      std::uint64_t hash = kFnvOffsetBasis;
      for (VertexId v : r.ruling_set) hash = fnv1a_word(hash, v);
      const mpc::MpcMetrics& m = r.metrics;
      const std::vector<std::uint64_t> ledger = {
          m.rounds,           m.messages,          m.total_words,
          m.max_send_words,   m.max_recv_words,    m.max_storage_words,
          m.violations,       m.random_words,      m.faults_injected,
          m.checkpoints,      m.recovery_rounds,   m.degraded_subrounds,
          m.deadline_misses,  m.speculative_rounds, m.corrupt_detected,
          m.integrity_retries, m.quarantined_rounds};
      const std::string at =
          "n=" + std::to_string(c.n) + " threads=" + std::to_string(threads);
      EXPECT_EQ(r.ruling_set.size(), c.size) << at;
      EXPECT_EQ(hash, c.hash) << at;
      EXPECT_EQ(r.derand_chunks, c.chunks) << at;
      EXPECT_EQ(ledger, c.ledger) << at;
    }
  }
}

}  // namespace
}  // namespace rsets
