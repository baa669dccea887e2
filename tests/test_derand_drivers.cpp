// det_luby_mpc and det_matching_mpc end to end: the output (size and FNV-1a
// over its ids), the chunk and iteration counts and the 17-field MPC ledger,
// pinned from the per-assignment chunk loops these algorithms ran before
// they fixed their seeds through fix_seed, at 1 and 4 worker threads.
//
// MpcDriverPins pins luby_mis_mpc and sample_gather_2ruling the same way,
// and every MPC driver once under a scheduled crash with checkpoints (which
// restore the DistGraph's activity bitset), from before the drivers shared
// one announce-and-retire path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/det_luby.hpp"
#include "core/det_matching.hpp"
#include "core/det_ruling.hpp"
#include "core/luby.hpp"
#include "core/sample_gather.hpp"
#include "graph/generators.hpp"
#include "mpc/fault/fault.hpp"
#include "util/fnv.hpp"

namespace rsets {
namespace {

struct Pinned {
  VertexId n;
  double avg_deg;
  std::uint64_t seed;
  int chunk_bits;
  std::size_t size;
  std::uint64_t hash;
  std::uint64_t chunks;
  std::uint64_t iterations;
  std::vector<std::uint64_t> ledger;
};

mpc::MpcConfig config_for(unsigned threads) {
  mpc::MpcConfig cfg;
  cfg.num_machines = 8;
  cfg.memory_words = 1 << 22;
  cfg.num_threads = threads;
  return cfg;
}

std::vector<std::uint64_t> ledger_of(const mpc::MpcMetrics& m) {
  return {m.rounds,           m.messages,          m.total_words,
          m.max_send_words,   m.max_recv_words,    m.max_storage_words,
          m.violations,       m.random_words,      m.faults_injected,
          m.checkpoints,      m.recovery_rounds,   m.degraded_subrounds,
          m.deadline_misses,  m.speculative_rounds, m.corrupt_detected,
          m.integrity_retries, m.quarantined_rounds};
}

std::string where(const Pinned& c, unsigned threads) {
  return "n=" + std::to_string(c.n) + " chunk_bits=" +
         std::to_string(c.chunk_bits) + " threads=" + std::to_string(threads);
}

TEST(DerandDrivers, DetLubyPinnedValues) {
  const std::vector<Pinned> cases = {
      {1500, 8, 1, 4, 416, 0xc454635facdd1995ull, 63, 6,
       {145, 1665, 60038, 2850, 2850, 2082, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {800, 12, 2, 8, 175, 0x5416f254dd8e5539ull, 44, 5,
       {104, 1347, 115575, 2264, 2264, 1530, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {2000, 6, 3, 1, 677, 0x53d031c394bbde32ull, 252, 6,
       {523, 4359, 64781, 2856, 2856, 2211, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
  };
  for (const Pinned& c : cases) {
    const Graph g = gen::gnp(c.n, c.avg_deg / (c.n - 1), c.seed);
    for (const unsigned threads : {1u, 4u}) {
      DetLubyOptions options;
      options.chunk_bits = c.chunk_bits;
      const RulingSetResult r = det_luby_mis_mpc(g, config_for(threads),
                                                 options);
      std::uint64_t hash = kFnvOffsetBasis;
      for (VertexId v : r.ruling_set) hash = fnv1a_word(hash, v);
      const std::string at = where(c, threads);
      EXPECT_EQ(r.ruling_set.size(), c.size) << at;
      EXPECT_EQ(hash, c.hash) << at;
      EXPECT_EQ(r.derand_chunks, c.chunks) << at;
      EXPECT_EQ(r.phases, c.iterations) << at;
      EXPECT_EQ(ledger_of(r.metrics), c.ledger) << at;
    }
  }
}

TEST(DerandDrivers, DetMatchingPinnedValues) {
  const std::vector<Pinned> cases = {
      {800, 8, 1, 4, 358, 0xc995aa2e94162ceaull, 160, 9,
       {339, 3015, 49832, 762, 822, 1487, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {300, 6, 2, 8, 131, 0xa71db062ad7c6f00ull, 44, 5,
       {99, 1045, 86779, 1806, 1806, 450, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {1200, 6, 3, 1, 520, 0x4dafe40080e9c779ull, 507, 9,
       {1033, 7880, 48454, 862, 940, 1884, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
  };
  for (const Pinned& c : cases) {
    const Graph g = gen::gnp(c.n, c.avg_deg / (c.n - 1), c.seed);
    for (const unsigned threads : {1u, 4u}) {
      DetMatchingOptions options;
      options.chunk_bits = c.chunk_bits;
      const DetMatchingResult r =
          det_matching_mpc(g, config_for(threads), options);
      std::uint64_t hash = kFnvOffsetBasis;
      for (const Edge& e : r.matching) {
        hash = fnv1a_word(fnv1a_word(hash, e.u), e.v);
      }
      const std::string at = where(c, threads);
      EXPECT_EQ(r.matching.size(), c.size) << at;
      EXPECT_EQ(hash, c.hash) << at;
      EXPECT_EQ(r.derand_chunks, c.chunks) << at;
      EXPECT_EQ(r.iterations, c.iterations) << at;
      EXPECT_EQ(ledger_of(r.metrics), c.ledger) << at;
    }
  }
}

// One MPC driver's outcome: output size, FNV-1a over its ids (edges hash
// both endpoints), phase or iteration count, and the ledger.
struct Outcome {
  std::size_t size = 0;
  std::uint64_t hash = kFnvOffsetBasis;
  std::uint64_t phases = 0;
  std::vector<std::uint64_t> ledger;
};

Outcome outcome_of(const RulingSetResult& r) {
  Outcome o{r.ruling_set.size(), kFnvOffsetBasis, r.phases,
            ledger_of(r.metrics)};
  for (VertexId v : r.ruling_set) o.hash = fnv1a_word(o.hash, v);
  return o;
}

enum class Driver { kLuby, kSampleGather, kDetLuby, kDetMatching, kDetRuling };
constexpr const char* kDriverNames[] = {"luby", "sample_gather", "det_luby",
                                        "det_matching", "det_ruling"};

// Runs `driver` with its default options, except the gather budget of the
// two sample-and-gather drivers, `budget_per_vertex` words per vertex.
Outcome run(Driver driver, const Graph& g, const mpc::MpcConfig& cfg,
            std::uint64_t budget_per_vertex) {
  const std::uint64_t budget = budget_per_vertex * g.num_vertices();
  switch (driver) {
    case Driver::kLuby:
      return outcome_of(luby_mis_mpc(g, cfg));
    case Driver::kSampleGather: {
      SampleGatherOptions options;
      options.gather_budget_words = budget;
      return outcome_of(sample_gather_2ruling(g, cfg, options));
    }
    case Driver::kDetLuby:
      return outcome_of(det_luby_mis_mpc(g, cfg));
    case Driver::kDetMatching: {
      const DetMatchingResult r = det_matching_mpc(g, cfg);
      Outcome o{r.matching.size(), kFnvOffsetBasis, r.iterations,
                ledger_of(r.metrics)};
      for (const Edge& e : r.matching) {
        o.hash = fnv1a_word(fnv1a_word(o.hash, e.u), e.v);
      }
      return o;
    }
    case Driver::kDetRuling: {
      DetRulingOptions options;
      options.gather_budget_words = budget;
      return outcome_of(det_ruling_set_mpc(g, cfg, options));
    }
  }
  return {};
}

struct DriverPin {
  Driver driver;
  VertexId n;
  double avg_deg;
  std::uint64_t seed;
  std::uint64_t budget_per_vertex;
  Outcome expected;
};

void expect_outcome(const Outcome& got, const Outcome& want,
                    const std::string& at) {
  EXPECT_EQ(got.size, want.size) << at;
  EXPECT_EQ(got.hash, want.hash) << at;
  EXPECT_EQ(got.phases, want.phases) << at;
  EXPECT_EQ(got.ledger, want.ledger) << at;
}

void expect_pins_at_1_and_4_threads(const std::vector<DriverPin>& pins) {
  for (const DriverPin& c : pins) {
    const Graph g = gen::gnp(c.n, c.avg_deg / (c.n - 1), c.seed);
    for (const unsigned threads : {1u, 4u}) {
      expect_outcome(run(c.driver, g, config_for(threads), c.budget_per_vertex),
                     c.expected,
                     "n=" + std::to_string(c.n) +
                         " threads=" + std::to_string(threads));
    }
  }
}

TEST(MpcDriverPins, LubyPinnedValues) {
  expect_pins_at_1_and_4_threads({
      {Driver::kLuby, 1500, 8, 1, 0,
       {407, 0x87cafbb2a51d58afull, 4,
       {13, 550, 49519, 4268, 4268, 2082, 0, 2072, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
      {Driver::kLuby, 800, 12, 2, 0,
       {172, 0xebcb587be4d30fb6ull, 4,
       {13, 523, 35702, 3389, 3389, 1530, 0, 1108, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
      {Driver::kLuby, 2000, 6, 3, 0,
       {647, 0x6a661518657e6524ull, 4,
       {13, 492, 53359, 4277, 4277, 2211, 0, 2641, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
  });
}

TEST(MpcDriverPins, SampleGatherPinnedValues) {
  expect_pins_at_1_and_4_threads({
      {Driver::kSampleGather, 2000, 4, 5, 1,
       {749, 0xd4978ef85bf81a68ull, 1,
       {17, 252, 25709, 2716, 1291, 2914, 0, 2000, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
      {Driver::kSampleGather, 2000, 40, 2, 0,
       {140, 0x5613764d5b8b96ffull, 1,
       {12, 168, 30066, 1911, 8534, 19956, 0, 2000, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
      {Driver::kSampleGather, 3000, 4, 3, 2,
       {1034, 0xda345654c0d5cb95ull, 1,
       {17, 252, 39910, 4725, 2581, 5113, 0, 3000, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
      {Driver::kSampleGather, 500, 0, 4, 0,
       {500, 0x8e07d716feaf3681ull, 0,
       {4, 70, 3654, 497, 459, 146, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
  });
}

// crash@6:3 with a checkpoint every 4 rounds: machine 3 crashes once, the
// run restores the last checkpoint and re-executes, and the output equals
// the fault-free run's.
TEST(MpcDriverPins, CrashedDriversWithCheckpointsPinnedValues) {
  const std::vector<DriverPin> pins = {
      {Driver::kLuby, 1000, 8, 4, 0,
       {278, 0x1c417c4b5a5d0688ull, 4,
       {15, 558, 35058, 2963, 2963, 1411, 0, 1452, 1, 2, 2, 0, 0, 0, 0, 0, 0}}},
      {Driver::kSampleGather, 1000, 8, 4, 4,
       {194, 0xe9ee1bd149cd312bull, 1,
       {19, 252, 12493, 1148, 1068, 2520, 0, 1000, 1, 3, 2, 0, 0, 0, 0, 0, 0}}},
      {Driver::kDetLuby, 1000, 8, 4, 0,
       {272, 0x407d7d478b92de9cull, 5,
       {132, 1489, 42606, 1980, 1980, 1411, 0, 0, 1, 32, 2, 0, 0, 0, 0, 0, 0}}},
      {Driver::kDetMatching, 500, 8, 4, 0,
       {230, 0xe38b4b45f5608cbull, 9,
       {325, 2862, 42336, 560, 536, 984, 0, 0, 1, 80, 2, 0, 0, 0, 0, 0, 0}}},
      {Driver::kDetRuling, 1000, 16, 4, 4,
       {155, 0x8351e5649b83aecull, 1,
       {66, 588, 19105, 742, 698, 3147, 0, 0, 1, 15, 2, 0, 0, 0, 0, 0, 0}}},
  };
  for (const DriverPin& c : pins) {
    const Graph g = gen::gnp(c.n, c.avg_deg / (c.n - 1), c.seed);
    const std::string at = kDriverNames[static_cast<int>(c.driver)];
    const Outcome clean = run(c.driver, g, config_for(1), c.budget_per_vertex);
    for (const unsigned threads : {1u, 4u}) {
      mpc::MpcConfig cfg = config_for(threads);
      cfg.faults = mpc::parse_fault_spec("crash@6:3");
      cfg.checkpoint_every = 4;
      const Outcome got = run(c.driver, g, cfg, c.budget_per_vertex);
      expect_outcome(got, c.expected,
                     at + " threads=" + std::to_string(threads));
      EXPECT_EQ(got.hash, clean.hash) << at;
      ASSERT_EQ(got.ledger.size(), 17u) << at;
      EXPECT_GT(got.ledger[8], 0u) << at;   // faults_injected
      EXPECT_GT(got.ledger[9], 0u) << at;   // checkpoints
      EXPECT_GT(got.ledger[10], 0u) << at;  // recovery_rounds
    }
  }
}

}  // namespace
}  // namespace rsets
