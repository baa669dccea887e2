// det_luby_mpc and det_matching_mpc end to end: the output (size and FNV-1a
// over its ids), the chunk and iteration counts and the 17-field MPC ledger,
// pinned from the per-assignment chunk loops these algorithms ran before
// they fixed their seeds through fix_seed, at 1 and 4 worker threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/det_luby.hpp"
#include "core/det_matching.hpp"
#include "graph/generators.hpp"
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

}  // namespace
}  // namespace rsets
