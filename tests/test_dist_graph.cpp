#include "mpc/dist_graph.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace rsets::mpc {
namespace {

MpcConfig config_for(std::size_t memory, MachineId machines = 4) {
  MpcConfig cfg;
  cfg.num_machines = machines;
  cfg.memory_words = memory;
  cfg.seed = 3;
  return cfg;
}

TEST(DistGraph, PartitionCoversAllVertices) {
  Simulator sim(config_for(1 << 16));
  const Graph g = gen::gnp(300, 0.02, 1);
  DistGraph dg(sim, g);
  std::vector<bool> seen(g.num_vertices(), false);
  for (MachineId m = 0; m < sim.num_machines(); ++m) {
    for (VertexId v : dg.owned(m)) {
      EXPECT_EQ(dg.owner(v), m);
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(DistGraph, PartitionIsBalanced) {
  Simulator sim(config_for(1 << 18, 8));
  const Graph g = gen::cycle(8000);
  DistGraph dg(sim, g);
  for (MachineId m = 0; m < 8; ++m) {
    EXPECT_NEAR(static_cast<double>(dg.owned(m).size()), 1000.0, 200.0);
  }
}

TEST(DistGraph, LoadingChargesStorageAndARound) {
  Simulator sim(config_for(1 << 16));
  const Graph g = gen::gnp(200, 0.05, 2);
  DistGraph dg(sim, g);
  EXPECT_EQ(sim.metrics().rounds, 1u);
  EXPECT_GT(sim.metrics().max_storage_words, 0u);
}

TEST(DistGraph, UndersizedMemoryFails) {
  Simulator sim(config_for(/*memory=*/64));
  const Graph g = gen::gnp(500, 0.1, 2);
  EXPECT_THROW(DistGraph(sim, g), MpcViolation);
}

TEST(DistGraph, ActiveDegreeTracksDeactivation) {
  Simulator sim(config_for(1 << 16));
  const Graph g = gen::star(10);  // hub 0 with 9 leaves
  DistGraph dg(sim, g);
  EXPECT_EQ(dg.active_degree(0), 9u);
  EXPECT_EQ(dg.active_max_degree(sim), 9u);

  // Deactivate four leaves (announced by their owners).
  const std::vector<VertexId> leaves = {1, 2, 3, 4};
  dg.deactivate(sim, leaves);
  EXPECT_EQ(dg.active_count(), 6u);
  EXPECT_EQ(dg.active_degree(0), 5u);
  EXPECT_FALSE(dg.active(1));
  EXPECT_TRUE(dg.active(0));
}

TEST(DistGraph, DeactivateRejectsUnsortedDuplicateAndOutOfRangeLists) {
  Simulator sim(config_for(1 << 16));
  const Graph g = gen::path(10);
  DistGraph dg(sim, g);
  const auto rounds = sim.metrics().rounds;
  const std::vector<std::vector<VertexId>> bad = {
      {4, 3}, {2, 5, 5}, {10}, {1, 2, 10}};
  for (const auto& list : bad) {
    EXPECT_THROW(dg.deactivate(sim, list), std::logic_error);
  }
  // A rejected list spends no round and deactivates nothing.
  EXPECT_EQ(sim.metrics().rounds, rounds);
  EXPECT_EQ(dg.active_count(), 10u);
}

// One round in which each owner announces its share of the list to every
// other machine: M - 1 messages per owner with a non-empty share.
TEST(DistGraph, DeactivationCostsOneRound) {
  Simulator sim(config_for(1 << 16));
  const Graph g = gen::path(40);
  DistGraph dg(sim, g);
  const std::vector<VertexId> list = {0, 7, 13, 21, 39};
  std::vector<std::size_t> share(sim.num_machines(), 0);
  for (VertexId v : list) ++share[dg.owner(v)];
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  for (std::size_t s : share) {
    if (s == 0) continue;
    messages += sim.num_machines() - 1;
    words += (sim.num_machines() - 1) * (s + kHeaderWords);
  }
  const MpcMetrics before = sim.metrics();
  dg.deactivate(sim, list);
  EXPECT_EQ(sim.metrics().rounds, before.rounds + 1);
  EXPECT_EQ(sim.metrics().messages - before.messages, messages);
  EXPECT_EQ(sim.metrics().total_words - before.total_words, words);
  EXPECT_EQ(dg.active_count(), 35u);
}

TEST(DistGraph, ActiveVerticesListMatchesBitset) {
  Simulator sim(config_for(1 << 16));
  const Graph g = gen::cycle(30);
  DistGraph dg(sim, g);
  std::vector<VertexId> removals;
  for (VertexId v = 0; v < 30; v += 3) removals.push_back(v);
  dg.deactivate(sim, removals);
  const auto active = dg.active_vertices();
  EXPECT_EQ(active.size(), 20u);
  for (VertexId v : active) EXPECT_NE(v % 3, 0u);
}

TEST(DistGraph, ActiveMaxDegreeOnEmptyActiveSet) {
  Simulator sim(config_for(1 << 16));
  const Graph g = gen::path(5);
  DistGraph dg(sim, g);
  dg.deactivate(sim, dg.active_vertices());
  EXPECT_EQ(dg.active_count(), 0u);
  EXPECT_EQ(dg.active_max_degree(sim), 0u);
}

}  // namespace
}  // namespace rsets::mpc
