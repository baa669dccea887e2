// Parity of the sort-free gather decode in detail::gather_and_mis against
// the path it replaced: gather_to, then greedy_mis on the members' induced
// subgraph built (and relabelled) through Graph::from_edges. Sets and the
// full 17-field ledger must be equal, at every thread width.
#include "core/phase_common.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/greedy.hpp"
#include "graph/generators.hpp"
#include "mpc/primitives.hpp"

namespace rsets {
namespace {

using mpc::Word;

// The replaced implementation: same records, same rounds, same storage
// charge, but machine 0 copies the records out, relabels the members to
// [0, |members|) and runs greedy_mis on a from_edges CSR.
std::vector<VertexId> reference_gather_and_mis(
    mpc::Simulator& sim, const mpc::DistGraph& dg,
    const std::vector<VertexId>& members,
    const std::vector<std::uint8_t>& in_members) {
  std::vector<std::vector<Word>> contributions(sim.num_machines());
  for (VertexId v : members) {
    auto& payload = contributions[dg.owner(v)];
    payload.push_back(v);
    const std::size_t deg_slot = payload.size();
    payload.push_back(0);
    for (VertexId u : dg.neighbors(v)) {
      if (u < v && in_members[u]) {
        payload.push_back(u);
        ++payload[deg_slot];
      }
    }
  }
  const auto at_root = mpc::gather_to(sim, 0, contributions, 0xF1);
  std::size_t gathered_words = 0;
  std::vector<VertexId> nodes;
  std::vector<Edge> edges;
  for (const auto& payload : at_root) {
    gathered_words += payload.size();
    for (std::size_t i = 0; i < payload.size();) {
      const auto v = static_cast<VertexId>(payload[i++]);
      const auto deg = payload[i++];
      nodes.push_back(v);
      for (Word d = 0; d < deg; ++d) {
        edges.push_back({static_cast<VertexId>(payload[i++]), v});
      }
    }
  }
  sim.machine(0).charge_storage(gathered_words);
  std::sort(nodes.begin(), nodes.end());
  const auto index_of = [&](VertexId v) {
    return static_cast<VertexId>(
        std::lower_bound(nodes.begin(), nodes.end(), v) - nodes.begin());
  };
  for (Edge& e : edges) e = {index_of(e.u), index_of(e.v)};
  const Graph sub =
      Graph::from_edges(static_cast<VertexId>(nodes.size()), edges);
  std::vector<VertexId> mis;
  for (VertexId i : greedy_mis(sub)) mis.push_back(nodes[i]);
  sim.machine(0).release_storage(gathered_words);
  mpc::broadcast(sim, 0, std::vector<Word>(mis.begin(), mis.end()), 0xF2);
  return mis;
}

std::vector<std::uint64_t> ledger(const mpc::MpcMetrics& m) {
  return {m.rounds,           m.messages,          m.total_words,
          m.max_send_words,   m.max_recv_words,    m.max_storage_words,
          m.violations,       m.random_words,      m.faults_injected,
          m.checkpoints,      m.recovery_rounds,   m.degraded_subrounds,
          m.deadline_misses,  m.speculative_rounds, m.corrupt_detected,
          m.integrity_retries, m.quarantined_rounds};
}

struct Run {
  std::vector<VertexId> mis;
  std::vector<std::uint64_t> ledger;
};

template <typename Gather>
Run run_gather(const Graph& g, const std::vector<VertexId>& members,
               std::uint32_t threads, const Gather& gather) {
  mpc::MpcConfig cfg;
  cfg.num_machines = 5;
  cfg.memory_words = 1 << 16;
  cfg.num_threads = threads;
  cfg.seed = 9;
  mpc::Simulator sim(cfg);
  const mpc::DistGraph dg(sim, g);
  std::vector<std::uint8_t> in_members(g.num_vertices(), 0);
  for (VertexId v : members) in_members[v] = 1;
  Run run;
  run.mis = gather(sim, dg, members, in_members);
  sim.sync_metrics();
  run.ledger = ledger(sim.metrics());
  return run;
}

void expect_parity(const Graph& g, const std::vector<VertexId>& members,
                   const std::string& label) {
  const Run reference = run_gather(g, members, 1, reference_gather_and_mis);
  for (const std::uint32_t threads : {1u, 4u}) {
    const Run run = run_gather(g, members, threads, detail::gather_and_mis);
    const std::string at = label + " threads=" + std::to_string(threads);
    EXPECT_EQ(run.mis, reference.mis) << at;
    EXPECT_EQ(run.ledger, reference.ledger) << at;
  }
}

TEST(GatherDecode, MatchesInducedSubgraphGreedyOnRandomMembers) {
  std::mt19937_64 rng(41);
  for (const double avg_deg : {2.0, 6.0, 20.0}) {
    const Graph g = gen::gnp(240, avg_deg / 239.0, 7);
    for (int trial = 0; trial < 4; ++trial) {
      // A random subset in random (unsorted) order.
      std::vector<VertexId> members;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (rng() % 4 < static_cast<unsigned>(trial)) members.push_back(v);
      }
      std::shuffle(members.begin(), members.end(), rng);
      expect_parity(g, members,
                    "deg=" + std::to_string(avg_deg) +
                        " trial=" + std::to_string(trial));
    }
  }
}

TEST(GatherDecode, EmptySingletonAndWholeGraph) {
  const Graph g = gen::gnp(120, 0.05, 3);
  expect_parity(g, {}, "empty");
  expect_parity(g, {57}, "singleton");
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  std::reverse(all.begin(), all.end());
  expect_parity(g, all, "whole graph, descending");
}

}  // namespace
}  // namespace rsets
