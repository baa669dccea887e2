#include "core/sample_gather.hpp"

#include <algorithm>
#include <cmath>

#include "core/phase_common.hpp"
#include "mpc/dist_graph.hpp"
#include "mpc/primitives.hpp"
#include "util/logging.hpp"

namespace rsets {
using detail::count_active_edges;
using detail::gather_and_mis;
using detail::remove_ball;
using detail::solve_residual;
using mpc::MachineId;

RulingSetResult sample_gather_2ruling(const Graph& g,
                                      const mpc::MpcConfig& cfg,
                                      const SampleGatherOptions& options) {
  mpc::Simulator sim(cfg);
  mpc::DistGraph dg(sim, g);
  const VertexId n = g.num_vertices();
  const MachineId m_count = sim.num_machines();

  std::uint64_t budget = options.gather_budget_words;
  if (budget == 0) budget = 32ull * std::max<VertexId>(n, 1);
  budget = std::min<std::uint64_t>(budget, cfg.memory_words);

  RulingSetResult result;
  result.beta = 2;
  std::vector<VertexId>& ruling = result.ruling_set;
  const double log_n = std::log(std::max<double>(n, 2.0));

  // Checkpointable driver state: everything that survives across rounds.
  sim.register_snapshotable("dist_graph", &dg);
  auto driver_state = mpc::snapshot_of(result.ruling_set, result.phases,
                                       result.degree_trajectory);
  sim.register_snapshotable("sample_gather", &driver_state);

  while (dg.active_count() > 0) {
    const std::uint64_t m_active = count_active_edges(sim, dg);
    if (solve_residual(sim, dg, m_active, budget, ruling)) break;

    const std::uint32_t delta = dg.active_max_degree(sim);
    result.degree_trajectory.push_back(delta);
    ++result.phases;

    // Threshold: all vertices of active degree >= d are covered w.h.p.
    // E[sampled edges] = p^2 * m <= budget/8 by this choice of d.
    const double c = options.sample_scale;
    // Do NOT clamp d by Delta: when the graph exceeds the budget at small
    // Delta, d > Delta simply means no vertex needs coverage this phase and
    // the sample's removal ball alone makes progress. Clamping would push p
    // to 1 and the sampled graph past the budget forever.
    const double d = std::max(
        2.0, std::ceil(c * log_n *
                       std::sqrt(8.0 * static_cast<double>(m_active) /
                                 static_cast<double>(budget))));
    const double p = std::min(1.0, c * log_n / d);

    // Sample (owners flip coins), retry if the realized sample would blow
    // the gather budget — a low-probability event the analysis absorbs.
    // Byte-per-vertex mask: owners set their own vertices' entries from
    // inside the round callback, which may run concurrently per machine.
    std::vector<std::uint8_t> sampled(n, 0);
    std::vector<VertexId> sample;
    for (int attempt = 0; attempt < options.max_retries_per_phase;
         ++attempt) {
      std::fill(sampled.begin(), sampled.end(), std::uint8_t{0});
      sample.clear();
      sim.round([&](mpc::Machine& machine, const mpc::Inbox&) {
        for (VertexId v : dg.owned(machine.id())) {
          if (dg.active(v) && machine.rng().flip(p)) {
            sampled[v] = 1;
          }
        }
      });
      // Announce the sample cluster-wide (1 round) so edge filtering and
      // ball removal are locally decidable, mirroring the seed broadcast of
      // the deterministic algorithm.
      detail::announce_marked(sim, dg, sampled, 0x80);
      for (VertexId v = 0; v < n; ++v) {
        if (sampled[v]) sample.push_back(v);
      }
      // Owners count sampled-sampled edges (2-round allreduce) to check
      // the budget before gathering.
      std::vector<std::uint64_t> local_edges(m_count, 0);
      for (MachineId m = 0; m < m_count; ++m) {
        for (VertexId u : dg.owned(m)) {
          if (!sampled[u]) continue;
          for (VertexId w : dg.neighbors(u)) {
            if (u < w && sampled[w] && dg.active(w)) ++local_edges[m];
          }
        }
      }
      const std::uint64_t sampled_edges =
          allreduce_sum_u64(sim, local_edges);
      if (2 * sampled_edges + 2 * sample.size() <= budget) break;
      RSETS_WARN << "sample_gather: resampling, " << sampled_edges
                 << " sampled edges exceed budget " << budget;
      sample.clear();
    }
    if (sample.empty()) {
      // Nothing sampled (tiny p or repeated bad luck): spend another phase.
      continue;
    }

    const auto mis = gather_and_mis(sim, dg, sample, sampled);
    ruling.insert(ruling.end(), mis.begin(), mis.end());
    remove_ball(sim, dg, sampled, 1);
  }

  std::sort(ruling.begin(), ruling.end());
  sim.sync_metrics();
  result.metrics = sim.metrics();
  RSETS_INFO << "sample_gather: n=" << n << " |R|=" << ruling.size()
             << " phases=" << result.phases
             << " rounds=" << result.metrics.rounds;
  return result;
}

}  // namespace rsets
