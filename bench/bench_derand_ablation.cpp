// E7 — Derandomization ablation (claim C5).
//
// (a) chunk width: chunk_bits in {1, 2, 4, 8} trades aggregation rounds
//     (fewer, wider chunks) against per-chunk candidate-evaluation work
//     (2^c partials per shard, filled by one counting pass). The chosen
//     seed — and hence the output — may differ per width, but validity and
//     the coverage guarantee hold at every width, and `rounds` falls as
//     chunks widen while `model_rounds` stays put.
// (b) within-phase repetitions: the pairwise-independent coverage guarantee
//     is >= 1/8 of targets per marking; `steps_per_phase` reports how many
//     markings a phase actually needed (empirically ~1-3, far below the
//     worst case) — this is the theory/engineering gap DESIGN.md §3.1
//     commits to measuring rather than asserting away.
// (c) estimator integrity: `estimate_gain_min` is the minimum over all
//     marking steps of (realized Phi - initial E[Phi]); the method of
//     conditional expectations guarantees it is >= 0.
#include "bench_common.hpp"

#include "core/derand.hpp"
#include "core/det_ruling.hpp"
#include "mpc/dist_graph.hpp"

namespace rsets::bench {
namespace {

constexpr VertexId kN = 6000;

Graph workload() { return gen::gnp(kN, 24.0 / kN, 31); }

void BM_ChunkWidth(benchmark::State& state) {
  const int chunk_bits = static_cast<int>(state.range(0));
  const Graph g = workload();
  RulingSetResult result;
  for (auto _ : state) {
    DetRulingOptions opt;
    opt.chunk_bits = chunk_bits;
    opt.gather_budget_words = 8ull * kN;
    result = det_ruling_set_mpc(g, default_mpc(), opt);
  }
  report(state, g, result, default_mpc(), chunk_bits);
  state.counters["chunk_bits"] = chunk_bits;
  state.counters["chunks"] = static_cast<double>(result.derand_chunks);
  state.counters["steps_per_phase"] =
      result.phases == 0
          ? 0.0
          : static_cast<double>(result.mark_steps) /
                static_cast<double>(result.phases);
}

void BM_EstimatorIntegrity(benchmark::State& state) {
  // Direct derand_mark probes across degree regimes: report the minimum
  // estimator gain and the minimum coverage fraction over all probes.
  double min_gain = 1e300;
  double min_cover = 1.0;
  for (auto _ : state) {
    for (const std::uint32_t d : {8u, 16u, 32u, 64u}) {
      const Graph g = gen::random_regular(3000, 2 * d, 40 + d);
      mpc::Simulator sim(default_mpc());
      mpc::DistGraph dg(sim, g);
      std::vector<VertexId> targets;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (g.degree(v) >= d) targets.push_back(v);
      }
      DerandMarkOptions opt;
      opt.levels = std::max(ceil_log2(d + 1), 1);
      opt.edge_budget = 1 << 22;
      const std::vector<bool> all(g.num_vertices(), true);
      const auto res = derand_mark(sim, dg, all, targets, opt);
      min_gain = std::min(min_gain,
                          res.final_estimate - res.initial_estimate);
      min_cover = std::min(
          min_cover, static_cast<double>(res.covered_targets) /
                         static_cast<double>(targets.size()));
    }
  }
  state.counters["estimate_gain_min"] = min_gain;
  state.counters["cover_fraction_min"] = min_cover;
  state.counters["guarantee"] = 0.125;  // the 1/8 floor from the analysis
  if (min_gain < -1e-9 || min_cover < 0.125) {
    state.SkipWithError("derandomization guarantee violated");
  }
}

BENCHMARK(BM_ChunkWidth)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EstimatorIntegrity)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rsets::bench

RSETS_BENCH_MAIN(derand_ablation);
