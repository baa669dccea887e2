// E8 — Cross-model comparison: CONGEST vs MPC on the same workloads.
//
// The paper's line of work moves ruling sets from message-passing models
// (LOCAL/CONGEST) into MPC. This bench quantifies what the move buys: on a
// bounded-degree and a heavy-tailed family, compare
//   luby_congest          Luby MIS in CONGEST            O(log n) rounds
//   coloring_mis_congest  deterministic Linial MIS       O(palette) rounds
//   beta_ruling_congest   distance-2 Luby ruling set     O(2 log n) rounds
//   det_ruling_mpc        the paper's algorithm          O(log log Delta)
//                                                        phases
// CONGEST rounds and MPC rounds are not the same currency — the point is
// the *growth shape* on each side, plus the bits/words ledger.
#include "bench_common.hpp"

#include "congest/aglp_ruling.hpp"
#include "congest/beta_ruling_congest.hpp"
#include "congest/coloring_mis.hpp"
#include "congest/det_ruling_congest.hpp"
#include "congest/luby_congest.hpp"
#include "core/det_ruling.hpp"

namespace rsets::bench {
namespace {

Graph workload(int family, VertexId n) {
  return family == 0 ? gen::random_regular(n, 8, 3)
                     : gen::power_law(n, 2.5, 8.0, 3);
}

void set_congest_counters(benchmark::State& state, const Graph& g,
                          const std::vector<VertexId>& set,
                          std::uint32_t beta,
                          const congest::CongestMetrics& metrics) {
  state.counters["rounds"] = static_cast<double>(metrics.rounds);
  state.counters["kbits"] = static_cast<double>(metrics.total_bits) / 1000.0;
  state.counters["set_size"] = static_cast<double>(set.size());
  state.counters["rand_words"] = static_cast<double>(metrics.random_words);
  const bool valid = is_beta_ruling_set(g, set, beta);
  state.counters["valid"] = valid ? 1.0 : 0.0;
  if (!valid) state.SkipWithError("invalid output");
}

void BM_CongestLuby(benchmark::State& state) {
  const Graph g = workload(static_cast<int>(state.range(1)),
                           static_cast<VertexId>(state.range(0)));
  RulingSetResult result;
  for (auto _ : state) result = congest::luby_mis_congest(g);
  set_congest_counters(state, g, result.ruling_set, 1,
                       result.congest_metrics);
}

void BM_CongestColoring(benchmark::State& state) {
  const Graph g = workload(static_cast<int>(state.range(1)),
                           static_cast<VertexId>(state.range(0)));
  RulingSetResult result;
  for (auto _ : state) result = congest::coloring_mis_congest(g);
  set_congest_counters(state, g, result.ruling_set, 1,
                       result.congest_metrics);
  state.counters["palette"] = static_cast<double>(result.palette_size);
}

void BM_CongestBeta2(benchmark::State& state) {
  const Graph g = workload(static_cast<int>(state.range(1)),
                           static_cast<VertexId>(state.range(0)));
  RulingSetResult result;
  for (auto _ : state) result = congest::beta_ruling_set_congest(g, 2);
  set_congest_counters(state, g, result.ruling_set, 2,
                       result.congest_metrics);
}

void BM_CongestAglp(benchmark::State& state) {
  const Graph g = workload(static_cast<int>(state.range(1)),
                           static_cast<VertexId>(state.range(0)));
  RulingSetResult result;
  for (auto _ : state) result = congest::aglp_ruling_set_congest(g);
  set_congest_counters(state, g, result.ruling_set, result.beta,
                       result.congest_metrics);
  state.counters["radius_bound"] = static_cast<double>(result.beta);
}

void BM_CongestDetRuling2(benchmark::State& state) {
  const Graph g = workload(static_cast<int>(state.range(1)),
                           static_cast<VertexId>(state.range(0)));
  RulingSetResult result;
  for (auto _ : state) result = congest::det_2ruling_set_congest(g);
  set_congest_counters(state, g, result.ruling_set, 2,
                       result.congest_metrics);
  state.counters["palette"] = static_cast<double>(result.palette_size);
}

void BM_MpcDetRuling(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph g = workload(static_cast<int>(state.range(1)), n);
  RulingSetResult result;
  for (auto _ : state) {
    DetRulingOptions opt;
    opt.gather_budget_words = 8ull * n;
    result = det_ruling_set_mpc(g, default_mpc(), opt);
  }
  report(state, g, result, default_mpc());
}

void Sizes(benchmark::internal::Benchmark* b) {
  for (int family : {0, 1}) {
    for (VertexId n : {1000, 4000, 16000}) {
      b->Args({static_cast<long>(n), family});
    }
  }
}

// The coloring baseline's greedy stage is palette-bounded; power-law
// graphs have huge Delta, so restrict it to the bounded-degree family.
void BoundedDegreeSizes(benchmark::internal::Benchmark* b) {
  for (VertexId n : {1000, 4000, 16000}) {
    b->Args({static_cast<long>(n), 0});
  }
}

BENCHMARK(BM_CongestLuby)->Apply(Sizes)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CongestColoring)->Apply(BoundedDegreeSizes)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CongestBeta2)->Apply(Sizes)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CongestAglp)->Apply(Sizes)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CongestDetRuling2)->Apply(BoundedDegreeSizes)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MpcDetRuling)->Apply(Sizes)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rsets::bench

RSETS_BENCH_MAIN(cross_model);
