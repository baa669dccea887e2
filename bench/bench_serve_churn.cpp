// E13 — Long-lived service throughput and repair latency under churn.
//
// One resident RulingSetService (det_ruling_mpc, the paper's algorithm) per
// churn rate: each batch carries rate * m raw edge updates drawn from the
// deterministic churn generator, and every committed epoch re-certifies the
// maintained set (region-restricted on the frontier tier, full in-model on
// escalation). Reported per rate: sustained update throughput, p50/p99
// apply() latency, the repair-scope mix the churn estimator chose, and the
// resident peak RSS — the cost of *maintaining* a ruling set, to put against
// the from-scratch cost of E1 at the same n. Prediction: p50 latency is
// dominated by the recompute (MPC outputs are global functions of the
// graph), so throughput scales near-linearly with batch size until the
// escalation threshold (0.05 here) flips epochs to the full tier and adds
// the full certification pass on top, as it does in the 10% row. BM_ServeChurnJournaled repeats every rate with
// the epoch journal on (written under the bench build tree), so the
// durability cost of each committed epoch shows next to the unjournaled row.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "serve/service.hpp"
#include "util/stats.hpp"

namespace rsets::bench {
namespace {

constexpr VertexId kN = 20000;
constexpr double kAvgDeg = 8.0;
constexpr std::uint64_t kBatches = 4;
// Churn rates (fraction of edges updated per batch), permille to keep the
// benchmark argument integral: 0.1%, 1%, 10%.
constexpr std::uint64_t kRatesPermille[] = {1, 10, 100};
// Escalation threshold the bench passes. The 10% row's effective fraction
// (graph-changing updates over edges) sits just under the service default
// of 0.10, so at 0.05 that row runs the full tier while the 0.1% and 1%
// rows stay on the frontier tier.
constexpr double kFullThreshold = 0.05;

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(p * (xs.size() - 1) + 0.5);
  return xs[std::min(rank, xs.size() - 1)];
}

void run_serve_churn(benchmark::State& state, const std::string& journal) {
  const auto permille = static_cast<std::uint64_t>(state.range(0));
  const Graph g = gen::gnp(kN, kAvgDeg / kN, 29);
  const std::uint64_t batch_updates =
      std::max<std::uint64_t>(1, g.num_edges() * permille / 1000);

  serve::ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kDetRulingMpc;
  cfg.options.beta = 2;
  cfg.options.mpc = default_mpc();
  cfg.full_threshold = kFullThreshold;
  cfg.journal_path = journal;
  serve::BatchReport last;
  std::vector<double> latency_ms;
  std::uint64_t raw_updates = 0;
  double apply_seconds = 0.0;
  for (auto _ : state) {
    serve::RulingSetService service(g, cfg);
    latency_ms.clear();
    raw_updates = 0;
    apply_seconds = 0.0;
    for (std::uint64_t b = 0; b < kBatches; ++b) {
      const serve::UpdateBatch batch =
          chaos_churn_batch(29, permille, b, kN, batch_updates);
      const auto t0 = std::chrono::steady_clock::now();
      last = service.apply(batch);
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      latency_ms.push_back(dt.count() * 1e3);
      apply_seconds += dt.count();
      raw_updates += batch.size();
    }
    const serve::ServiceMetrics& m = service.metrics();
    state.counters["epochs"] = static_cast<double>(m.epochs);
    state.counters["frontier_repairs"] =
        static_cast<double>(m.repairs_frontier);
    state.counters["full_recomputes"] = static_cast<double>(m.repairs_full);
    state.counters["certifications_region"] =
        static_cast<double>(m.certifications_region);
    state.counters["certifications_full"] =
        static_cast<double>(m.certifications_full);
    state.counters["set_size"] =
        static_cast<double>(service.ruling_set().size());
    if (!journal.empty()) {
      state.counters["journal_writes"] =
          static_cast<double>(m.journal_writes);
    }
  }
  add_host_context_once();
  state.counters["churn_permille"] = static_cast<double>(permille);
  state.counters["batch_updates"] = static_cast<double>(batch_updates);
  state.counters["updates_per_s"] =
      apply_seconds > 0.0 ? static_cast<double>(raw_updates) / apply_seconds
                          : 0.0;
  state.counters["p50_ms"] = percentile(latency_ms, 0.50);
  state.counters["p99_ms"] = percentile(latency_ms, 0.99);
  state.counters["peak_rss_kb"] = static_cast<double>(peak_rss_kb());
  // apply() certifies every committed epoch or throws; reaching this line
  // with every batch reporting certified IS the validity assertion.
  state.counters["certified"] = last.certified ? 1.0 : 0.0;
  if (!last.certified) {
    state.SkipWithError("service failed to certify a committed epoch");
  }
}

void BM_ServeChurn(benchmark::State& state) { run_serve_churn(state, ""); }

void BM_ServeChurnJournaled(benchmark::State& state) {
  const std::string journal =
      std::string(RSETS_BENCH_SCRATCH_DIR) + "/serve_churn.rsj";
  run_serve_churn(state, journal);
  for (const char* suffix : {"", ".prev", ".tmp"}) {
    std::remove((journal + suffix).c_str());
  }
}

BENCHMARK(BM_ServeChurn)
    ->Arg(static_cast<long>(kRatesPermille[0]))
    ->Arg(static_cast<long>(kRatesPermille[1]))
    ->Arg(static_cast<long>(kRatesPermille[2]))
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ServeChurnJournaled)
    ->Arg(static_cast<long>(kRatesPermille[0]))
    ->Arg(static_cast<long>(kRatesPermille[1]))
    ->Arg(static_cast<long>(kRatesPermille[2]))
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rsets::bench

RSETS_BENCH_MAIN(serve_churn);
