// The three benchmark workloads and the layer probes of the traced run.
//
//   oneshot-sparse  det_ruling_mpc on gnp n=200000, avg degree 8: the
//                   near-linear regime (0 phases, one whole-graph gather).
//   oneshot-dense   det_ruling_mpc on gnp n=50000, avg degree 32: the same
//                   m, but one degree-reduction phase whose rounds run the
//                   conditional-expectation estimator.
//   serve-mixed     a greedy RulingSetService with the journal on: one
//                   writer applying churn batches, one reader issuing
//                   nearest-member queries on fresh handles, concurrently.
//
// See README.md in this directory for why each workload exists and which
// metric each layer number should move.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/chaos.hpp"
#include "core/derand.hpp"
#include "core/greedy.hpp"
#include "core/ruling_set.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/verify.hpp"
#include "harness.hpp"
#include "mpc/certify.hpp"
#include "mpc/dist_graph.hpp"
#include "mpc/simulator.hpp"
#include "serve/dynamic_graph.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "util/bits.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using rsets::Graph;
using rsets::VertexId;
using rsets::serve::PointQueryResult;
using rsets::serve::QuerySnapshot;

constexpr std::uint32_t kBeta = 2;
constexpr int kSetupReps = 7;       // set-ups per run; setup_s is their median
constexpr int kProbeReps = 3;       // repetitions of each cheap layer probe
constexpr int kServeProbeBatches = 6;
constexpr int kMinOps = 4;          // even a short run times this many ops
// Untimed applies before serve-mixed's concurrent phase: up to and including
// the first full-certification epoch (ServiceConfig::full_certify_every).
constexpr int kWarmupApplies = 16;
constexpr std::uint64_t kBatchUpdates = 100;
constexpr std::uint64_t kBruteForceEvery = 8;  // oracle-check every k-th query
constexpr int kQueriesPerSolve = 2000;         // one-shot query batch size
// The traced run traces every k-th query only: queries are 10^5-10^6 per
// run, and one span set per query would make the span file hundreds of MB.
constexpr std::uint64_t kTraceQueryEvery = 16;
constexpr unsigned kSolveThreads = 2;

struct Spec {
  const char* name;
  VertexId n;
  double avg_degree;
  bool serve;
  // The whole graph fits the gather budget, so det_ruling_mpc solves by one
  // greedy gather and must return exactly greedy_mis(g).
  bool whole_graph_gather;
};

constexpr Spec kSpecs[] = {
    {"oneshot-sparse", 200000, 8.0, false, true},
    {"oneshot-dense", 50000, 32.0, false, false},
    {"serve-mixed", 200000, 8.0, true, false},
};

rsets::mpc::MpcConfig mpc_config(unsigned threads) {
  rsets::mpc::MpcConfig cfg;
  cfg.num_machines = 8;
  cfg.memory_words = std::size_t{1} << 26;  // above the 32n gather budget
  cfg.num_threads = threads;
  return cfg;
}

double seconds_since(Clock::time_point t) {
  return ms_between(t, Clock::now()) / 1000.0;
}

// Peak resident set so far. Read before the timed loop, once set-up and
// warm-up have run every kind of operation the loop runs: on serve-mixed the
// loop's peak depends on how the reader's pinned snapshots happen to overlap
// the writer's per-epoch buffers, which swings it by ~10 MB run to run.
double peak_rss_mb() {
  return static_cast<double>(rsets::peak_rss_kb()) / 1024.0;
}

template <class F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return ms_between(t0, Clock::now());
}

// One run's shared state: options, the main thread's tracer and the result.
struct Run {
  Run(const Options& options, const Spec& workload)
      : opt(options),
        spec(workload),
        n(options.tiny ? workload.n / 100 : workload.n) {}

  const Options& opt;
  Spec spec;
  VertexId n;
  Clock::time_point origin = Clock::now();
  Tracer main{0, origin};
  RunResult result;

  Graph generate() const {
    const double p = spec.avg_degree / static_cast<double>(n - 1);
    return rsets::gen::gnp(n, p, opt.seed);
  }
  // The set every set-taking check sees: the real one, or (smoke check)
  // a copy with its first member removed.
  std::vector<VertexId> for_check(std::vector<VertexId> set) const {
    if (opt.break_set && !set.empty()) set.erase(set.begin());
    return set;
  }
};

// Runs `f` kProbeReps times under a span and returns the median time.
template <class F>
double probe_ms(Tracer& tracer, const char* name, Layer layer, F&& f) {
  std::vector<double> times;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    times.push_back(time_ms([&] {
      auto span = tracer.span(name, layer);
      f();
    }));
  }
  return median(times);
}

void describe_input(const Run& run, const Graph& g) {
  const std::uint64_t arcs = 2 * g.num_edges();
  const std::uint64_t csr_bytes =
      (std::uint64_t{g.num_vertices()} + 1) * sizeof(std::uint64_t) +
      arcs * sizeof(VertexId);
  char line[256];
  std::snprintf(line, sizeof(line),
                "input gen=gnp seed=%llu n=%u m=%llu arcs=%llu "
                "avg_degree=%.1f max_degree=%u csr_bytes=%llu",
                static_cast<unsigned long long>(run.opt.seed),
                g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges()),
                static_cast<unsigned long long>(arcs), run.spec.avg_degree,
                g.max_degree(), static_cast<unsigned long long>(csr_bytes));
  describe(line);
}

void describe_samples(const char* what, const std::vector<double>& samples,
                      const char* unit) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s samples=%zu min=%.4f p10=%.4f p25=%.4f p50=%.4f p90=%.4f "
                "p99=%.4f max=%.4f %s",
                what, samples.size(), percentile(samples, 0),
                percentile(samples, 10), percentile(samples, 25),
                percentile(samples, 50),
                percentile(samples, 90), percentile(samples, 99),
                percentile(samples, 100), unit);
  describe(line);
}

// Independent nearest-member oracle: level-synchronous BFS to depth beta,
// membership from a sorted member list, smallest id wins within a level.
PointQueryResult brute_nearest(const Graph& g,
                               const std::vector<VertexId>& members,
                               VertexId v) {
  const auto is_member = [&](VertexId x) {
    return std::binary_search(members.begin(), members.end(), x);
  };
  PointQueryResult out;
  std::unordered_map<VertexId, std::uint32_t> seen{{v, 0}};
  std::vector<VertexId> level{v};
  for (std::uint32_t d = 0; d <= kBeta && !level.empty(); ++d) {
    for (VertexId x : level) {
      if (is_member(x) && (!out.covered || x < out.member)) {
        out.covered = true;
        out.member = x;
        out.distance = d;
      }
    }
    if (out.covered) return out;
    std::vector<VertexId> next;
    for (VertexId x : level) {
      for (VertexId w : g.neighbors(x)) {
        if (seen.emplace(w, d + 1).second) next.push_back(w);
      }
    }
    level = std::move(next);
  }
  return out;
}

// Checks one query answer against the snapshot's member list (sorted).
bool query_ok(const Graph& g, const std::vector<VertexId>& members, VertexId v,
              const PointQueryResult& r, bool brute_force) {
  bool ok = r.covered && r.distance <= kBeta &&
            std::binary_search(members.begin(), members.end(), r.member);
  if (brute_force) {
    const PointQueryResult b = brute_nearest(g, members, v);
    ok = ok && b.covered == r.covered && b.member == r.member &&
         b.distance == r.distance;
  }
  return ok;
}

// Latencies and model counts of the traced det_ruling_mpc solves.
struct SolveTrace {
  std::vector<double> callback_ms;      // per solve: sum of phase walls
  std::vector<double> callback_max_ms;  // per solve: slowest phase
  std::vector<double> between_ms;       // per solve: wall minus phases
  rsets::RulingSetResult last;
};

// Wires a phase hook that records each RoundTrace as a child span of the
// open solve span and accumulates the per-solve sums.
struct PhaseSums {
  double sum_ms = 0.0;
  double max_ms = 0.0;
};
rsets::mpc::TraceHook phase_hook(Tracer& tracer, PhaseSums& sums) {
  return [&tracer, &sums](const rsets::mpc::RoundTrace& rt) {
    sums.sum_ms += rt.wall_ms;
    sums.max_ms = std::max(sums.max_ms, rt.wall_ms);
    tracer.finished_child(rt.drain ? "drain" : "round", Layer::kMpc,
                          rt.wall_ms);
  };
}

rsets::RulingSetOptions solve_options() {
  rsets::RulingSetOptions o;
  o.algorithm = rsets::Algorithm::kDetRulingMpc;
  o.beta = kBeta;
  o.mpc = mpc_config(kSolveThreads);
  return o;
}

// One traced solve, outside any loop (serve-mixed's MPC numbers).
void probe_solve(Run& run, const Graph& g, SolveTrace& trace) {
  PhaseSums sums;
  rsets::RulingSetOptions o = solve_options();
  o.mpc.trace_hook = phase_hook(run.main, sums);
  double wall = 0.0;
  {
    auto span = run.main.span("compute_ruling_set", Layer::kCore);
    wall = time_ms([&] { trace.last = rsets::compute_ruling_set(g, o); });
  }
  run.result.check(rsets::is_beta_ruling_set(
      g, run.for_check(trace.last.ruling_set), kBeta));
  trace.callback_ms.push_back(sums.sum_ms);
  trace.callback_max_ms.push_back(sums.max_ms);
  trace.between_ms.push_back(wall - sums.sum_ms);
}

// The standalone phase-1 marking step: the estimator inputs
// det_ruling_set_mpc builds when the whole graph does not fit the default
// 32n gather budget (recomputed here from its public formula).
void probe_derand(Run& run, const Graph& g) {
  const VertexId n = g.num_vertices();
  const std::uint64_t budget = 32ull * n;
  const double ratio = 32.0 * static_cast<double>(g.num_edges()) /
                       static_cast<double>(budget);
  std::uint32_t d = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(std::ceil(std::sqrt(ratio))));
  d = std::min(d, g.max_degree());
  const int k_budget = static_cast<int>(std::ceil(0.5 * std::log2(ratio)));
  rsets::DerandMarkOptions mark;
  mark.levels = std::max({rsets::ceil_log2(d + 1), k_budget, 1});
  mark.edge_budget = budget;
  std::vector<VertexId> targets;
  for (VertexId v = 0; v < n; ++v) {
    if (g.degree(v) >= d) targets.push_back(v);
  }
  PhaseSums sums;
  rsets::mpc::MpcConfig cfg = mpc_config(kSolveThreads);
  cfg.trace_hook = phase_hook(run.main, sums);
  rsets::mpc::Simulator sim(cfg);
  rsets::mpc::DistGraph dg(sim, g);
  rsets::DerandMarkResult r;
  const double ms = time_ms([&] {
    auto span = run.main.span("derand_mark", Layer::kCore);
    r = rsets::derand_mark(sim, dg, std::vector<bool>(n, true), targets, mark);
  });
  run.result.check(!r.marked.empty());
  run.result.set("core.derand_mark_ms", ms, "ms");
  run.result.set("core.derand_ms_per_chunk",
                 r.chunks > 0 ? ms / r.chunks : ms, "ms");
}

rsets::serve::ServiceConfig service_config(const std::string& journal) {
  rsets::serve::ServiceConfig cfg;
  cfg.options.algorithm = rsets::Algorithm::kGreedySequential;
  cfg.options.beta = kBeta;
  cfg.options.mpc = mpc_config(1);  // full-certification epochs
  cfg.journal_path = journal;
  return cfg;
}

struct ServeCounters {
  std::vector<double> dirty_vertices;
  LogHistogram handle_us;
};

// Service metrics shared by the serve-mixed main service and the probe
// service of the one-shot workloads.
void set_service_metrics(Run& run, const rsets::serve::RulingSetService& svc,
                         const ServeCounters& counters) {
  const rsets::serve::ServiceMetrics& m = svc.metrics();
  run.result.set("serve.dirty_vertices", median(counters.dirty_vertices),
                 "count");
  run.result.set("serve.effective_ratio",
                 m.updates_seen == 0 ? 0.0
                                     : static_cast<double>(m.updates_applied) /
                                           static_cast<double>(m.updates_seen),
                 "ratio");
  run.result.set("serve.epochs", static_cast<double>(m.epochs), "count");
  run.result.set("serve.certifications_full",
                 static_cast<double>(m.certifications_full), "count");
  run.result.set("serve.query_handle_us_p99",
                 counters.handle_us.percentile(99), "us");
}

// Layer probes of the traced run, on the workload's final graph and a valid
// ruling set of it. Each times one public call (median of kProbeReps where
// cheap) so a later change to that layer shows up here even when the
// workload's own loop bypasses the layer.
void run_probes(Run& run, const Graph& g, const std::vector<VertexId>& set,
                bool has_service) {
  Tracer& t = run.main;
  auto root = t.span("probes", Layer::kRun);
  const VertexId n = g.num_vertices();

  const std::vector<rsets::Edge> edges = g.edges();
  bool rebuilt = true;
  run.result.set("graph.from_edges_ms",
                 probe_ms(t, "Graph::from_edges", Layer::kGraph, [&] {
                   rebuilt = rebuilt && Graph::from_edges(n, edges)
                                                .num_edges() == g.num_edges();
                 }),
                 "ms");
  run.result.check(rebuilt);
  run.result.set("graph.arcs", 2.0 * static_cast<double>(g.num_edges()),
                 "count");
  run.result.set("mpc.load_ms", probe_ms(t, "DistGraph", Layer::kMpc, [&] {
                   rsets::mpc::Simulator sim(mpc_config(kSolveThreads));
                   rsets::mpc::DistGraph dg(sim, g);
                 }),
                 "ms");
  bool certified = true;
  run.result.set("mpc.certify_ms",
                 probe_ms(t, "certify_ruling_set", Layer::kMpc, [&] {
                   certified =
                       certified && rsets::mpc::certify_ruling_set(
                                        g, set, kBeta, mpc_config(1))
                                        .valid();
                 }),
                 "ms");
  run.result.check(certified);
  run.result.set("core.greedy_mis_ms",
                 probe_ms(t, "greedy_mis", Layer::kCore,
                          [&] { (void)rsets::greedy_mis(g); }),
                 "ms");
  probe_derand(run, g);

  rsets::serve::DynamicGraph dyn(g);
  run.result.set("serve.snapshot_ms",
                 probe_ms(t, "DynamicGraph::snapshot", Layer::kServe,
                          [&] { (void)dyn.snapshot(); }),
                 "ms");
  std::vector<double> qs_ms;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    Graph snap = dyn.snapshot();
    qs_ms.push_back(time_ms([&] {
      auto span = t.span("QuerySnapshot", Layer::kServe);
      const QuerySnapshot q(0, kBeta, std::move(snap), set);
    }));
  }
  run.result.set("serve.query_snapshot_ms", median(qs_ms), "ms");

  // The certification pass of one frontier epoch: the beta-ball around a
  // churn batch's endpoints, then the region check over it.
  std::vector<double> ball_ms;
  std::vector<double> region_ms;
  bool region_ok = true;
  for (int b = 0; b < kServeProbeBatches; ++b) {
    const auto batch =
        rsets::chaos_churn_batch(run.opt.seed, 1, b, n, kBatchUpdates);
    std::vector<VertexId> seeds;
    for (const auto& u : batch.updates) {
      seeds.push_back(u.u);
      seeds.push_back(u.v);
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    std::vector<VertexId> region;
    ball_ms.push_back(time_ms([&] {
      auto span = t.span("DynamicGraph::ball", Layer::kServe);
      region = dyn.ball(seeds, kBeta);
    }));
    region_ms.push_back(time_ms([&] {
      auto span = t.span("region_valid", Layer::kServe);
      region_ok = rsets::serve::region_valid(dyn, set, kBeta, region) &&
                  region_ok;
    }));
  }
  run.result.check(region_ok);
  run.result.set("serve.ball_ms", median(ball_ms), "ms");
  run.result.set("serve.region_valid_ms", median(region_ms), "ms");

  // Journal cost: the same batches through a journaled service and an
  // unjournaled twin, paired per batch.
  const std::string journal = run.opt.tmp_dir + "/probe-journal.rsj";
  std::optional<rsets::serve::RulingSetService> on;
  std::optional<rsets::serve::RulingSetService> off;
  {
    auto span = t.span("RulingSetService", Layer::kServe);
    on.emplace(g, service_config(journal));
  }
  {
    auto span = t.span("RulingSetService", Layer::kServe);
    off.emplace(g, service_config(""));
  }
  std::vector<double> journal_ms;
  ServeCounters counters;
  bool applied_ok = true;
  for (int b = 0; b < kServeProbeBatches; ++b) {
    const auto batch =
        rsets::chaos_churn_batch(run.opt.seed, 2, b, n, kBatchUpdates);
    rsets::serve::BatchReport with;
    rsets::serve::BatchReport without;
    const double on_ms = time_ms([&] {
      auto span = t.span("apply", Layer::kServe);
      with = on->apply(batch);
    });
    const double off_ms = time_ms([&] {
      auto span = t.span("apply", Layer::kServe);
      without = off->apply(batch);
    });
    applied_ok = applied_ok && with.certified && without.certified &&
                 on->ruling_set() == off->ruling_set();
    journal_ms.push_back(on_ms - off_ms);
    counters.dirty_vertices.push_back(
        static_cast<double>(with.dirty_vertices));
  }
  run.result.check(applied_ok);
  run.result.set("serve.journal_ms", median(journal_ms), "ms");
  run.result.set("serve.journal_bytes_per_epoch",
                 static_cast<double>(std::filesystem::file_size(journal)),
                 "bytes");
  if (!has_service) {
    for (int i = 0; i < 1000; ++i) {
      auto span = t.span("query", Layer::kServe);
      const auto t0 = Clock::now();
      const auto handle = on->query();
      counters.handle_us.add(ms_between(t0, Clock::now()) * 1000.0);
    }
    set_service_metrics(run, *on, counters);
  }
}

void set_solve_metrics(Run& run, const SolveTrace& s) {
  const rsets::mpc::MpcMetrics& m = s.last.metrics;
  run.result.set("mpc.callback_ms", median(s.callback_ms), "ms");
  run.result.set("mpc.callback_ms_max", median(s.callback_max_ms), "ms");
  run.result.set("mpc.between_rounds_ms", median(s.between_ms), "ms");
  run.result.set("mpc.rounds", static_cast<double>(m.rounds), "count");
  run.result.set("mpc.messages", static_cast<double>(m.messages), "count");
  run.result.set("mpc.words", static_cast<double>(m.total_words), "words");
  run.result.set("mpc.max_recv_words", static_cast<double>(m.max_recv_words),
                 "words");
  run.result.set("mpc.peak_memory_words",
                 static_cast<double>(m.max_storage_words), "words");
  run.result.set("core.phases", static_cast<double>(s.last.phases), "count");
  run.result.set("core.mark_steps", static_cast<double>(s.last.mark_steps),
                 "count");
  run.result.set("core.derand_chunks",
                 static_cast<double>(s.last.derand_chunks), "count");
  run.result.set("core.set_size",
                 static_cast<double>(s.last.ruling_set.size()), "count");
}

// Metrics every workload reports the same way.
void set_common_metrics(Run& run, const std::vector<double>& setup_s,
                        const std::vector<double>& gen_ms,
                        const std::vector<double>& untraced_op_ms,
                        const std::vector<double>& traced_op_ms,
                        const LogHistogram& query_us, double rss_mb) {
  RunResult& r = run.result;
  describe_samples("setup", setup_s, "s");
  if (!run.opt.trace) {
    describe_samples("op", untraced_op_ms, "ms");
    char line[160];
    std::snprintf(line, sizeof(line),
                  "query samples=%llu p10=%.4f p25=%.4f p50=%.4f p90=%.4f "
                  "p99=%.4f us",
                  static_cast<unsigned long long>(query_us.count()),
                  query_us.percentile(10), query_us.percentile(25),
                  query_us.percentile(50), query_us.percentile(90),
                  query_us.percentile(99));
    describe(line);
    r.set("setup_s", median(setup_s), "s");
    r.set("op_ms_p50", percentile(untraced_op_ms, 50), "ms");
    r.set("op_ms_p90", percentile(untraced_op_ms, 90), "ms");
    r.set("query_us_p50", query_us.percentile(50), "us");
    // Closed loops with one client: throughput is 1 / mean latency, so it
    // is described rather than reported next to the latency percentiles.
    std::snprintf(line, sizeof(line),
                  "throughput ops_per_s=%.4f queries_per_s=%.1f (per second "
                  "of operation time)",
                  1000.0 * static_cast<double>(untraced_op_ms.size()) /
                      sum(untraced_op_ms),
                  1e6 * static_cast<double>(query_us.count()) /
                      query_us.sum());
    describe(line);
    r.set("peak_rss_mb", rss_mb, "MB");
    return;
  }
  describe_samples("op untraced", untraced_op_ms, "ms");
  describe_samples("op traced", traced_op_ms, "ms");
  const double untraced = median(untraced_op_ms);
  const double traced = median(traced_op_ms);
  r.set("trace.op_ms_p50_untraced", untraced, "ms");
  r.set("trace.op_ms_p50_traced", traced, "ms");
  r.set("trace.overhead_pct", 100.0 * (traced / untraced - 1.0), "%");
  // The query tail swings with host noise far more than the median, so it
  // is reported here, without a bound, rather than end to end.
  r.set("serve.query_us_p99", query_us.percentile(99), "us");
  r.set("graph.gen_ms", median(gen_ms), "ms");
}

void set_attribution(Run& run, const std::vector<const Tracer*>& tracers) {
  const Attribution a = attribute(tracers);
  const auto self = [&](Layer layer) {
    const auto it = a.self_ms.find(layer);
    return it == a.self_ms.end() ? 0.0 : it->second;
  };
  RunResult& r = run.result;
  r.set("trace.wall_ms", a.wall_ms, "ms");
  r.set("graph.self_ms", self(Layer::kGraph), "ms");
  r.set("mpc.self_ms", self(Layer::kMpc), "ms");
  r.set("core.self_ms", self(Layer::kCore), "ms");
  r.set("serve.self_ms", self(Layer::kServe), "ms");
  r.set("bench.check_ms", self(Layer::kCheck), "ms");
  r.set("unattributed_ms", a.unattributed_ms, "ms");
  char line[256];
  std::snprintf(line, sizeof(line),
                "attribution wall=%.3f graph=%.3f mpc=%.3f core=%.3f "
                "serve=%.3f check=%.3f unattributed=%.3f ms",
                a.wall_ms, self(Layer::kGraph), self(Layer::kMpc),
                self(Layer::kCore), self(Layer::kServe), self(Layer::kCheck),
                a.unattributed_ms);
  describe(line);
  if (!run.opt.spans_path.empty()) write_spans(run.opt.spans_path, tracers);
}

// Closed loop, one caller: det_ruling_mpc solves back to back, each followed
// by a batch of nearest-member queries on the answer. The traced run
// alternates untraced and traced iterations so both medians come from the
// same stretch of time.
void run_oneshot(Run& run) {
  Tracer& t = run.main;
  t.set_enabled(run.opt.trace);
  Graph g;
  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    g = Graph();
    auto root = t.span("setup", Layer::kRun);
    const auto t0 = Clock::now();
    {
      auto span = t.span("gen::gnp", Layer::kGraph);
      g = run.generate();
    }
    gen_ms.push_back(ms_between(t0, Clock::now()));
    {
      auto span = t.span("DistGraph", Layer::kMpc);
      rsets::mpc::Simulator sim(mpc_config(kSolveThreads));
      rsets::mpc::DistGraph dg(sim, g);
    }
    setup_s.push_back(seconds_since(t0));
  }
  describe_input(run, g);

  // Every solve must return this set: greedy_mis(g) in the whole-graph
  // gather regime, otherwise whatever the warm-up solve returned.
  std::vector<VertexId> reference;
  if (run.spec.whole_graph_gather) reference = rsets::greedy_mis(g);

  const rsets::RulingSetOptions plain = solve_options();
  rsets::RulingSetOptions hooked = plain;
  PhaseSums sums;
  hooked.mpc.trace_hook = phase_hook(t, sums);

  SolveTrace solves;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::optional<rsets::mpc::MpcMetrics> first_ledger;
  const auto solve_once = [&](bool traced, bool record) {
    t.set_enabled(traced);
    auto root = t.span("iteration", Layer::kRun);
    sums = PhaseSums{};
    rsets::RulingSetResult r;
    const double ms = time_ms([&] {
      auto span = t.span("compute_ruling_set", Layer::kCore);
      r = rsets::compute_ruling_set(g, traced ? hooked : plain);
    });
    auto check = t.span("check", Layer::kCheck);
    if (reference.empty()) reference = r.ruling_set;
    if (!first_ledger) first_ledger = r.metrics;
    const std::vector<VertexId> checked = run.for_check(r.ruling_set);
    run.result.check(rsets::is_beta_ruling_set(g, checked, kBeta) &&
                     checked == reference &&
                     r.metrics.rounds == first_ledger->rounds &&
                     r.metrics.total_words == first_ledger->total_words);
    if (!record) return;
    if (!traced) {
      untraced_ms.push_back(ms);
      return;
    }
    traced_ms.push_back(ms);
    solves.callback_ms.push_back(sums.sum_ms);
    solves.callback_max_ms.push_back(sums.max_ms);
    solves.between_ms.push_back(ms - sums.sum_ms);
    solves.last = std::move(r);
  };

  solve_once(false, false);  // warm-up: caches, allocator, worker pool

  // Point queries on the solved set, what a caller of a one-shot solve does
  // with its answer: a fixed batch after every solve, so query samples span
  // the whole run like the solves do.
  const QuerySnapshot snap(0, kBeta, g, reference);
  const std::vector<VertexId> members = run.for_check(reference);
  const double rss_mb = peak_rss_mb();
  LogHistogram query_us;
  std::uint64_t rng = run.opt.seed ^ 0x7175657279ull;
  std::uint64_t queries = 0;
  const auto query_batch = [&] {
    for (int i = 0; i < kQueriesPerSolve; ++i, ++queries) {
      const bool traced = run.opt.trace && queries % kTraceQueryEvery == 1;
      t.set_enabled(traced);
      auto root = t.span("query-iteration", Layer::kRun);
      const auto v =
          static_cast<VertexId>(rsets::splitmix64(rng) % g.num_vertices());
      PointQueryResult r;
      const auto t0 = Clock::now();
      {
        auto span = t.span("nearest_member", Layer::kServe);
        r = snap.nearest_member(v);
      }
      const double us = ms_between(t0, Clock::now()) * 1000.0;
      if (!traced) query_us.add(us);
      auto check = t.span("check", Layer::kCheck);
      run.result.check(
          query_ok(g, members, v, r, queries % kBruteForceEvery == 0));
    }
  };

  const auto start = Clock::now();
  for (int i = 0; seconds_since(start) < run.opt.seconds || i < kMinOps;
       ++i) {
    solve_once(run.opt.trace && i % 2 == 1, true);
    query_batch();
  }
  t.set_enabled(run.opt.trace);

  std::uint64_t set_hash = rsets::kFnvOffsetBasis;
  for (VertexId v : reference) set_hash = rsets::fnv1a_word(set_hash, v);
  char line[160];
  std::snprintf(line, sizeof(line),
                "output set_size=%zu set_hash=%016llx rounds=%llu words=%llu",
                reference.size(), static_cast<unsigned long long>(set_hash),
                static_cast<unsigned long long>(first_ledger->rounds),
                static_cast<unsigned long long>(first_ledger->total_words));
  describe(line);

  set_common_metrics(run, setup_s, gen_ms, untraced_ms, traced_ms, query_us,
                     rss_mb);
  if (!run.opt.trace) return;
  set_solve_metrics(run, solves);
  run_probes(run, g, reference, /*has_service=*/false);
  set_attribution(run, {&t});
}

// One writer applying churn batches and one reader issuing queries on fresh
// handles, both closed loops, concurrently on one service.
void run_serve(Run& run) {
  Tracer& t = run.main;
  t.set_enabled(run.opt.trace);
  const std::string journal = run.opt.tmp_dir + "/journal.rsj";
  std::optional<rsets::serve::RulingSetService> svc;
  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  Graph g;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    g = Graph();
    auto root = t.span("setup", Layer::kRun);
    const auto t0 = Clock::now();
    {
      auto span = t.span("gen::gnp", Layer::kGraph);
      g = run.generate();
    }
    gen_ms.push_back(ms_between(t0, Clock::now()));
    {
      auto span = t.span("RulingSetService", Layer::kServe);
      svc.emplace(g, service_config(journal));
    }
    setup_s.push_back(seconds_since(t0));
  }
  describe_input(run, g);
  g = Graph();

  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  ServeCounters counters;
  std::uint64_t batch_index = 0;
  std::uint64_t raw_updates = 0;
  const auto apply_once = [&](bool traced, bool record) {
    t.set_enabled(traced);
    auto root = t.span("iteration", Layer::kRun);
    const auto batch = rsets::chaos_churn_batch(run.opt.seed, 0, batch_index++,
                                                run.n, kBatchUpdates);
    rsets::serve::BatchReport report;
    const double ms = time_ms([&] {
      auto span = t.span("apply", Layer::kServe);
      report = svc->apply(batch);
    });
    auto check = t.span("check", Layer::kCheck);
    run.result.check(report.certified && report.deferred == 0 &&
                     report.set_size == svc->ruling_set().size());
    if (!record) return;
    raw_updates += batch.size();
    counters.dirty_vertices.push_back(
        static_cast<double>(report.dirty_vertices));
    (traced ? traced_ms : untraced_ms).push_back(ms);
  };
  for (int i = 0; i < kWarmupApplies; ++i) apply_once(false, false);
  const double rss_mb = peak_rss_mb();

  // Reader: fresh handle per query, checked against that handle's set.
  Tracer reader_tracer(1, run.origin);
  RunResult reader_result;
  LogHistogram query_us;
  std::exception_ptr reader_error;
  // Declared after everything the reader touches, so that on any exit path
  // its destructor stops and joins it before those objects die.
  std::jthread reader([&](const std::stop_token& stop) {
    try {
      std::uint64_t rng = run.opt.seed ^ 0x7175657279ull;
      std::uint64_t epoch = ~std::uint64_t{0};
      std::vector<VertexId> members;
      for (std::uint64_t q = 0; !stop.stop_requested(); ++q) {
        const bool traced = run.opt.trace && q % kTraceQueryEvery == 1;
        reader_tracer.set_enabled(traced);
        auto root = reader_tracer.span("query-iteration", Layer::kRun);
        const auto v = static_cast<VertexId>(rsets::splitmix64(rng) % run.n);
        const auto t0 = Clock::now();
        rsets::serve::QueryHandle handle;
        {
          auto span = reader_tracer.span("query", Layer::kServe);
          handle = svc->query();
        }
        const auto t1 = Clock::now();
        PointQueryResult r;
        {
          auto span = reader_tracer.span("nearest_member", Layer::kServe);
          r = handle->nearest_member(v);
        }
        const auto t2 = Clock::now();
        counters.handle_us.add(ms_between(t0, t1) * 1000.0);
        if (!traced) query_us.add(ms_between(t0, t2) * 1000.0);
        auto check = reader_tracer.span("check", Layer::kCheck);
        if (handle->epoch() != epoch) {
          epoch = handle->epoch();
          members = handle->ruling_set();
          std::sort(members.begin(), members.end());
          members = run.for_check(std::move(members));
        }
        reader_result.check(query_ok(handle->graph(), members, v, r,
                                     q % kBruteForceEvery == 0));
      }
    } catch (...) {
      reader_error = std::current_exception();
    }
  });
  const auto start = Clock::now();
  for (int i = 0; seconds_since(start) < run.opt.seconds || i < kMinOps;
       ++i) {
    apply_once(run.opt.trace && i % 2 == 1, true);
  }
  reader.request_stop();
  reader.join();
  if (reader_error) std::rethrow_exception(reader_error);
  run.result.attempted += reader_result.attempted;
  run.result.failed += reader_result.failed;
  t.set_enabled(run.opt.trace);

  // Final state: the maintained set is greedy's from-scratch answer.
  const Graph final_graph = svc->snapshot();
  const std::vector<VertexId>& final_set = svc->ruling_set();
  {
    const std::vector<VertexId> checked = run.for_check(final_set);
    run.result.check(
        rsets::is_beta_ruling_set(final_graph, checked, kBeta) &&
        checked == rsets::greedy_ruling_set(final_graph, kBeta));
  }
  const double apply_s = (sum(untraced_ms) + sum(traced_ms)) / 1000.0;
  char line[200];
  std::snprintf(line, sizeof(line),
                "serve epochs=%llu updates_per_s=%.1f effective_ratio=%.4f "
                "final_m=%llu final_set_size=%zu",
                static_cast<unsigned long long>(svc->metrics().epochs),
                static_cast<double>(raw_updates) / apply_s,
                static_cast<double>(svc->metrics().updates_applied) /
                    static_cast<double>(svc->metrics().updates_seen),
                static_cast<unsigned long long>(final_graph.num_edges()),
                final_set.size());
  describe(line);

  set_common_metrics(run, setup_s, gen_ms, untraced_ms, traced_ms, query_us,
                     rss_mb);
  if (!run.opt.trace) return;
  set_service_metrics(run, *svc, counters);
  // Serve-mixed never runs the MPC solver; its MPC numbers come from one
  // det_ruling_mpc solve of the final graph (what an MPC backend's full
  // rerun would cost).
  SolveTrace solve;
  {
    auto root = t.span("probes", Layer::kRun);
    probe_solve(run, final_graph, solve);
  }
  set_solve_metrics(run, solve);
  run_probes(run, final_graph, final_set, /*has_service=*/true);
  set_attribution(run, {&t, &reader_tracer});
}

}  // namespace

RunResult run_workload(const Options& options) {
  for (const Spec& spec : kSpecs) {
    if (options.workload != spec.name) continue;
    Run run(options, spec);
    std::filesystem::create_directories(options.tmp_dir);
    if (spec.serve) {
      run_serve(run);
    } else {
      run_oneshot(run);
    }
    return std::move(run.result);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
