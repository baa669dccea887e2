// Shared pieces of the repository benchmark program: run options, the metric
// sink, sample statistics, and the in-memory span recorder the traced run
// uses to attribute wall time to the library's layers (graph, mpc, core,
// serve). Spans are recorded only around the benchmark's own calls into the
// library's public functions; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes its spans (JSONL); "" skips the file.
  std::string spans_path;
  // Scratch directory for the service journals; created if missing (run.py
  // removes it after the run).
  std::string tmp_dir;
  // Smoke-check knobs: shrink every input 100x, and feed every set-taking
  // check a copy with one member removed (the run must then report
  // failures).
  bool tiny = false;
  bool break_set = false;
};

// One reported metric: value plus unit, printed in the final JSON line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Counts one checked operation; `ok` is the conjunction of its checks.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Linear-interpolated percentile (p in [0, 100]) of a sample; 0 if empty.
double percentile(std::vector<double> samples, double p);
double median(const std::vector<double>& samples);
double sum(const std::vector<double>& samples);

// Fixed-memory latency histogram for the high-volume query samples, so the
// benchmark's own bookkeeping does not move the run's peak RSS: log-spaced
// buckets 0.5% wide from 10 ns to 100 s (values in microseconds),
// percentiles interpolated geometrically inside a bucket.
class LogHistogram {
 public:
  LogHistogram();
  void add(double us);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  // Same rank convention as percentile() above; 0 if empty.
  double percentile(double p) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Which library layer a span's function belongs to. kRun marks the roots
// (set-up repetitions, traced loop iterations and the layer probes); kCheck
// is the benchmark's own output checking.
enum class Layer : std::uint8_t {
  kRun,
  kGraph,
  kMpc,
  kCore,
  kServe,
  kCheck,
};
const char* layer_name(Layer layer);

struct Span {
  const char* name = "";
  Layer layer = Layer::kRun;
  int thread = 0;
  std::int64_t parent = -1;  // index into the same thread's spans
  double start_ms = 0.0;     // since the tracer origin
  double end_ms = 0.0;
};

// Per-thread span recorder. Disabled tracers record nothing, so the same
// loop body runs traced and untraced.
class Tracer {
 public:
  Tracer(int thread, Clock::time_point origin)
      : thread_(thread), origin_(origin) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_ = on; }

  class Scope {
   public:
    Scope(Tracer* tracer, std::int64_t index)
        : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (index_ >= 0) tracer_->close(index_);
    }

   private:
    Tracer* tracer_;
    std::int64_t index_;
  };

  // Opens a span that closes when the returned scope ends.
  [[nodiscard]] Scope span(const char* name, Layer layer);
  // Records an already-finished child of the innermost open span that ended
  // now and lasted `duration_ms` (a simulator RoundTrace).
  void finished_child(const char* name, Layer layer, double duration_ms);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now_ms() const { return ms_between(origin_, Clock::now()); }
  void close(std::int64_t index);

  int thread_;
  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

// Self time per layer over every span of the given tracers: a span's self
// time is its duration minus the union of its children's intervals, and a
// root's self time is reported as unattributed. The per-layer values plus
// `unattributed_ms` sum to `wall_ms`, the summed duration of the roots
// (thread-milliseconds when several threads were traced).
struct Attribution {
  std::map<Layer, double> self_ms;
  double unattributed_ms = 0.0;
  double wall_ms = 0.0;
};
Attribution attribute(const std::vector<const Tracer*>& tracers);

// Writes every span of every tracer as one JSON object per line.
void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers);

// Runs one workload; throws std::invalid_argument for an unknown name.
RunResult run_workload(const Options& options);

// Description lines (printed with a "# " prefix before the result line).
void describe(const std::string& line);

}  // namespace perfbench
