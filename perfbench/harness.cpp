// Sample statistics and the span recorder behind the traced run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "harness.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

double sum(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

namespace {

constexpr double kHistMinUs = 0.01;
constexpr double kHistGrowth = 1.005;
const double kHistLogGrowth = std::log(kHistGrowth);
const std::size_t kHistBuckets =
    static_cast<std::size_t>(std::log(1e8 / kHistMinUs) / kHistLogGrowth) + 1;

}  // namespace

LogHistogram::LogHistogram() : buckets_(kHistBuckets, 0) {}

void LogHistogram::add(double us) {
  const double x = std::max(us, kHistMinUs);
  const auto b = static_cast<std::size_t>(std::log(x / kHistMinUs) /
                                          kHistLogGrowth);
  ++buckets_[std::min(b, kHistBuckets - 1)];
  ++count_;
  sum_ += us;
}

double LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  double below = 0.0;  // samples in earlier buckets
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const auto n = static_cast<double>(buckets_[b]);
    if (n == 0 || below + n <= rank) {
      below += n;
      continue;
    }
    const double frac = (rank - below + 0.5) / n;
    return kHistMinUs * std::exp((static_cast<double>(b) + frac) *
                                 kHistLogGrowth);
  }
  return kHistMinUs * std::exp(static_cast<double>(buckets_.size()) *
                               kHistLogGrowth);
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRun:
      return "run";
    case Layer::kGraph:
      return "graph";
    case Layer::kMpc:
      return "mpc";
    case Layer::kCore:
      return "core";
    case Layer::kServe:
      return "serve";
    case Layer::kCheck:
      return "check";
  }
  return "?";
}

Tracer::Scope Tracer::span(const char* name, Layer layer) {
  if (!enabled_) return Scope(this, -1);
  Span s;
  s.name = name;
  s.layer = layer;
  s.thread = thread_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ms = now_ms();
  spans_.push_back(s);
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index);
}

void Tracer::finished_child(const char* name, Layer layer,
                            double duration_ms) {
  if (!enabled_ || open_.empty()) return;
  Span s;
  s.name = name;
  s.layer = layer;
  s.thread = thread_;
  s.parent = open_.back();
  s.end_ms = now_ms();
  // Clamp into the parent so a child can never claim time before its
  // parent started (the simulator's phase clock and ours differ by the
  // hook-call latency).
  s.start_ms = std::max(s.end_ms - duration_ms, spans_[s.parent].start_ms);
  spans_.push_back(s);
}

void Tracer::close(std::int64_t index) {
  spans_[index].end_ms = now_ms();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

namespace {

// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = -1.0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

Attribution attribute(const std::vector<const Tracer*>& tracers) {
  Attribution out;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const Span& s : spans) {
      if (s.parent >= 0) children[s.parent].emplace_back(s.start_ms, s.end_ms);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double self =
          (s.end_ms - s.start_ms) - union_length(std::move(children[i]));
      if (s.parent < 0) {
        out.wall_ms += s.end_ms - s.start_ms;
        out.unattributed_ms += self;
      } else {
        out.self_ms[s.layer] += self;
      }
    }
  }
  return out;
}

void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  char line[256];
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::snprintf(line, sizeof(line),
                    "{\"thread\":%d,\"id\":%zu,\"parent\":%lld,"
                    "\"layer\":\"%s\",\"name\":\"%s\",\"start_ms\":%.6f,"
                    "\"end_ms\":%.6f}\n",
                    s.thread, i, static_cast<long long>(s.parent),
                    layer_name(s.layer), s.name, s.start_ms, s.end_ms);
      out << line;
    }
  }
  if (!out) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
