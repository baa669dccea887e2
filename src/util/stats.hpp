// Summary statistics and peak-RSS telemetry for experiments.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rsets {

// Online mean/min/max/variance accumulator (Welford).
class Summary {
 public:
  void add(double x);
  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Peak resident set (VmHWM from /proc/self/status) in kB; 0 where /proc is
// unavailable. Every CLI run mode and the serve/churn benches report this
// uniformly — it is the number memory-footprint claims (out-of-core spill,
// resident-service overhead) are judged by. Linux-only, like the mmap spill.
std::uint64_t peak_rss_kb();

}  // namespace rsets
