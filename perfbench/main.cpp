// Repository benchmark program.
//
//   rsets_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--spans FILE] [--tmp DIR] [--tiny] [--break-set]
//
// Prints description lines prefixed with "# " (inputs, host, sample counts)
// and, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
// --trace 1 they are the per-layer ones. Exit code 0 on a completed run
// (check failures are reported in the JSON, not by the exit code), 2 on a
// usage error or a non-Release build, 1 if the run itself failed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "harness.hpp"

#ifndef RSETS_PERFBENCH_BUILD_TYPE
#define RSETS_PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {

void describe(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "rsets_perfbench: %s\n"
               "usage: rsets_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--tmp DIR] [--tiny] "
               "[--break-set]\n",
               why);
  return 2;
}

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line.empty() ? "unknown" : line;
}

void describe_host(const Options& opt) {
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "host nproc=%ld l3=%s build=%s workload=%s seed=%llu seconds=%.3f "
      "trace=%d scale=%s",
      sysconf(_SC_NPROCESSORS_ONLN),
      read_first_line("/sys/devices/system/cpu/cpu0/cache/index3/size")
          .c_str(),
      RSETS_PERFBENCH_BUILD_TYPE, opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, opt.tiny ? "tiny" : "full");
  describe(line);
  describe(
      "inputs are cache-resident (CSR bytes below the L3 size), so no "
      "memory-bandwidth metric is reported");
  describe(
      "loops are closed: one-shot workloads have 1 caller (simulator "
      "num_threads=2, 8 machines); serve-mixed has 1 writer and 1 reader "
      "thread");
}

void print_result(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::usage;
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--workload" && (v = value())) {
      opt.workload = v;
      have_workload = true;
    } else if (arg == "--seed" && (v = value())) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      opt.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = value())) {
      opt.trace = std::string(v) == "1";
    } else if (arg == "--spans" && (v = value())) {
      opt.spans_path = v;
    } else if (arg == "--tmp" && (v = value())) {
      opt.tmp_dir = v;
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--break-set") {
      opt.break_set = true;
    } else {
      return usage(("bad argument '" + arg + "'").c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  if (opt.tmp_dir.empty()) return usage("--tmp is required");
#ifndef NDEBUG
  return usage("refusing to measure a build with assertions enabled");
#endif
  if (std::string(RSETS_PERFBENCH_BUILD_TYPE) != "Release") {
    return usage("refusing to measure a non-Release build");
  }

  try {
    perfbench::describe_host(opt);
    const perfbench::RunResult result = perfbench::run_workload(opt);
    char line[128];
    std::snprintf(line, sizeof(line),
                  "checks attempted=%llu failed=%llu failed_ratio=%.6g",
                  static_cast<unsigned long long>(result.attempted),
                  static_cast<unsigned long long>(result.failed),
                  static_cast<double>(result.failed) /
                      static_cast<double>(result.attempted));
    perfbench::describe(line);
    perfbench::print_result(result);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rsets_perfbench: run failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
